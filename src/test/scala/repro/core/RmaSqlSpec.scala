package repro.core

import org.apache.spark.sql.{AnalysisException, DataFrame}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.repro.SparkJobs
import org.apache.spark.sql.types.{DoubleType, StringType}

/** The SQL surface of paper Section 7.2: RMA ops in the FROM clause. */
class RmaSqlSpec extends RmaFixtures {

  // A symmetric positive definite r(k; a, b, d) and a square s(k2; x, y, z):
  // valid arguments for every op of the table.
  private lazy val spd = makeDf(Seq("k" -> StringType, "a" -> DoubleType, "b" -> DoubleType, "d" -> DoubleType),
    Seq(Seq("r3", 0.0, 1.0, 2.0), Seq("r1", 4.0, 1.0, 0.0), Seq("r2", 1.0, 3.0, 1.0)))
  private lazy val sq = makeDf(Seq("k2" -> StringType, "x" -> DoubleType, "y" -> DoubleType, "z" -> DoubleType),
    Seq(Seq("s2", 2.0, -1.0, 0.5), Seq("s1", 1.0, 2.0, 3.0), Seq("s3", 0.0, 4.0, -2.0)))

  private type Args = Seq[(DataFrame, Seq[String])]
  private def unary(f: (DataFrame, Seq[String]) => DataFrame): Args => DataFrame =
    a => f(a(0)._1, a(0)._2)
  private def binary(f: (DataFrame, Seq[String], DataFrame, Seq[String]) => DataFrame): Args => DataFrame =
    a => f(a(0)._1, a(0)._2, a(1)._1, a(1)._2)

  /** The operator API, one named method per op. */
  private val api: Map[String, Args => DataFrame] = Map(
    "inv" -> unary(Rma.inv(_, _)), "evc" -> unary(Rma.evc(_, _)), "evl" -> unary(Rma.evl(_, _)),
    "chf" -> unary(Rma.chf(_, _)), "qqr" -> unary(Rma.qqr(_, _)), "rqr" -> unary(Rma.rqr(_, _)),
    "usv" -> unary(Rma.usv(_, _)), "dsv" -> unary(Rma.dsv(_, _)), "vsv" -> unary(Rma.vsv(_, _)),
    "tra" -> unary(Rma.tra(_, _)), "det" -> unary(Rma.det(_, _)), "rnk" -> unary(Rma.rnk(_, _)),
    "mmu" -> binary(Rma.mmu(_, _, _, _)), "opd" -> binary(Rma.opd(_, _, _, _)),
    "cpd" -> binary(Rma.cpd(_, _, _, _)), "sol" -> binary(Rma.sol(_, _, _, _)),
    "add" -> binary(Rma.add(_, _, _, _)), "sub" -> binary(Rma.sub(_, _, _, _)),
    "emu" -> binary(Rma.emu(_, _, _, _)))

  private def tempViews(): Int = spark.catalog.listTables().collect().count(_.isTemporary)

  override def beforeAll(): Unit = {
    super.beforeAll()
    weather.createOrReplaceTempView("r")
    weatherLate.createOrReplaceTempView("rlate")
    makeDf(
      Seq("m" -> org.apache.spark.sql.types.StringType,
        "x" -> org.apache.spark.sql.types.DoubleType),
      Seq(Seq("s1", 2.0), Seq("s2", 3.0))).createOrReplaceTempView("s")
    spd.createOrReplaceTempView("spd")
    sq.createOrReplaceTempView("sq")
    makeDf(Seq("k" -> StringType, "v" -> DoubleType),
      Seq(Seq("r1", 1.0), Seq("r1", 2.0))).createOrReplaceTempView("dup")
  }

  test("SELECT * FROM INV(r BY U) — the paper's first example query") {
    val v = RmaSql.sql(spark, "SELECT * FROM INV(rlate BY T);")
    assert(v.columns.toSeq == Seq("T", "H", "W"))
    assertDfClose(v, Seq(
      Seq("7am", -5.0 / 26, 7.0 / 26),
      Seq("8am", 8.0 / 26, -6.0 / 26)))
  }

  test("SELECT * FROM MMU(r BY U, s BY V) — the paper's binary example") {
    val v = RmaSql.sql(spark, "SELECT * FROM MMU(r BY T, s BY m)")
    assert(v.columns.toSeq == Seq("T", "x"))
    // [1,3;1,4;6,7;8,5] * [2;3]
    assertDfClose(v, Seq(
      Seq("5am", 11.0), Seq("6am", 14.0), Seq("7am", 33.0), Seq("8am", 31.0)))
  }

  test("projection and WHERE around an RMA call") {
    val v = RmaSql.sql(spark, "SELECT T, H FROM QQR(r BY T) WHERE T > '6am'")
    assert(v.columns.toSeq == Seq("T", "H"))
    assert(v.count() == 2)
  }

  test("nested RMA calls: INV of CPD (the OLS building block)") {
    val v = RmaSql.sql(spark, "SELECT * FROM INV(CPD(r BY T, r BY T) BY C)")
    assert(v.columns.toSeq == Seq("C", "H", "W"))
    // equals inv of the Gram matrix
    val gram = repro.matrix.Kernels.cpd(collectMatrix(weather, Seq("T")),
      collectMatrix(weather, Seq("T")))
    val expect = repro.matrix.Kernels.inv(gram)
    val got = collectMatrix(v, Seq("C"))
    assert(got.approxEquals(expect, 1e-9))
  }

  test("case-insensitive op names and keywords") {
    val v = RmaSql.sql(spark, "select * from inv(rlate by T)")
    assert(v.count() == 2)
    // Order attributes resolve as Spark resolves `col`, in the schema's spelling.
    val q = RmaSql.sql(spark, "SELECT * FROM QQR(r BY t)")
    assert(q.columns.toSeq == Seq("T", "H", "W"))
  }

  test("multi-attribute order schema in BY") {
    val v = RmaSql.sql(spark, "SELECT * FROM QQR(r BY W, T)")
    assert(v.columns.toSeq == Seq("W", "T", "H"))
  }

  test("plain SQL without RMA ops passes through") {
    val v = RmaSql.sql(spark, "SELECT count(*) AS n FROM r")
    assert(v.collect().head.getLong(0) == 4L)
  }

  test("aggregation on top of an RMA result") {
    val v = RmaSql.sql(spark, "SELECT count(*) AS n FROM TRA(r BY T)")
    assert(v.collect().head.getLong(0) == 2L)
  }

  test("expr evaluates a bare RMA expression") {
    val v = RmaSql.expr(spark, "DET(rlate BY T)")
    assert(v.columns.toSeq == Seq("C", "det"))
    assert(math.abs(v.collect().head.getDouble(1) + 26.0) < 1e-9)
  }

  test("unary op with two arguments is rejected") {
    val e = intercept[IllegalArgumentException] {
      RmaSql.sql(spark, "SELECT * FROM INV(r BY T, s BY m)")
    }
    assert(e.getMessage.contains("one argument"))
  }

  test("binary op with one argument is rejected") {
    val e = intercept[IllegalArgumentException] {
      RmaSql.sql(spark, "SELECT * FROM MMU(r BY T)")
    }
    assert(e.getMessage.contains("two arguments"))
  }

  test("missing BY keyword is rejected") {
    val e = intercept[IllegalArgumentException] {
      RmaSql.sql(spark, "SELECT * FROM INV(r T)")
    }
    assert(e.getMessage.contains("BY"))
  }

  test("trailing garbage after expr is rejected") {
    val e = intercept[IllegalArgumentException] {
      RmaSql.expr(spark, "DET(rlate BY T) nonsense")
    }
    assert(e.getMessage.contains("trailing"))
  }

  test("a syntax error is reported before any operator runs") {
    // INV(dup BY k) would fail with "not a key" if it were evaluated.
    val e = intercept[IllegalArgumentException] {
      RmaSql.expr(spark, "INV(dup BY k) nonsense")
    }
    assert(e.getMessage.contains("trailing"))
  }

  test("sql leaves no temp view behind and its result stays usable") {
    val before = tempViews()
    val v = RmaSql.sql(spark, "SELECT * FROM MMU(INV(rlate BY T) BY T, s BY m) WHERE x > 0")
    assert(tempViews() == before)
    val first = v.collect().toSeq
    assert(v.collect().toSeq == first)
    assert(v.count() == first.length)
  }

  test("a missing table is reported before any operator runs") {
    var e: AnalysisException = null
    val jobs = SparkJobs.count(spark) {
      e = intercept[AnalysisException] {
        RmaSql.sql(spark, "SELECT * FROM MMU(INV(rlate BY T) BY T, missing_tbl BY m)")
      }
    }
    assert(jobs == 0)
    assert(e.getMessage.contains("missing_tbl"))
  }

  test("the paper's OLS query splits each cached input once and nested results without a job") {
    // Cached x(k; x1, x2, x3) and y(k; y) with y = X·(1, -2, 0.5), keys stored out of order.
    val n = 40
    val x = spark.range(n).select(((col("id") * 7) % n).cast("int").as("k"),
      (col("id") % 5 + 1).cast("double").as("x1"), (col("id") * col("id") % 11).cast("double").as("x2"),
      (col("id") % 3 - col("id") / 7).cast("double").as("x3")).cache()
    val y = x.select(col("k"), (col("x1") - col("x2") * 2 + col("x3") * 0.5).as("y")).cache()
    x.count(); y.count()
    x.createOrReplaceTempView("olsx")
    y.createOrReplaceTempView("olsy")
    try {
      var beta: DataFrame = null
      val jobs = SparkJobs.count(spark) {
        beta = RmaSql.sql(spark,
          "SELECT * FROM MMU(INV(CPD(olsx BY k, olsx BY k) BY C) BY C, CPD(olsx BY k, olsy BY k) BY C)")
      }
      assert(jobs <= 2, "one job per distinct input (olsx, olsy), none for nested results")
      assertDfClose(beta, Seq(Seq("x1", 1.0), Seq("x2", -2.0), Seq("x3", 0.5)), 1e-8)
      assert(SparkJobs.count(spark) { Rma.cpd(x, Seq("k"), x, Seq("k")) } == 1)
    } finally {
      spark.catalog.dropTempView("olsx")
      spark.catalog.dropTempView("olsy")
      y.unpersist(); x.unpersist()
    }
  }

  test("nested element-wise SQL over op results runs no job beyond its table splits") {
    val (a, b) = (cachedCopy(spd), cachedCopy(sq))
    a.createOrReplaceTempView("ew_a")
    b.createOrReplaceTempView("ew_b")
    try {
      var sum: DataFrame = null
      val jobs = SparkJobs.count(spark) {
        sum = RmaSql.sql(spark, "SELECT * FROM ADD(INV(ew_a BY k) BY k, INV(ew_b BY k2) BY k2)")
      }
      assert(jobs == 2, "one job per cached table, none for the add of the nested results")
      val viaApi = Rma.add(Rma.inv(spd, Seq("k")), Seq("k"), Rma.inv(sq, Seq("k2")), Seq("k2"))
      assertDfClose(sum, viaApi.collect().map(_.toSeq).toSeq)
    } finally {
      Seq("ew_a", "ew_b").foreach(spark.catalog.dropTempView)
      a.unpersist(); b.unpersist()
    }
  }

  test("quotes and comments before FROM do not hide the RMA call") {
    Rma.inv(spd, Seq("k")).createOrReplaceTempView("inv_spd")
    Rma.mmu(spd, Seq("k"), sq, Seq("k2")).createOrReplaceTempView("mmu_spd_sq")
    try {
      // Each query and its plain counterpart over a view of the RMA call.
      for ((query, plain) <- Seq(
          """SELECT k, "(" AS p FROM INV(spd BY k)""",
          """SELECT k, "it's" AS p FROM INV(spd BY k)""",
          """SELECT k, 'it\'s (' AS p FROM INV(spd BY k)""",
          "SELECT k AS `a(b` FROM INV(spd BY k)",
          "SELECT k AS `from` FROM INV(spd BY k)",
          "SELECT k /* ( */ FROM INV(spd BY k)",
          "SELECT k -- from\nFROM INV(spd BY k)").map(q => q -> q.replace("INV(spd BY k)", "inv_spd")) ++ Seq(
          "SELECT * FROM INV(spd /* c */ BY k)" -> "SELECT * FROM inv_spd",
          "SELECT * FROM INV /* c */ (spd BY k)" -> "SELECT * FROM inv_spd",
          "SELECT * FROM MMU(spd BY k, -- c\nsq BY k2)" -> "SELECT * FROM mmu_spd_sq")) withClue(s"$query: ") {
        assertDfClose(RmaSql.sql(spark, query), spark.sql(plain).collect().map(_.toSeq).toSeq)
      }
    } finally Seq("inv_spd", "mmu_spd_sq").foreach(spark.catalog.dropTempView)
  }

  test("the operator API covers the whole operator table") {
    assert(api.keySet == Rma.all.map(_.name).toSet)
    assert(Rma.all.length == 19)
  }

  for (op <- Rma.all) {
    test(s"SQL and the operator API give the same relation: ${op.name}") {
      val args = Seq(spd -> Seq("k"), sq -> Seq("k2")).take(op.arity)
      val text = Seq("spd BY k", "sq BY k2").take(op.arity).mkString(s"${op.name.toUpperCase}(", ", ", ")")
      val viaSql = RmaSql.expr(spark, text)
      val viaApi = api(op.name)(args)
      assert(viaSql.columns.toSeq == viaApi.columns.toSeq)
      assertDfClose(viaSql, viaApi.collect().map(_.toSeq).toSeq)
    }
  }
}

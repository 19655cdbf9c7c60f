package perfbench

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, count, lit, sum}
import org.apache.spark.sql.types.{DoubleType, IntegerType, StructField, StructType}

import repro.core.{Constructors, Rma, RmaConfig, RmaSql}
import repro.core.Constructors.SplitRelation
import repro.matrix.ColMatrix

/** Seeded input generator. The program receives only the relations built
  * here, so the inputs do not drift when the repository's own generators
  * change. Every cell is a pure function of (seed, stream, key, column), so
  * executors generate the tuples in parallel and the driver can regenerate
  * any of them for a check.
  */
object Gen {

  /** SplitMix64's finaliser: a bijective 64-bit mixer. */
  def mix(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Uniform in [lo, hi), determined by (seed, stream, i, j). */
  def uniform(seed: Long, stream: Long, i: Int, j: Int, lo: Double, hi: Double): Double = {
    val h = mix(mix(mix(seed * 0x9E3779B97F4A7C15L + stream) + i) + j)
    lo + (hi - lo) * ((h >>> 11).toDouble / (1L << 53))
  }

  /** Key of the tuple stored at position p: a seeded permutation of
    * 0 until n, by cycle-walking a bijection on [0, 2^m).
    */
  def keyAt(p: Int, n: Int, seed: Long): Int = {
    val m = 64 - java.lang.Long.numberOfLeadingZeros(math.max(1L, n - 1L))
    val mask = (1L << m) - 1
    val shift = (m + 1) / 2
    val add = mix(seed)
    var x = p.toLong
    do {
      x = (x * 0x9E3779B97F4A7C15L + add) & mask
      x ^= x >>> shift
      x = (x * 0xD6E8FEB86659FD93L) & mask
      x ^= x >>> shift
    } while (x >= n)
    x.toInt
  }

  /** Attribute names that sort in schema order: x01…x10, c0001…c1000. */
  def names(prefix: String, k: Int): IndexedSeq[String] = {
    val width = math.max(2, k.toString.length)
    (1 to k).map(j => s"$prefix%0${width}d".format(j))
  }

  /** Relation (key, cols…) of n tuples; the tuple with key i holds
    * `values(i)`. Tuples are stored in a seeded random key order, so sorting
    * by the key does real work. Cached and materialised before it returns.
    */
  def relation(spark: SparkSession, key: String, cols: Seq[String], n: Int, seed: Long,
               partitions: Int)(values: Int => Array[Double]): DataFrame = {
    val schema = StructType(StructField(key, IntegerType, nullable = false) +:
      cols.map(StructField(_, DoubleType, nullable = false)))
    val rows = spark.sparkContext.range(0, n, 1, partitions).map { p =>
      val k = keyAt(p.toInt, n, seed)
      Row.fromSeq(k +: values(k).toSeq)
    }
    val df = spark.createDataFrame(rows, schema).cache()
    df.count()
    df
  }
}

/** A workload: its inputs, the query through the public RMA API, the same
  * query replayed as timed calls into each layer, and the result check.
  */
abstract class Workload {
  type Result
  def name: String

  /** Input shapes, for the provenance block. */
  def inputSize: String

  /** Application cells the query reads from its inputs (leaf operands). */
  def inputCells: Long

  /** Generate and cache the inputs and anything the check needs. */
  def setup(spark: SparkSession, seed: Long, partitions: Int): Unit

  /** The query as a user issues it: `Rma`/`RmaSql` plus Spark consumption. */
  def query(): Result

  /** The same query as the sequence of public layer calls it makes. */
  def replay(t: Tracer): Result

  def check(r: Result): Option[String]

  /** Traced runs only, outside any span: compare the replayed result with
    * the program's own path where the replay cannot call it directly.
    */
  def crossCheck(replayed: Result): Option[String] = None
}

object Workload {
  def byName(name: String): Workload = name match {
    case "qqr_tall" => new QqrTall
    case "ols_sql" => new OlsSql
    case "add_select" => new AddSelect
    case "inv_square" => new InvSquare
    case other => throw new IllegalArgumentException(s"unknown workload '$other'")
  }
}

/** The calls each `Rma` operator makes, one span per layer call. Mirrors
  * `repro.core.Rma` under `RmaConfig.default`, which is all the benchmark
  * runs.
  */
final class Replay(t: Tracer) {
  private val cfg = RmaConfig.default

  def split(df: DataFrame, u: Seq[String]): SplitRelation =
    t.spanCounting("constructors.collectSplit")((sp: SplitRelation) => Map("rows" -> sp.matrix.nRows.toDouble)) {
      Constructors.collectSplit(df, u, cfg.validateKeys, cfg.assumeSorted)
    }

  /** A backend call; `flops` is computed from the shapes by the textbook
    * count, not measured.
    */
  def kernel[T](op: String, flops: Double)(body: => T): T =
    t.spanCounting("matrix." + op)((_: T) => Map("flops" -> flops))(body)

  def withOrderPart(sp: SplitRelation, base: ColMatrix, names: Seq[String], spark: SparkSession): DataFrame =
    t.spanCounting("constructors.withOrderPart")((_: DataFrame) =>
      Map("cells" -> base.nRows.toDouble * (sp.orderFields.length + base.nCols))) {
      Constructors.withOrderPart(spark, sp.orderFields, sp.orderRows, base, names)
    }

  def withSchemaCast(cValues: Seq[String], base: ColMatrix, names: Seq[String], spark: SparkSession): DataFrame =
    t.spanCounting("constructors.withSchemaCast")((_: DataFrame) =>
      Map("cells" -> base.nRows.toDouble * (1 + base.nCols))) {
      Constructors.withSchemaCast(spark, cValues, base, names)
    }

  def consume[T](body: => T): T = t.span("spark.consume")(body)

  def qqr(r: DataFrame, u: Seq[String]): DataFrame = t.span("rma.qqr") {
    val sp = split(r, u)
    val (m, n) = (sp.matrix.nRows.toDouble, sp.matrix.nCols.toDouble)
    val q = kernel("qr", 4 * m * n * n - 4 * n * n * n / 3)(cfg.backend.qr(sp.matrix))._1
    withOrderPart(sp, q, sp.appCols, r.sparkSession)
  }

  def inv(r: DataFrame, u: Seq[String]): DataFrame = t.span("rma.inv") {
    val sp = split(r, u)
    require(sp.matrix.nRows == sp.matrix.nCols, "inv: application part must be square")
    val n = sp.matrix.nRows.toDouble
    withOrderPart(sp, kernel("inv", 2 * n * n * n)(cfg.backend.inv(sp.matrix)), sp.appCols, r.sparkSession)
  }

  def cpd(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String]): DataFrame = t.span("rma.cpd") {
    val spR = split(r, u)
    val spS = split(s, v)
    require(spR.matrix.nRows == spS.matrix.nRows, "cpd: row counts differ")
    val flops = 2.0 * spR.matrix.nRows * spR.matrix.nCols * spS.matrix.nCols
    withSchemaCast(spR.appCols, kernel("cpd", flops)(cfg.backend.cpd(spR.matrix, spS.matrix)),
      spS.appCols, r.sparkSession)
  }

  def mmu(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String]): DataFrame = t.span("rma.mmu") {
    val spR = split(r, u)
    val spS = split(s, v)
    require(spR.matrix.nCols == spS.matrix.nRows, "mmu: inner dimensions differ")
    val flops = 2.0 * spR.matrix.nRows * spR.matrix.nCols * spS.matrix.nCols
    withOrderPart(spR, kernel("mmu", flops)(cfg.backend.mmu(spR.matrix, spS.matrix)), spS.appCols, r.sparkSession)
  }

  def add(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String]): DataFrame = t.span("rma.add") {
    t.span("constructors.elementwiseDistributed") {
      Constructors.elementwiseDistributed(r, u, s, v, (a: Column, b: Column) => a + b,
        cfg.validateKeys, cfg.assumeSorted)
    }
  }
}

/** `Rma.qqr(r BY k)` on a tall relation; the consumer sums q² per column. */
final class QqrTall extends Workload {
  type Result = (Long, Array[Double])
  val name = "qqr_tall"
  val rows = 8000
  val cols = 40
  private val names = Gen.names("q", cols)
  private var r: DataFrame = _

  def inputSize = s"r: $rows x $cols (+ key k)"
  def inputCells: Long = rows.toLong * cols

  def setup(spark: SparkSession, seed: Long, partitions: Int): Unit = {
    val k = cols
    r = Gen.relation(spark, "k", names, rows, Gen.mix(seed) + 2, partitions)(i =>
      Array.tabulate(k)(j => Gen.uniform(seed, 1, i, j, -1, 1)))
  }

  private def consume(q: DataFrame): Result = {
    val row = q.agg(count(lit(1)), names.map(c => sum(col(c) * col(c))): _*).collect()(0)
    (row.getLong(0), Array.tabulate(cols)(j => row.getDouble(j + 1)))
  }

  def query(): Result = consume(Rma.qqr(r, Seq("k")))

  def replay(t: Tracer): Result = {
    val p = new Replay(t)
    val q = p.qqr(r, Seq("k"))
    p.consume(consume(q))
  }

  def check(res: Result): Option[String] = Checks.qqr(res._2, res._1, rows, cols)
}

/** The paper's OLS query through the SQL surface, on noise-free y = Xβ. */
final class OlsSql extends Workload {
  type Result = Map[String, Double]
  val name = "ols_sql"
  val rows = 20000
  val cols = 10
  val Query = "SELECT * FROM MMU(INV(CPD(x BY k, x BY k) BY C) BY C, CPD(x BY k, y BY k) BY C)"
  // x01…x10 sort in schema order, so INV(… BY C) keeps each row's label.
  private val names = Gen.names("x", cols)
  private var spark: SparkSession = _
  private var beta: Array[Double] = _

  def inputSize = s"x: $rows x $cols, y: $rows x 1 (+ key k)"
  // CPD(x, x) reads x twice, CPD(x, y) reads x and y.
  def inputCells: Long = rows.toLong * (3 * cols + 1)

  def setup(session: SparkSession, seed: Long, partitions: Int): Unit = {
    spark = session
    val k = cols
    val b = Array.tabulate(k)(j => Gen.uniform(seed, 2, 0, j, -2, 2))
    beta = b
    val x: Int => Array[Double] = i => Array.tabulate(k)(j => Gen.uniform(seed, 1, i, j, -1, 1))
    Gen.relation(spark, "k", names, rows, Gen.mix(seed) + 3, partitions)(x).createOrReplaceTempView("x")
    Gen.relation(spark, "k", Seq("y"), rows, Gen.mix(seed) + 4, partitions) { i =>
      val xi = x(i)
      Array((0 until k).map(j => xi(j) * b(j)).sum)
    }.createOrReplaceTempView("y")
  }

  private def consume(df: DataFrame): Result =
    df.collect().map(r => r.getString(0) -> r.getDouble(1)).toMap

  def query(): Result = consume(RmaSql.sql(spark, Query))

  def replay(t: Tracer): Result = {
    val p = new Replay(t)
    val out = t.span("sql.RmaSql") {
      // RmaSql evaluates the FROM clause innermost first, then runs the rest
      // of the statement over the result as a temp view.
      val x = spark.table("x")
      val y = spark.table("y")
      val xtx = p.cpd(x, Seq("k"), x, Seq("k"))
      val inv = p.inv(xtx, Seq("C"))
      val xty = p.cpd(x, Seq("k"), y, Seq("k"))
      val beta = p.mmu(inv, Seq("C"), xty, Seq("C"))
      beta.createOrReplaceTempView("__perfbench_ols")
      spark.sql("SELECT * FROM __perfbench_ols")
    }
    p.consume(consume(out))
  }

  def check(res: Result): Option[String] = Checks.ols(res, names, beta)

  override def crossCheck(replayed: Result): Option[String] = {
    // Only the program's own temp views count towards sql.views_registered.
    spark.catalog.dropTempView("__perfbench_ols")
    val real = query()
    if (real.keySet != replayed.keySet) Some(s"replay labels ${replayed.keySet} != query labels ${real.keySet}")
    else real.collectFirst {
      case (c, v) if math.abs(v - replayed(c)) > 1e-9 * math.max(1.0, math.abs(v)) =>
        s"replay $c = ${replayed(c)} != query $v"
    }
  }
}

/** Paper Table 7: `Rma.add(r BY k, s BY k2)`, a selection and a count, on
  * the distributed element-wise path.
  */
final class AddSelect extends Workload {
  type Result = Long
  val name = "add_select"
  val rows = 100000
  val cols = 10
  val threshold = 1.0
  private var r: DataFrame = _
  private var s: DataFrame = _
  private var expected = -1L

  def inputSize = s"r: $rows x $cols (+ key k), s: $rows x $cols (+ key k2)"
  def inputCells: Long = 2L * rows * cols

  def setup(spark: SparkSession, seed: Long, partitions: Int): Unit = {
    val k = cols
    r = Gen.relation(spark, "k", (1 to k).map(j => s"a$j"), rows, Gen.mix(seed) + 2, partitions)(i =>
      Array.tabulate(k)(j => Gen.uniform(seed, 1, i, j, 0, 1)))
    s = Gen.relation(spark, "k2", (1 to k).map(j => s"b$j"), rows, Gen.mix(seed) + 4, partitions)(i =>
      Array.tabulate(k)(j => Gen.uniform(seed, 3, i, j, 0, 1)))
    // Both keys are permutations of 0 until rows, so a key's rank is the key
    // itself and the rank join of `add` is this plain key join.
    expected = r.join(s, r("k") === s("k2")).filter(r("a1") + s("b1") > threshold).count()
  }

  private def consume(df: DataFrame): Result = df.filter(col("a1") > threshold).count()

  def query(): Result = consume(Rma.add(r, Seq("k"), s, Seq("k2")))

  def replay(t: Tracer): Result = {
    val p = new Replay(t)
    val sum = p.add(r, Seq("k"), s, Seq("k2"))
    p.consume(consume(sum))
  }

  def check(res: Result): Option[String] = Checks.count(res, expected)
}

/** `Rma.inv(r BY k)` on a square relation, consumed by `collect()`. */
final class InvSquare extends Workload {
  type Result = Array[Array[Double]]
  val name = "inv_square"
  val n = 500
  private var r: DataFrame = _
  private var a: Array[Array[Double]] = _
  private var sampled: Seq[Int] = Nil

  def inputSize = s"r: $n x $n (+ key k)"
  def inputCells: Long = n.toLong * n

  def setup(spark: SparkSession, seed: Long, partitions: Int): Unit = {
    // Diagonally dominant, so the inverse is well conditioned.
    val m = n
    val row: Int => Array[Double] = i =>
      Array.tabulate(m)(j => Gen.uniform(seed, 1, i, j, -1, 1) + (if (i == j) m else 0))
    a = Array.tabulate(m)(row)
    sampled = Seq.tabulate(4)(t => (Gen.uniform(seed, 3, t, 0, 0, 1) * m).toInt)
    r = Gen.relation(spark, "k", Gen.names("c", m), m, Gen.mix(seed) + 2, partitions)(row)
  }

  private def consume(df: DataFrame): Result = {
    val x = new Array[Array[Double]](n)
    df.collect().foreach(row => x(row.getInt(0)) = Array.tabulate(n)(j => row.getDouble(j + 1)))
    x
  }

  def query(): Result = consume(Rma.inv(r, Seq("k")))

  def replay(t: Tracer): Result = {
    val p = new Replay(t)
    val x = p.inv(r, Seq("k"))
    p.consume(consume(x))
  }

  def check(x: Result): Option[String] = Checks.inverse(a, x, sampled)
}

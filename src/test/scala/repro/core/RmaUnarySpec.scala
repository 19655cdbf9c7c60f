package repro.core

import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DoubleType, StringType}

import repro.matrix.{BreezeBackend, ColMatrix, Kernels}

/** Unary relational matrix operations: schemas, values, and contextual
  * information per paper Table 2.
  */
class RmaUnarySpec extends RmaFixtures {
  import repro.matrix.MatrixTestUtil._

  private val bat = RmaConfig(backend = Kernels)

  // ------------------------------------------------------------------ inv

  test("inv: paper Figure 3 example — values and schema") {
    val v = Rma.inv(weatherLate, Seq("T"))
    assert(v.columns.toSeq == Seq("T", "H", "W"))
    assertDfClose(v, Seq(
      Seq("7am", -5.0 / 26, 7.0 / 26),
      Seq("8am", 8.0 / 26, -6.0 / 26)))
  }

  test("inv: input row order is irrelevant (set semantics)") {
    val shuffled = weatherLate.orderBy(col("W"))
    val a = Rma.inv(weatherLate, Seq("T")).collect().map(_.toSeq).toSet
    val b = Rma.inv(shuffled, Seq("T")).collect().map(_.toSeq).toSet
    assert(a == b)
  }

  test("inv: both backends give the same relation (up to fp rounding)") {
    val a = collectMatrix(Rma.inv(weatherLate, Seq("T")), Seq("T"))
    val b = collectMatrix(Rma.inv(weatherLate, Seq("T"), bat), Seq("T"))
    assertClose(a, b, 1e-12)
  }

  test("inv: rejects non-square application part") {
    val e = intercept[IllegalArgumentException] { Rma.inv(weather, Seq("T")) }
    assert(e.getMessage.contains("square"))
  }

  test("inv is an involution at the relational level") {
    val once = Rma.inv(weatherLate, Seq("T"))
    val twice = Rma.inv(once, Seq("T"))
    val m = collectMatrix(twice, Seq("T"))
    assertClose(m, collectMatrix(weatherLate, Seq("T")), 1e-9)
  }

  // ------------------------------------------------------------------ qqr

  test("qqr: schema keeps order and application attributes (shape (r1,c1))") {
    val q = Rma.qqr(weather, Seq("T"))
    assert(q.columns.toSeq == Seq("T", "H", "W"))
    assert(q.count() == 4)
  }

  test("qqr: result is the canonical Q of the sorted application part") {
    val q = collectMatrix(Rma.qqr(weather, Seq("T")), Seq("T"))
    val expected = Kernels.qr(collectMatrix(weather, Seq("T")))._1
    assertClose(q, expected, 1e-9)
  }

  test("qqr with multi-attribute order schema") {
    val q = Rma.qqr(weather, Seq("W", "T"))
    assert(q.columns.toSeq == Seq("W", "T", "H"))
    assert(q.count() == 4)
  }

  // ------------------------------------------------------------------ rqr

  test("rqr: schema is (C) + application attributes (shape (c1,c1))") {
    val r = Rma.rqr(weather, Seq("T"))
    assert(r.columns.toSeq == Seq("C", "H", "W"))
    assert(r.select("C").collect().map(_.getString(0)).toSet == Set("H", "W"))
  }

  test("rqr: Q times R reconstructs the sorted application part") {
    val q = collectMatrix(Rma.qqr(weather, Seq("T")), Seq("T"))
    val r = collectMatrix(Rma.rqr(weather, Seq("T")), Seq("C"))
    // C values H,W sort alphabetically to the application order here
    assertClose(Kernels.mmu(q, r), collectMatrix(weather, Seq("T")), 1e-9)
  }

  // ------------------------------------------------------------------ tra

  test("tra: paper Figure 4b example") {
    val t = Rma.tra(weather, Seq("T"))
    assert(t.columns.toSeq == Seq("C", "5am", "6am", "7am", "8am"))
    assertDfClose(t, Seq(
      Seq("H", 1.0, 1.0, 6.0, 8.0),
      Seq("W", 3.0, 4.0, 7.0, 5.0)))
  }

  test("tra twice returns the original data (paper Example 6.9)") {
    val t2 = Rma.tra(Rma.tra(weather, Seq("T")), Seq("C"))
    assert(t2.columns.toSeq == Seq("C", "H", "W"))
    assertDfClose(t2, Seq(
      Seq("5am", 1.0, 3.0), Seq("6am", 1.0, 4.0), Seq("7am", 6.0, 7.0), Seq("8am", 8.0, 5.0)))
  }

  test("tra requires a single-attribute order schema") {
    val e = intercept[IllegalArgumentException] { Rma.tra(weather, Seq("T", "H")) }
    assert(e.getMessage.contains("single order attribute"))
  }

  // ------------------------------------------------------------------ det / rnk

  test("det: scalar relation with schema (C, det)") {
    val d = Rma.det(weatherLate, Seq("T"))
    assert(d.columns.toSeq == Seq("C", "det"))
    val row = d.collect().head
    assert(row.getString(0) == "det")
    assert(math.abs(row.getDouble(1) - (-26.0)) < 1e-9)
  }

  test("rnk: full-rank weather application part") {
    val r = Rma.rnk(weather, Seq("T"))
    assert(r.columns.toSeq == Seq("C", "rnk"))
    assert(r.collect().head.getDouble(1) == 2.0)
  }

  test("rnk of a rank-deficient relation") {
    val df = makeDf(
      Seq("k" -> org.apache.spark.sql.types.StringType,
        "a" -> org.apache.spark.sql.types.DoubleType,
        "b" -> org.apache.spark.sql.types.DoubleType),
      Seq(Seq("r1", 1.0, 2.0), Seq("r2", 2.0, 4.0), Seq("r3", 3.0, 6.0)))
    assert(Rma.rnk(df, Seq("k")).collect().head.getDouble(1) == 1.0)
  }

  // ------------------------------------------------------------------ evl / evc

  test("evl: eigenvalues of a symmetric relation, descending, named 'evl'") {
    val df = makeDf(
      Seq("k" -> org.apache.spark.sql.types.StringType,
        "a" -> org.apache.spark.sql.types.DoubleType,
        "b" -> org.apache.spark.sql.types.DoubleType),
      Seq(Seq("r1", 2.0, 1.0), Seq("r2", 1.0, 2.0)))
    val e = Rma.evl(df, Seq("k"))
    assert(e.columns.toSeq == Seq("k", "evl"))
    val vals = e.orderBy("k").collect().map(_.getDouble(1)).toSeq
    assert(math.abs(vals(0) - 3.0) < 1e-9 && math.abs(vals(1) - 1.0) < 1e-9)
  }

  test("evc: eigenvector relation keeps order and application schema") {
    val df = makeDf(
      Seq("k" -> org.apache.spark.sql.types.StringType,
        "a" -> org.apache.spark.sql.types.DoubleType,
        "b" -> org.apache.spark.sql.types.DoubleType),
      Seq(Seq("r1", 2.0, 1.0), Seq("r2", 1.0, 2.0)))
    val e = Rma.evc(df, Seq("k"))
    assert(e.columns.toSeq == Seq("k", "a", "b"))
    val m = collectMatrix(e, Seq("k"))
    // lambda=3 -> (1,1)/sqrt(2); lambda=1 -> (1,-1)/sqrt(2) after sign canon
    val s = 1 / math.sqrt(2)
    assertClose(m, ColMatrix.fromRows(Seq(Seq(s, s), Seq(s, -s))), 1e-9)
  }

  test("evc rejects an asymmetric application part") {
    val e = intercept[IllegalArgumentException] { Rma.evc(weatherLate, Seq("T")) }
    assert(e.getMessage.contains("symmetric"))
  }

  // ------------------------------------------------------------------ chf

  test("chf: Cholesky factor relation, R^T R = A") {
    val df = makeDf(
      Seq("k" -> org.apache.spark.sql.types.StringType,
        "a" -> org.apache.spark.sql.types.DoubleType,
        "b" -> org.apache.spark.sql.types.DoubleType),
      Seq(Seq("r1", 4.0, 2.0), Seq("r2", 2.0, 3.0)))
    val c = Rma.chf(df, Seq("k"))
    assert(c.columns.toSeq == Seq("k", "a", "b"))
    val r = collectMatrix(c, Seq("k"))
    assertClose(Kernels.cpd(r, r), ColMatrix.fromRows(Seq(Seq(4.0, 2.0), Seq(2.0, 3.0))), 1e-9)
  }

  // ------------------------------------------------------------------ SVD family

  test("dsv: diagonal matrix of singular values with schema (C, app)") {
    val d = Rma.dsv(weather, Seq("T"))
    assert(d.columns.toSeq == Seq("C", "H", "W"))
    val m = collectMatrix(d, Seq("C"))
    val (_, s, _) = Kernels.svd(collectMatrix(weather, Seq("T")))
    // diagonal, descending
    assert(math.abs(m(0, 0) - s(0)) < 1e-9 && math.abs(m(1, 1) - s(1)) < 1e-9)
    assert(m(0, 1) == 0.0 && m(1, 0) == 0.0)
  }

  test("vsv: right singular vectors with schema (C, app)") {
    val v = Rma.vsv(weather, Seq("T"))
    assert(v.columns.toSeq == Seq("C", "H", "W"))
    val m = collectMatrix(v, Seq("C"))
    val (_, _, vk) = Kernels.svd(collectMatrix(weather, Seq("T")))
    assertClose(m, vk, 1e-9)
  }

  test("usv: full U with columns named by sorted key values (shape (r1,r1))") {
    val u = Rma.usv(weather, Seq("T"))
    assert(u.columns.toSeq == Seq("T", "5am", "6am", "7am", "8am"))
    val m = collectMatrix(u, Seq("T"))
    assert(m.nRows == 4 && m.nCols == 4)
    assert(isOrthonormalCols(m, 1e-8))
    // first two columns are the thin U of the application part
    val (uThin, _, _) = Kernels.svd(collectMatrix(weather, Seq("T")))
    for (i <- 0 until 4; j <- 0 until 2)
      assert(math.abs(m(i, j) - uThin(i, j)) < 1e-8)
  }

  test("usv * dsv * tra(vsv) reconstructs the application part") {
    val uF = collectMatrix(Rma.usv(weather, Seq("T")), Seq("T"))
    val d = collectMatrix(Rma.dsv(weather, Seq("T")), Seq("C"))
    val v = collectMatrix(Rma.vsv(weather, Seq("T")), Seq("C"))
    val uThin = new ColMatrix(uF.cols.take(2), 4)
    val rec = Kernels.mmu(Kernels.mmu(uThin, d), Kernels.tra(v))
    assertClose(rec, collectMatrix(weather, Seq("T")), 1e-8)
  }

  /** Two tuples and four application attributes. */
  private lazy val wide = makeDf(("k" -> StringType) +: (0 until 4).map(j => s"a$j" -> DoubleType),
    Seq(Seq("r1", 1.0, -3.0, 0.0, 2.0), Seq("r2", 4.0, 1.0, 2.0, -1.0)))

  test("usv of a relation with fewer tuples than attributes is the same relation on both backends") {
    val u = Seq(Kernels, BreezeBackend).map(b => Rma.usv(wide, Seq("k"), RmaConfig(backend = b)))
    assert(u.map(_.columns.toSeq).distinct == Seq(Seq("k", "r1", "r2")))
    assertDfClose(u(0), u(1).collect().map(_.toSeq).toSeq, 1e-9)
  }

  test("dsv and vsv of a relation with fewer tuples than attributes are square (shape (c1,c1))") {
    val a = collectMatrix(wide, Seq("k"))
    for (backend <- Seq(Kernels, BreezeBackend)) withClue(s"${backend.name}: ") {
      val cfg = RmaConfig(backend = backend)
      val d = collectMatrix(Rma.dsv(wide, Seq("k"), cfg), Seq("C"))
      val v = collectMatrix(Rma.vsv(wide, Seq("k"), cfg), Seq("C"))
      val u = collectMatrix(Rma.usv(wide, Seq("k"), cfg), Seq("k"))
      assert((d.nRows, d.nCols, v.nRows, v.nCols) == ((4, 4, 4, 4)))
      assertClose(d, ColMatrix.diag(backend.svd(a)._2 ++ Array(0.0, 0.0)), 1e-9)
      assert(isOrthonormalCols(v, 1e-9))
      // U times the first two rows of diag(sigma, 0, 0) times V^T is the input.
      val dTop = new ColMatrix(d.cols.map(_.take(2)), 2)
      assertClose(Kernels.mmu(Kernels.mmu(u, dTop), Kernels.tra(v)), a, 1e-9)
    }
  }

  // ------------------------------------------------------------------ sorting

  test("pre-sorted input gives the same result") {
    val sorted = weatherLate.orderBy("T")
    val a = Rma.inv(sorted, Seq("T")).collect().map(_.toSeq).toSet
    val b = Rma.inv(weatherLate, Seq("T")).collect().map(_.toSeq).toSet
    assert(a == b)
  }
}

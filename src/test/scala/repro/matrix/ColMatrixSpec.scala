package repro.matrix

import org.scalatest.funsuite.AnyFunSuite

class ColMatrixSpec extends AnyFunSuite {
  import MatrixTestUtil._

  test("fromRows round-trips through apply") {
    val m = ColMatrix.fromRows(Seq(Seq(1.0, 2.0, 3.0), Seq(4.0, 5.0, 6.0)))
    assert(m.nRows == 2 && m.nCols == 3)
    assert(m(0, 0) == 1.0 && m(0, 2) == 3.0 && m(1, 1) == 5.0)
  }

  test("row extracts a row") {
    val m = ColMatrix.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    assert(m.row(1).toSeq == Seq(3.0, 4.0))
  }

  test("transpose swaps dimensions and elements") {
    val m = ColMatrix.fromRows(Seq(Seq(1.0, 2.0, 3.0), Seq(4.0, 5.0, 6.0)))
    val t = m.transpose
    assert(t.nRows == 3 && t.nCols == 2)
    assert(t(0, 1) == 4.0 && t(2, 0) == 3.0)
  }

  test("double transpose is identity") {
    val m = rnd(5, 3, 42)
    assertClose(m.transpose.transpose, m, 0.0)
  }

  test("identity has ones on the diagonal") {
    val id = ColMatrix.identity(4)
    for (i <- 0 until 4; j <- 0 until 4)
      assert(id(i, j) == (if (i == j) 1.0 else 0.0))
  }

  test("diag builds a diagonal matrix") {
    val d = ColMatrix.diag(Array(1.0, 2.0, 3.0))
    assert(d(0, 0) == 1.0 && d(1, 1) == 2.0 && d(2, 2) == 3.0 && d(0, 1) == 0.0)
  }

  test("zeros has the requested shape") {
    val z = ColMatrix.zeros(3, 7)
    assert(z.nRows == 3 && z.nCols == 7)
    assert(z.cols.forall(_.forall(_ == 0.0)))
  }

  test("zero-column matrix keeps its row count") {
    val m = ColMatrix.zeros(5, 0)
    assert(m.nRows == 5 && m.nCols == 0)
  }

  test("copy is deep") {
    val m = rnd(3, 3, 1)
    val c = m.copy()
    c.cols(0)(0) += 1.0
    assert(m(0, 0) != c(0, 0))
  }

  test("maxAbsDiff is infinity for shape mismatch") {
    assert(rnd(2, 2, 1).maxAbsDiff(rnd(3, 2, 1)).isInfinity)
  }

  test("fromVector builds a single-column matrix") {
    val v = ColMatrix.fromVector(Array(1.0, 2.0))
    assert(v.nRows == 2 && v.nCols == 1 && v(1, 0) == 2.0)
  }

  test("ragged columns are rejected") {
    intercept[IllegalArgumentException] {
      new ColMatrix(Array(Array(1.0, 2.0), Array(1.0)))
    }
  }
}

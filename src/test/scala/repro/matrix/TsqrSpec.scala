package repro.matrix

import org.scalatest.funsuite.AnyFunSuite

/** The multi-threaded TSQR path of the Breeze backend (taken for tall
  * matrices) must produce the same canonical factors as the plain paths.
  */
class TsqrSpec extends AnyFunSuite {
  import MatrixTestUtil._

  test("tsqr path agrees with the columnar Gram-Schmidt on a tall matrix") {
    val a = rnd(100000, 6, 42, scale = 3.0) // above the 65536-row TSQR cutoff
    val (q1, r1) = BreezeBackend.qr(a)
    val (q2, r2) = Kernels.qr(a)
    assertClose(r1, r2, 1e-7, "R")
    assertClose(q1, q2, 1e-7, "Q")
  }

  test("tsqr reconstructs A = Q*R with orthonormal Q") {
    val a = rnd(80000, 10, 7, scale = 2.0)
    val (q, r) = BreezeBackend.qr(a)
    assert(isOrthonormalCols(q, 1e-8))
    assert(isUpperTriangular(r))
    assert((0 until r.nCols).forall(j => r(j, j) >= 0))
    assertClose(Kernels.mmu(q, r), a, 1e-8)
  }

  test("tsqr handles a block-count edge (rows just above the cutoff)") {
    val a = rnd(65537, 3, 9)
    val (q, r) = BreezeBackend.qr(a)
    assertClose(Kernels.mmu(q, r), a, 1e-8)
  }

  test("tsqr rejects a rank-deficient matrix in the columnar kernel's words") {
    val a = rnd(70000, 2, 5)
    val deficient = new ColMatrix(a.cols :+ Array.tabulate(a.nRows)(i => a(i, 0) + a(i, 1)), a.nRows)
    val why = Seq(BreezeBackend, Kernels).map { b =>
      intercept[IllegalArgumentException] { b.qr(deficient) }.getMessage
    }
    assert(why.distinct == Seq("requirement failed: column 2 is linearly dependent (rank-deficient input)"))
  }

  test("plain path still used for small matrices") {
    val a = rnd(100, 5, 11)
    val (q, r) = BreezeBackend.qr(a)
    assertClose(Kernels.mmu(q, r), a, 1e-9)
  }
}

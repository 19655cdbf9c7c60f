package repro.matrix

import org.scalatest.funsuite.AnyFunSuite

/** Unit and property-style tests for the from-scratch columnar kernels. */
class KernelsSpec extends AnyFunSuite {
  import MatrixTestUtil._

  // ------------------------------------------------------------- elementwise

  test("add on a known example") {
    val a = ColMatrix.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    val b = ColMatrix.fromRows(Seq(Seq(10.0, 20.0), Seq(30.0, 40.0)))
    assertClose(Kernels.add(a, b), ColMatrix.fromRows(Seq(Seq(11.0, 22.0), Seq(33.0, 44.0))), 0.0)
  }

  test("sub is inverse of add") {
    val a = rnd(6, 4, 1); val b = rnd(6, 4, 2)
    assertClose(Kernels.sub(Kernels.add(a, b), b), a, 1e-12)
  }

  test("emu on a known example") {
    val a = ColMatrix.fromRows(Seq(Seq(2.0, 3.0)))
    val b = ColMatrix.fromRows(Seq(Seq(5.0, -1.0)))
    assertClose(Kernels.emu(a, b), ColMatrix.fromRows(Seq(Seq(10.0, -3.0))), 0.0)
  }

  test("elementwise ops reject shape mismatches") {
    intercept[IllegalArgumentException] { Kernels.add(rnd(2, 2, 1), rnd(3, 2, 1)) }
    intercept[IllegalArgumentException] { Kernels.emu(rnd(2, 2, 1), rnd(2, 3, 1)) }
  }

  // ------------------------------------------------------- multiplication

  test("mmu on a known example") {
    val a = ColMatrix.fromRows(Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
    val b = ColMatrix.fromRows(Seq(Seq(5.0, 6.0), Seq(7.0, 8.0)))
    assertClose(Kernels.mmu(a, b), ColMatrix.fromRows(Seq(Seq(19.0, 22.0), Seq(43.0, 50.0))), 1e-12)
  }

  test("mmu with identity is a no-op") {
    val a = rnd(5, 5, 3)
    assertClose(Kernels.mmu(a, ColMatrix.identity(5)), a, 1e-12)
    assertClose(Kernels.mmu(ColMatrix.identity(5), a), a, 1e-12)
  }

  test("mmu rejects inner-dimension mismatch") {
    intercept[IllegalArgumentException] { Kernels.mmu(rnd(2, 3, 1), rnd(2, 3, 1)) }
  }

  for (seed <- 1 to 5)
    test(s"mmu is associative (seed=$seed)") {
      val a = rnd(4, 3, seed); val b = rnd(3, 5, seed + 10); val c = rnd(5, 2, seed + 20)
      assertClose(Kernels.mmu(Kernels.mmu(a, b), c), Kernels.mmu(a, Kernels.mmu(b, c)), 1e-10)
    }

  test("cpd equals tra-then-mmu") {
    val a = rnd(6, 3, 4); val b = rnd(6, 4, 5)
    assertClose(Kernels.cpd(a, b), Kernels.mmu(Kernels.tra(a), b), 1e-10)
  }

  test("opd equals mmu-with-transpose") {
    val a = rnd(4, 3, 6); val b = rnd(5, 3, 7)
    assertClose(Kernels.opd(a, b), Kernels.mmu(a, Kernels.tra(b)), 1e-10)
  }

  test("opd of two vectors is the classic outer product") {
    val x = ColMatrix.fromVector(Array(1.0, 2.0))
    val y = ColMatrix.fromVector(Array(3.0, 4.0, 5.0))
    assertClose(Kernels.opd(x, y),
      ColMatrix.fromRows(Seq(Seq(3.0, 4.0, 5.0), Seq(6.0, 8.0, 10.0))), 1e-12)
  }

  test("tra swaps rows and columns") {
    val a = ColMatrix.fromRows(Seq(Seq(1.0, 2.0, 3.0), Seq(4.0, 5.0, 6.0)))
    assertClose(Kernels.tra(a),
      ColMatrix.fromRows(Seq(Seq(1.0, 4.0), Seq(2.0, 5.0), Seq(3.0, 6.0))), 0.0)
  }

  // ------------------------------------------------------------- inversion

  test("inv of the paper's Figure 3 matrix") {
    // sigma_{T>6am}(r) sorted by T: rows (6,7), (8,5); inverse from the paper
    // is [[-0.19, 0.27], [0.31, -0.23]] (rounded).
    val n = ColMatrix.fromRows(Seq(Seq(6.0, 7.0), Seq(8.0, 5.0)))
    val h = Kernels.inv(n)
    assertClose(h, ColMatrix.fromRows(Seq(
      Seq(-5.0 / 26, 7.0 / 26), Seq(8.0 / 26, -6.0 / 26))), 1e-12)
  }

  test("inv of identity is identity") {
    assertClose(Kernels.inv(ColMatrix.identity(5)), ColMatrix.identity(5), 1e-12)
  }

  for (seed <- 1 to 8; n <- Seq(1, 2, 5, 9))
    test(s"inv satisfies A*inv(A)=I (n=$n seed=$seed)") {
      val a = rndNonsingular(n, seed * 100 + n)
      val ai = Kernels.inv(a)
      assertClose(Kernels.mmu(a, ai), ColMatrix.identity(n), 1e-8)
      assertClose(Kernels.mmu(ai, a), ColMatrix.identity(n), 1e-8)
    }

  test("inv needs pivoting for a zero diagonal") {
    val a = ColMatrix.fromRows(Seq(Seq(0.0, 1.0), Seq(1.0, 0.0)))
    assertClose(Kernels.inv(a), a, 1e-12) // permutation is its own inverse
  }

  test("inv rejects a singular matrix") {
    intercept[IllegalArgumentException] {
      Kernels.inv(ColMatrix.fromRows(Seq(Seq(1.0, 2.0), Seq(2.0, 4.0))))
    }
  }

  test("inv rejects non-square input") {
    intercept[IllegalArgumentException] { Kernels.inv(rnd(3, 2, 1)) }
  }

  // ------------------------------------------------------------------- QR

  for (seed <- 1 to 8; shape <- Seq((5, 3), (4, 4), (10, 2)))
    test(s"qr reconstructs A with orthonormal Q, upper R (${shape._1}x${shape._2} seed=$seed)") {
      val a = rnd(shape._1, shape._2, seed * 7 + shape._2, scale = 5.0)
      val (q, r) = Kernels.qr(a)
      assert(isOrthonormalCols(q), "Q columns not orthonormal")
      assert(isUpperTriangular(r), "R not upper triangular")
      assert((0 until r.nCols).forall(j => r(j, j) >= 0), "R diagonal not canonical")
      assertClose(Kernels.mmu(q, r), a, 1e-8)
    }

  test("qr rejects wide matrices") {
    intercept[IllegalArgumentException] { Kernels.qr(rnd(2, 4, 1)) }
  }

  test("qr rejects rank-deficient input") {
    val a = ColMatrix.fromRows(Seq(Seq(1.0, 2.0), Seq(2.0, 4.0), Seq(3.0, 6.0)))
    intercept[IllegalArgumentException] { Kernels.qr(a) }
  }

  // ------------------------------------------------------------- Cholesky

  for (seed <- 1 to 6)
    test(s"chol satisfies A = R^T R with upper R (seed=$seed)") {
      val a = rndSpd(4 + seed % 3, seed)
      val r = Kernels.chf(a)
      assert(isUpperTriangular(r), "R not upper triangular")
      assertClose(Kernels.cpd(r, r), a, 1e-8) // R^T R = A
    }

  test("chol of identity is identity") {
    assertClose(Kernels.chf(ColMatrix.identity(4)), ColMatrix.identity(4), 1e-12)
  }

  test("chol rejects non-positive-definite input") {
    intercept[IllegalArgumentException] {
      Kernels.chf(ColMatrix.fromRows(Seq(Seq(1.0, 2.0), Seq(2.0, 1.0))))
    }
  }

  test("chol rejects asymmetric input") {
    intercept[IllegalArgumentException] {
      Kernels.chf(ColMatrix.fromRows(Seq(Seq(1.0, 2.0), Seq(0.0, 1.0))))
    }
  }

  // ----------------------------------------------------------- determinant

  test("det of a 2x2 matrix") {
    assert(math.abs(Kernels.det(ColMatrix.fromRows(Seq(Seq(6.0, 7.0), Seq(8.0, 5.0)))) - (-26.0)) < 1e-12)
  }

  test("det of identity is 1") {
    assert(Kernels.det(ColMatrix.identity(6)) == 1.0)
  }

  test("det of a singular matrix is 0") {
    assert(Kernels.det(ColMatrix.fromRows(Seq(Seq(1.0, 2.0), Seq(2.0, 4.0)))) == 0.0)
  }

  test("det of a triangular matrix is the diagonal product") {
    val t = ColMatrix.fromRows(Seq(Seq(2.0, 5.0, 1.0), Seq(0.0, 3.0, 7.0), Seq(0.0, 0.0, 4.0)))
    assert(math.abs(Kernels.det(t) - 24.0) < 1e-12)
  }

  for (seed <- 1 to 5)
    test(s"det is multiplicative (seed=$seed)") {
      val a = rndNonsingular(4, seed); val b = rndNonsingular(4, seed + 50)
      val lhs = Kernels.det(Kernels.mmu(a, b))
      val rhs = Kernels.det(a) * Kernels.det(b)
      assert(math.abs(lhs - rhs) / math.abs(rhs) < 1e-9, s"$lhs vs $rhs")
    }

  test("det of chol factor squared equals det of SPD matrix") {
    val a = rndSpd(5, 77)
    val r = Kernels.chf(a)
    val dr = Kernels.det(r)
    assert(math.abs(dr * dr - Kernels.det(a)) < 1e-6 * math.abs(Kernels.det(a)) + 1e-12)
  }

  // --------------------------------------------------------------- eigen

  test("eigSym on a known 2x2 example") {
    val a = ColMatrix.fromRows(Seq(Seq(2.0, 1.0), Seq(1.0, 2.0)))
    val (w, v) = Kernels.eig(a)
    assertCloseArr(w, Array(3.0, 1.0), 1e-10)
    // eigenvector for lambda=3 is (1,1)/sqrt(2) with positive canonical sign
    assert(math.abs(v(0, 0) - 1 / math.sqrt(2)) < 1e-10)
    assert(math.abs(v(1, 0) - 1 / math.sqrt(2)) < 1e-10)
  }

  for (seed <- 1 to 6; n <- Seq(2, 4, 7))
    test(s"eigSym satisfies A v = lambda v (n=$n seed=$seed)") {
      val a = rndSym(n, seed * 13 + n)
      val (w, v) = Kernels.eig(a)
      assert(w.sliding(2).forall(p => p.length < 2 || p(0) >= p(1) - 1e-12), "not descending")
      assert(isOrthonormalCols(v, 1e-8), "eigenvectors not orthonormal")
      val av = Kernels.mmu(a, v)
      val vl = Kernels.mmu(v, ColMatrix.diag(w))
      assertClose(av, vl, 1e-7)
    }

  test("eigSym eigenvalues sum to the trace") {
    val a = rndSym(5, 99)
    val (w, _) = Kernels.eig(a)
    val trace = (0 until 5).map(i => a(i, i)).sum
    assert(math.abs(w.sum - trace) < 1e-8)
  }

  test("eigSym rejects asymmetric input") {
    intercept[IllegalArgumentException] {
      Kernels.eig(ColMatrix.fromRows(Seq(Seq(1.0, 2.0), Seq(0.0, 1.0))))
    }
  }

  // ----------------------------------------------------------------- SVD

  for (seed <- 1 to 6; shape <- Seq((6, 3), (4, 4), (3, 5)))
    test(s"svd reconstructs A = U S V^T (${shape._1}x${shape._2} seed=$seed)") {
      val a = rnd(shape._1, shape._2, seed * 31 + shape._1, scale = 3.0)
      val (u, s, v) = Kernels.svd(a)
      val minDim = math.min(shape._1, shape._2)
      assert(s.length == minDim)
      assert(s.sliding(2).forall(p => p.length < 2 || p(0) >= p(1) - 1e-12), "not descending")
      assert(s.forall(_ >= 0), "negative singular value")
      assert(isOrthonormalCols(u, 1e-8), "U not orthonormal")
      assert(isOrthonormalCols(v, 1e-8), "V not orthonormal")
      val rec = Kernels.mmu(Kernels.mmu(u, ColMatrix.diag(s)), Kernels.tra(v))
      assertClose(rec, a, 1e-8)
    }

  test("svd singular values of a diagonal matrix") {
    val a = ColMatrix.diag(Array(3.0, 1.0, 2.0))
    val (_, s, _) = Kernels.svd(a)
    assertCloseArr(s, Array(3.0, 2.0, 1.0), 1e-10)
  }

  test("svd of a rank-1 matrix has one nonzero singular value") {
    val a = Kernels.opd(ColMatrix.fromVector(Array(1.0, 2.0, 3.0)),
      ColMatrix.fromVector(Array(4.0, 5.0)))
    val (_, s, _) = Kernels.svd(a)
    assert(s(0) > 1e-8 && s(1) < 1e-8)
  }

  test("svdFullU is square and orthonormal") {
    val a = rnd(6, 2, 123)
    val uf = Kernels.completeToSquare(Kernels.svd(a)._1)
    assert(uf.nRows == 6 && uf.nCols == 6)
    assert(isOrthonormalCols(uf, 1e-8))
  }

  test("svd frobenius norm identity") {
    val a = rnd(5, 4, 321)
    val (_, s, _) = Kernels.svd(a)
    val frob2 = a.cols.map(_.map(x => x * x).sum).sum
    assert(math.abs(s.map(x => x * x).sum - frob2) < 1e-8)
  }

  // ----------------------------------------------------------------- rank

  test("rank of identity is n") { assert(Kernels.rnk(ColMatrix.identity(4)) == 4) }

  test("rank of a rank-1 matrix is 1") {
    val a = Kernels.opd(ColMatrix.fromVector(Array(1.0, 2.0)), ColMatrix.fromVector(Array(3.0, 4.0, 5.0)))
    assert(Kernels.rnk(a) == 1)
  }

  test("rank of zero matrix is 0") { assert(Kernels.rnk(ColMatrix.zeros(3, 3)) == 0) }

  for (seed <- 1 to 4)
    test(s"rank of a random full-rank matrix (seed=$seed)") {
      assert(Kernels.rnk(rnd(6, 4, seed * 17)) == 4)
    }

  // ---------------------------------------------------------------- solve

  test("solve on a known square system") {
    val a = ColMatrix.fromRows(Seq(Seq(2.0, 0.0), Seq(0.0, 4.0)))
    val b = ColMatrix.fromVector(Array(6.0, 8.0))
    assertClose(Kernels.sol(a, b), ColMatrix.fromVector(Array(3.0, 2.0)), 1e-12)
  }

  for (seed <- 1 to 6)
    test(s"solve recovers x for a square system (seed=$seed)") {
      val a = rndNonsingular(5, seed * 3)
      val x = rnd(5, 2, seed * 5)
      val b = Kernels.mmu(a, x)
      assertClose(Kernels.sol(a, b), x, 1e-7)
    }

  for (seed <- 1 to 4)
    test(s"solve is a least-squares solution for tall systems (seed=$seed)") {
      val a = rnd(8, 3, seed * 11)
      val x = rnd(3, 1, seed * 13)
      val b = Kernels.mmu(a, x)
      // consistent system: exact recovery
      assertClose(Kernels.sol(a, b), x, 1e-7)
      // inconsistent system: residual orthogonal to the column space
      val b2 = rnd(8, 1, seed * 17)
      val x2 = Kernels.sol(a, b2)
      val resid = Kernels.sub(Kernels.mmu(a, x2), b2)
      assertClose(Kernels.cpd(a, resid), ColMatrix.zeros(3, 1), 1e-7)
    }

  test("solve rejects row mismatch") {
    intercept[IllegalArgumentException] { Kernels.sol(rnd(3, 2, 1), rnd(4, 1, 1)) }
  }
}

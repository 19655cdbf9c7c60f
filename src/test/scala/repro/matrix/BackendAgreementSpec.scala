package repro.matrix

import org.scalatest.funsuite.AnyFunSuite

/** The relational matrix algebra must be independent of the physical backend
  * (paper goal 2): the no-copy columnar kernels and the Breeze/LAPACK
  * delegation must produce identical canonical results.
  */
class BackendAgreementSpec extends AnyFunSuite {
  import MatrixTestUtil._

  private val backends = Seq(Kernels, BreezeBackend)

  test("both backends are registered with distinct names") {
    assert(backends.map(_.name).distinct.length == 2)
  }

  for (seed <- 1 to 5) {
    test(s"add/sub/emu agree (seed=$seed)") {
      val a = rnd(7, 4, seed); val b = rnd(7, 4, seed + 100)
      assertClose(Kernels.add(a, b), BreezeBackend.add(a, b), 1e-12)
      assertClose(Kernels.emu(a, b), BreezeBackend.emu(a, b), 1e-12)
    }

    test(s"mmu/cpd/opd/tra agree (seed=$seed)") {
      val a = rnd(6, 4, seed); val b = rnd(4, 3, seed + 1); val c = rnd(6, 3, seed + 2)
      assertClose(Kernels.mmu(a, b), BreezeBackend.mmu(a, b), 1e-10)
      assertClose(Kernels.cpd(a, c), BreezeBackend.cpd(a, c), 1e-10)
      assertClose(Kernels.opd(a, rnd(5, 4, seed + 3)), BreezeBackend.opd(a, rnd(5, 4, seed + 3)), 1e-10)
      assertClose(Kernels.tra(a), BreezeBackend.tra(a), 0.0)
    }

    test(s"inv agrees (seed=$seed)") {
      val a = rndNonsingular(6, seed)
      assertClose(Kernels.inv(a), BreezeBackend.inv(a), 1e-8)
    }

    test(s"det agrees (seed=$seed)") {
      val a = rndNonsingular(5, seed)
      val d1 = Kernels.det(a); val d2 = BreezeBackend.det(a)
      assert(math.abs(d1 - d2) <= 1e-8 * math.max(1.0, math.abs(d1)), s"$d1 vs $d2")
    }

    test(s"qr agrees after canonicalisation (seed=$seed)") {
      val a = rnd(8, 4, seed, scale = 4.0)
      val (q1, r1) = Kernels.qr(a)
      val (q2, r2) = BreezeBackend.qr(a)
      assertClose(q1, q2, 1e-8, "Q")
      assertClose(r1, r2, 1e-8, "R")
    }

    test(s"svd agrees after canonicalisation (seed=$seed)") {
      // Tall, and wide: the canonical signs come from the input's own U.
      for ((n, k) <- Seq((7, 3), (2, 4), (3, 5))) withClue(s"${n}x$k: ") {
        val a = rnd(n, k, seed, scale = 2.0)
        val (u1, s1, v1) = Kernels.svd(a)
        val (u2, s2, v2) = BreezeBackend.svd(a)
        assertCloseArr(s1, s2, 1e-8)
        assertClose(u1, u2, 1e-7, "U")
        assertClose(v1, v2, 1e-7, "V")
      }
    }

    test(s"eig agrees after canonicalisation (seed=$seed)") {
      val a = rndSym(5, seed)
      val (w1, v1) = Kernels.eig(a)
      val (w2, v2) = BreezeBackend.eig(a)
      assertCloseArr(w1, w2, 1e-8)
      assertClose(v1, v2, 1e-7)
    }

    test(s"chf agrees (seed=$seed)") {
      val a = rndSpd(5, seed)
      assertClose(Kernels.chf(a), BreezeBackend.chf(a), 1e-8)
    }

    test(s"sol agrees for square systems (seed=$seed)") {
      val a = rndNonsingular(5, seed)
      val b = rnd(5, 2, seed + 7)
      assertClose(Kernels.sol(a, b), BreezeBackend.sol(a, b), 1e-7)
    }

    test(s"sol agrees for least squares (seed=$seed)") {
      val a = rnd(9, 3, seed, scale = 2.0)
      val b = rnd(9, 1, seed + 9)
      assertClose(Kernels.sol(a, b), BreezeBackend.sol(a, b), 1e-7)
    }

    test(s"rnk agrees (seed=$seed)") {
      val full = rnd(6, 4, seed)
      assert(Kernels.rnk(full) == BreezeBackend.rnk(full))
      val deficient = Kernels.opd(ColMatrix.fromVector(Array(1.0, 2.0, 3.0)),
        ColMatrix.fromVector(Array(1.0, 1.0)))
      assert(Kernels.rnk(deficient) == BreezeBackend.rnk(deficient))
    }

    test(s"svdFullU agrees (seed=$seed)") {
      val a = rnd(5, 2, seed)
      assertClose(Kernels.completeToSquare(Kernels.svd(a)._1),
        Kernels.completeToSquare(BreezeBackend.svd(a)._1), 1e-6)
    }
  }
}

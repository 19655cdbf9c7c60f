package repro.matrix

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck properties for the columnar kernels (run by sbt's native
  * ScalaCheck framework, complementing the example-based suites).
  */
object KernelProps extends Properties("Kernels") {
  import Prop.forAll

  private val dim = Gen.choose(1, 8)
  private val cell = Gen.choose(-100.0, 100.0)

  private def matrixGen(n: Int, k: Int): Gen[ColMatrix] =
    Gen.listOfN(n * k, cell).map { vs =>
      new ColMatrix(Array.tabulate(k)(j => vs.slice(j * n, (j + 1) * n).toArray), n)
    }

  private val squareGen: Gen[(Int, ColMatrix)] =
    dim.flatMap(n => matrixGen(n, n).map(m => (n, m)))

  property("add commutes") = forAll(dim, dim) { (n: Int, k: Int) =>
    forAll(matrixGen(n, k), matrixGen(n, k)) { (a, b) =>
      Kernels.add(a, b).approxEquals(Kernels.add(b, a), 1e-9)
    }
  }

  property("sub(a,a) is zero") = forAll(squareGen) { case (n, a) =>
    Kernels.sub(a, a).approxEquals(ColMatrix.zeros(n, n), 0.0)
  }

  property("emu with ones is identity") = forAll(squareGen) { case (n, a) =>
    val ones = new ColMatrix(Array.fill(n)(Array.fill(n)(1.0)), n)
    Kernels.emu(a, ones).approxEquals(a, 0.0)
  }

  property("tra is an involution") = forAll(squareGen) { case (_, a) =>
    Kernels.tra(Kernels.tra(a)).approxEquals(a, 0.0)
  }

  property("mmu distributes over add") = forAll(squareGen) { case (n, a) =>
    forAll(matrixGen(n, n), matrixGen(n, n)) { (b, c) =>
      Kernels.mmu(a, Kernels.add(b, c))
        .approxEquals(Kernels.add(Kernels.mmu(a, b), Kernels.mmu(a, c)), 1e-6)
    }
  }

  property("cpd(a,a) is symmetric") = forAll(squareGen) { case (_, a) =>
    Kernels.isSymmetric(Kernels.cpd(a, a), 1e-9)
  }

  property("det(tra(a)) = det(a)") = forAll(squareGen) { case (_, a) =>
    val d1 = Kernels.det(a); val d2 = Kernels.det(Kernels.tra(a))
    math.abs(d1 - d2) <= 1e-6 * math.max(1.0, math.abs(d1))
  }

  property("rank <= min(dim)") = forAll(squareGen) { case (n, a) =>
    Kernels.rnk(a) <= n
  }

  property("svd singular values are nonnegative and descending") =
    forAll(squareGen) { case (_, a) =>
      val (_, s, _) = Kernels.svd(a)
      s.forall(_ >= 0.0) && s.sliding(2).forall(p => p.length < 2 || p(0) >= p(1) - 1e-9)
    }
}

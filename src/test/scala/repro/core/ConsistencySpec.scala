package repro.core

import org.apache.spark.sql.types.{DoubleType, StringType}

import repro.matrix.Kernels

/** Matrix consistency (paper Definition 6.3, Theorem 6.8): the result of
  * every relational matrix operation must be reducible to the result of the
  * corresponding matrix operation, i.e. there is an order schema U' such
  * that sorting the result by U' and dropping context yields OP(m).
  */
class ConsistencySpec extends RmaFixtures {
  import repro.matrix.MatrixTestUtil._

  private lazy val m = collectMatrix(weather, Seq("T")) // r ->_T m

  test("inv is matrix consistent") {
    val mm = collectMatrix(weatherLate, Seq("T"))
    assertClose(collectMatrix(Rma.inv(weatherLate, Seq("T")), Seq("T")), Kernels.inv(mm), 1e-9)
  }

  test("qqr is matrix consistent") {
    assertClose(collectMatrix(Rma.qqr(weather, Seq("T")), Seq("T")), Kernels.qr(m)._1, 1e-9)
  }

  test("rqr is matrix consistent (paper Example 6.4, U' = C)") {
    // C values are the app schema names H, W whose sort order coincides with
    // the application order of the weather relation.
    assertClose(collectMatrix(Rma.rqr(weather, Seq("T")), Seq("C")), Kernels.qr(m)._2, 1e-9)
  }

  test("tra is matrix consistent") {
    assertClose(collectMatrix(Rma.tra(weather, Seq("T")), Seq("C")), Kernels.tra(m), 1e-9)
  }

  test("dsv and vsv are matrix consistent") {
    val (_, s, v) = Kernels.svd(m)
    assertClose(collectMatrix(Rma.dsv(weather, Seq("T")), Seq("C")),
      repro.matrix.ColMatrix.diag(s), 1e-9)
    assertClose(collectMatrix(Rma.vsv(weather, Seq("T")), Seq("C")), v, 1e-9)
  }

  test("usv is matrix consistent") {
    assertClose(collectMatrix(Rma.usv(weather, Seq("T")), Seq("T")), Kernels.completeToSquare(Kernels.svd(m)._1), 1e-9)
  }

  test("evl and evc are matrix consistent") {
    val sym = makeDf(Seq("k" -> StringType, "a" -> DoubleType, "b" -> DoubleType),
      Seq(Seq("r1", 5.0, 2.0), Seq("r2", 2.0, 3.0)))
    val sm = collectMatrix(sym, Seq("k"))
    val (w, vec) = Kernels.eig(sm)
    assertClose(collectMatrix(Rma.evc(sym, Seq("k")), Seq("k")), vec, 1e-9)
    assertClose(collectMatrix(Rma.evl(sym, Seq("k")), Seq("k")),
      repro.matrix.ColMatrix.fromVector(w), 1e-9)
  }

  test("mmu is matrix consistent") {
    val s2 = makeDf(Seq("m" -> StringType, "x" -> DoubleType),
      Seq(Seq("s1", 2.0), Seq("s2", 3.0)))
    val sm = collectMatrix(s2, Seq("m"))
    assertClose(collectMatrix(Rma.mmu(weather, Seq("T"), s2, Seq("m")), Seq("T")),
      Kernels.mmu(m, sm), 1e-9)
  }

  test("add is matrix consistent (both paths)") {
    val other = weather.withColumnRenamed("T", "T2")
    val om = collectMatrix(other, Seq("T2"))
    onBothRoutes { in =>
      val result = Rma.add(in(weather), Seq("T"), in(other), Seq("T2"))
      assertClose(collectMatrix(result, Seq("T", "T2")), Kernels.add(m, om), 1e-9)
    }
  }

  test("consistency composes across operations (paper Figure 10)") {
    // tra(tra(r)) reduces to TRA(TRA(m)) = m
    val twice = Rma.tra(Rma.tra(weather, Seq("T")), Seq("C"))
    assertClose(collectMatrix(twice, Seq("C")), m, 1e-9)
  }

  test("reducibility of the input (paper Example 6.2)") {
    val n = collectMatrix(weatherLate, Seq("T"))
    assertClose(n, repro.matrix.ColMatrix.fromRows(Seq(Seq(6.0, 7.0), Seq(8.0, 5.0))), 0.0)
  }
}

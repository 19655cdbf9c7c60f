package perfbench

import org.scalatest.funsuite.AnyFunSuite

/** The benchmark's own tests: a corrupted result must count as a failed
  * query, and the generator and trace arithmetic must hold. No Spark needed.
  */
class BenchSpec extends AnyFunSuite {

  private def failed(check: => Option[String]): Boolean =
    !Runner.attempt(() => (), (_: Unit) => check).ok

  test("qqr check accepts orthonormal columns and rejects corrupted ones") {
    val ok = Array.fill(40)(1.0)
    assert(Checks.qqr(ok, 8000, 8000, 40).isEmpty)
    assert(failed(Checks.qqr(ok.updated(7, 1.01), 8000, 8000, 40)))
    assert(failed(Checks.qqr(ok, 7999, 8000, 40)))
    assert(failed(Checks.qqr(ok.take(39), 8000, 8000, 40)))
    assert(failed(Checks.qqr(ok.updated(0, Double.NaN), 8000, 8000, 40)))
  }

  test("ols check compares coefficients by label") {
    val labels = Gen.names("x", 10)
    val beta = Array.tabulate(10)(j => j * 0.5 - 2)
    val right = labels.zip(beta).toMap
    assert(Checks.ols(right, labels, beta).isEmpty)
    // Labels as a string sort of a1…a10 would give them: right values, wrong rows.
    val swapped = right.updated("x02", beta(9)).updated("x10", beta(1))
    assert(failed(Checks.ols(swapped, labels, beta)))
    assert(failed(Checks.ols(right.updated("x05", beta(4) + 1e-3), labels, beta)))
    assert(failed(Checks.ols(right - "x03", labels, beta)))
  }

  test("count check") {
    assert(Checks.count(42, 42).isEmpty)
    assert(failed(Checks.count(41, 42)))
  }

  test("inverse check samples columns of A·X") {
    val n = 5
    val a = Array.tabulate(n, n)((i, j) => if (i == j) 4.0 else 0.0)
    val x = Array.tabulate(n, n)((i, j) => if (i == j) 0.25 else 0.0)
    assert(Checks.inverse(a, x, Seq(0, 3)).isEmpty)
    val bad = x.map(_.clone)
    bad(2)(3) = 0.1
    assert(failed(Checks.inverse(a, bad, Seq(3))))
    assert(failed(Checks.inverse(a, x.take(4), Seq(0))))
  }

  test("a query that throws counts as failed and the loop keeps going") {
    var calls = 0
    val attempts = Runner.closedLoop(0.05) { i =>
      calls += 1
      Runner.attempt(() => if (i % 2 == 0) throw new IllegalStateException("boom") else i, (_: Int) => None)
    }
    assert(attempts.length == calls && calls >= 1)
    assert(attempts.zipWithIndex.forall { case (a, i) => a.ok == (i % 2 == 1) })
  }

  test("keys are a seeded permutation") {
    for (n <- Seq(1, 2, 7, 1000, 8000); seed <- Seq(1L, 2L)) {
      val keys = (0 until n).map(Gen.keyAt(_, n, seed))
      assert(keys.sorted == (0 until n), s"n=$n seed=$seed")
    }
    val a = (0 until 1000).map(Gen.keyAt(_, 1000, 1L))
    assert(a != (0 until 1000) && a != (0 until 1000).map(Gen.keyAt(_, 1000, 2L)))
  }

  test("names sort in schema order") {
    for (k <- Seq(10, 40, 1000)) assert(Gen.names("x", k).sorted == Gen.names("x", k))
  }

  test("self times and uncovered time add up to the query") {
    val spans = Seq(
      Span(0, -1, 0, "query", 0, 100, Map.empty),
      Span(1, 0, 0, "rma.qqr", 10, 60, Map.empty),
      Span(2, 1, 0, "constructors.collectSplit", 12, 30, Map("rows" -> 5)),
      Span(3, 1, 0, "matrix.qr", 30, 45, Map.empty),
      Span(4, 0, 0, "spark.consume", 60, 95, Map.empty))
    val self = Tracer.selfNs(spans)
    assert(self == Map(0 -> 15L, 1 -> 17L, 2 -> 18L, 3 -> 15L, 4 -> 35L))
    assert(self.values.sum == 100)
    val m = Traced.fromSpans(spans)
    assert(math.abs(Traced.SelfTimes.map(m).sum + m("trace.uncovered_s") - m("trace.query_s")) < 1e-15)
    assert(m("constructors.rows_collected") == 5)
  }

  test("tail is the highest percentile with ten samples beyond it") {
    val xs = (1 to 40).map(_.toDouble)
    assert(Stats.tail(xs) == ((30.0, 75.0)))
    assert(Stats.tail(xs.take(5)) == ((5.0, 100.0)))
    assert(Stats.median(Seq(3.0, 1.0, 2.0, 4.0)) == 2.5)
  }
}

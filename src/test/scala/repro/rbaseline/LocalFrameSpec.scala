package repro.rbaseline

import repro.core.RmaFixtures
import repro.matrix.Kernels

/** The R-analog single-threaded frame must agree with Spark on the
  * relational operations it implements.
  */
class LocalFrameSpec extends RmaFixtures {
  import repro.matrix.MatrixTestUtil._

  test("fromDF preserves columns and rows") {
    val f = LocalFrame.fromDF(weather)
    assert(f.names == Vector("T", "H", "W"))
    assert(f.size == 4)
  }

  test("select projects columns") {
    val f = LocalFrame.fromDF(weather).select(Seq("W", "T"))
    assert(f.names == Vector("W", "T"))
    assert(f.rows.head.length == 2)
  }

  test("sortBy orders rows like the matrix constructor") {
    val f = LocalFrame.fromDF(weather).sortBy(Seq("T"))
    assert(f.rows.map(_(0)).toSeq == Seq("5am", "6am", "7am", "8am"))
  }

  test("toColMatrix equals the Spark-side matrix constructor") {
    val m = LocalFrame.fromDF(weather).sortBy(Seq("T")).toColMatrix(Seq("H", "W"))
    assertClose(m, collectMatrix(weather, Seq("T")), 1e-12)
  }

  test("LocalR.qqr equals the RMA qqr base result") {
    val f = LocalFrame.fromDF(weather)
    val t = LocalR.qqr(f, "T", Seq("H", "W"))
    val m = t.toColMatrix(Seq("H", "W"))
    assertClose(m, Kernels.qr(collectMatrix(weather, Seq("T")))._1, 1e-9)
  }

  test("unknown column raises a helpful error") {
    val e = intercept[IllegalArgumentException] {
      LocalFrame.fromDF(weather).select(Seq("nope"))
    }
    assert(e.getMessage.contains("no column"))
  }
}

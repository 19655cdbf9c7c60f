package repro.arraydb

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col

import repro.core.{Rma, RmaConfig, RmaFixtures}
import repro.matrix.ColMatrix

/** The SciDB-analog coordinate array engine must agree with RMA on the
  * operations it implements — it is a competitor, not a different semantics.
  */
class ArrayDbSpec extends RmaFixtures {
  import repro.matrix.MatrixTestUtil._

  private lazy val r = keyed("r", Seq((1.0, 2.0), (3.0, 4.0), (5.0, 6.0)))
  private lazy val s = keyed("s", Seq((10.0, 20.0), (30.0, 40.0), (50.0, 60.0)), keyName = "k2")

  /** Materialise a (small) coordinate array back into a local ColMatrix for
    * result checking.
    */
  private def toColMatrix(a: DataFrame): ColMatrix = {
    val rows = a.select(col("i").cast("long"), col("j").cast("int"), col("v").cast("double"))
      .collect()
    if (rows.isEmpty) return ColMatrix.zeros(0, 0)
    val n = rows.map(_.getLong(0)).max.toInt + 1
    val k = rows.map(_.getInt(1)).max + 1
    val m = ColMatrix.zeros(n, k)
    rows.foreach { r: Row => m.cols(r.getInt(1))(r.getLong(0).toInt) = r.getDouble(2) }
    m
  }

  test("toCoord produces one cell per (row, column)") {
    val c = ArrayDb.toCoord(r, Seq("k"))
    assert(c.columns.toSeq == Seq("i", "j", "v"))
    assert(c.count() == 6)
    assert(c.select("j").distinct().count() == 2)
  }

  test("toCoord respects the sort order of the key") {
    val c = ArrayDb.toCoord(r, Seq("k")).filter("j = 0").orderBy("i")
    assert(c.collect().map(_.getDouble(2)).toSeq == Seq(1.0, 3.0, 5.0))
  }

  test("array-join add equals the RMA add") {
    val sum = ArrayDb.add(ArrayDb.toCoord(r, Seq("k")), ArrayDb.toCoord(s, Seq("k2")))
    val m = toColMatrix(sum)
    val rmaSum = collectMatrix(
      Rma.add(r, Seq("k"), s, Seq("k2"), RmaConfig()).select("k", "x", "y"), Seq("k"))
    assertClose(m, rmaSum, 1e-12)
  }

  test("selection filters cells by value") {
    val sum = ArrayDb.add(ArrayDb.toCoord(r, Seq("k")), ArrayDb.toCoord(s, Seq("k2")))
    val sel = ArrayDb.select(sum, "v > 40")
    // sums are 11,22,33,44,55,66 -> three cells above 40
    assert(sel.count() == 3)
  }

  test("toColMatrix round-trips a coordinate array") {
    val m = toColMatrix(ArrayDb.toCoord(r, Seq("k")))
    assertClose(m, collectMatrix(r, Seq("k")), 1e-12)
  }
}

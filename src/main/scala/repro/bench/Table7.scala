package repro.bench

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.arraydb.ArrayDb
import repro.core.Rma

/** Paper Table 7: `add` followed by a selection — RMA+ vs SciDB.
  *
  * The paper adds two 10-column matrices with 1M..15M rows and then selects;
  * SciDB loses by an order of magnitude because it must array-join the input
  * arrays (10 coordinate cells per tuple) before adding. We run the paper's
  * own row counts: RMA+ = distributed relational add + filter; SciDB analog
  * = coordinate array join + filter (coordinate arrays are the array DB's
  * storage format and are pre-built, like SciDB's dimensioned arrays).
  */
object Table7 {

  val paperTuples: Seq[Long] = Seq(1000000L, 5000000L, 10000000L, 15000000L)
  val paperRmaSecs: Seq[Double] = Seq(4.6, 24.4, 78, 99)
  val paperSciDbSecs: Seq[Double] = Seq(81, 426, 782, 1103)

  final case class Result(rows: Long, rmaSec: Double, arraySec: Double)

  def run(spark: SparkSession, rowCounts: Seq[Long] = paperTuples): Seq[Result] = {
    runOne(spark, 100000L) // JIT / shuffle-machinery warmup, not reported
    rowCounts.map { rows =>
      val r = runOne(spark, rows)
      println(s"  [table7] rows=$rows -> RMA+=${BenchUtil.fmtSec(r.rmaSec)}s " +
        s"ArrayDb=${BenchUtil.fmtSec(r.arraySec)}s")
      r
    }
  }

  private def runOne(spark: SparkSession, rows: Long): Result = {
    val r = SynthData.wideRelation(spark, rows, 10, seed = 6, keyName = "k")
    val s = SynthData.wideRelation(spark, rows, 10, seed = 7, keyName = "k2")
    r.persist(); s.persist()
    BenchUtil.force(r); BenchUtil.force(s)
    // The paper averages 3 runs; on a shared container the minimum of 3 is
    // the robust statistic (outliers come from external noise, not the
    // system under test). A GC break isolates runs from earlier garbage.
    def min3(f: => Unit): Double = {
      System.gc()
      (1 to 3).map(_ => BenchUtil.time(f)._2).min
    }
    // RMA+: relational add, then select on a result attribute.
    val rmaSec = min3 {
      BenchUtil.force(Rma.add(r, Seq("k"), s, Seq("k2")).filter("a1 > 5000000"))
    }
    // SciDB analog: arrays are stored as coordinates; add = array join.
    val ra = ArrayDb.toCoord(r, Seq("k")).persist()
    val sa = ArrayDb.toCoord(s, Seq("k2")).persist()
    BenchUtil.force(ra); BenchUtil.force(sa)
    val arraySec = min3 {
      BenchUtil.force(ArrayDb.select(ArrayDb.add(ra, sa), "v > 5000000"))
    }
    Seq(ra, sa, r, s).foreach(_.unpersist(blocking = true))
    Result(rows, rmaSec, arraySec)
  }

  def reportTable(results: Seq[Result]): String = {
    val header = Seq("#tuples", "paper RMA+", "paper SciDB", "paper slowdown",
      "measured RMA+", "measured ArrayDb analog", "measured slowdown")
    val rows = results.map { r =>
      val i = paperTuples.indexOf(r.rows)
      Seq(
        s"${r.rows / 1000000}M",
        if (i >= 0) s"${paperRmaSecs(i)}s" else "-",
        if (i >= 0) s"${paperSciDbSecs(i)}s" else "-",
        if (i >= 0) f"${paperSciDbSecs(i) / paperRmaSecs(i)}%.1fx" else "-",
        BenchUtil.fmtSec(r.rmaSec),
        BenchUtil.fmtSec(r.arraySec),
        f"${r.arraySec / r.rmaSec}%.1fx",
      )
    }
    "## Table 7 - add followed by a selection: RMA+ vs array database\n\n" +
      BenchUtil.fmtTable(header, rows)
  }
}

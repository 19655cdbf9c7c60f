package repro.bench

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.core.{Rma, RmaConfig}
import repro.matrix.{BreezeBackend, Kernels}
import repro.rbaseline.{LocalFrame, LocalR}

/** Paper Table 6: runtimes of `qqr` in R and RMA+.
  *
  * The paper sweeps 5M/50M/100M tuples x 10/40/70 attributes; RMA+ delegates
  * to MKL (falling back to BATs when memory runs out) and consistently beats
  * single-threaded R, which fails outright on the largest sizes. We sweep
  * 1/10-scale row counts:
  *  - "R analog"  = single-threaded local frame + frame->matrix conversion +
  *    single-threaded Gram-Schmidt QR;
  *  - "RMA+"      = the qqr operator with the Breeze/LAPACK backend (the MKL
  *    analog, includes Spark sort/collect and the copy);
  *  - "RMA+BAT"   = the same operator with the no-copy columnar Gram-Schmidt,
  *    reproducing the paper's remark that the BAT fallback is slower than MKL
  *    (834s vs 61.4s at 50Mx40).
  */
object Table6 {

  /** (tuples, attrs) -> paper seconds, R and RMA+ ("fail" = out of memory). */
  val paper: Seq[(String, String, String, String)] = Seq(
    // rows, attrs, R, RMA+
    ("5M", "10", "3.5", "2.1"),
    ("5M", "40", "20", "6.6"),
    ("5M", "70", "47", "11.6"),
    ("50M", "10", "37", "21.3"),
    ("50M", "40", "221", "61.4"),
    ("50M", "70", "fail", "2018"),
    ("100M", "10", "74", "40"),
    ("100M", "40", "fail", "1690"),
    ("100M", "70", "fail", "4064"),
  )

  final case class Result(rows: Long, attrs: Int, rSec: Double, rmaSec: Double, batSec: Option[Double])

  def run(spark: SparkSession,
          rowCounts: Seq[Long] = Seq(500000L, 1000000L, 2000000L),
          attrCounts: Seq[Int] = Seq(10, 40, 70),
          batMaxRows: Long = 500000L): Seq[Result] = {
    val mkl = RmaConfig(backend = BreezeBackend)
    val bat = RmaConfig(backend = Kernels)
    // JIT warmup of all three systems on a small instance, not reported.
    locally {
      val w = SynthData.wideRelation(spark, 50000L, 10, seed = 5, keyName = "k")
      w.persist(); BenchUtil.force(w)
      LocalR.qqr(LocalFrame.fromDF(w), "k", (1 to 10).map(j => s"a$j"))
      Rma.qqr(w, Seq("k"), mkl)
      Rma.qqr(w, Seq("k"), bat)
      w.unpersist(blocking = true)
    }
    for {
      rows <- rowCounts
      attrs <- attrCounts
    } yield {
      val df = SynthData.wideRelation(spark, rows, attrs, seed = 5, keyName = "k")
      df.persist()
      BenchUtil.force(df)
      val appCols = (1 to attrs).map(j => s"a$j")
      // Rma.qqr materialises its result eagerly as a driver-local relation —
      // the analog of MonetDB's result BATs in the server — so the operator
      // call itself is the measured unit (a count() would add a distribute-
      // and-serialise step that neither MonetDB nor R performs). min-of-2
      // runs and GC breaks keep shared-box noise out; the R-analog frame is
      // scoped so its multi-GB boxed rows are collectable before RMA+ runs.
      def min2(f: => Unit): Double = {
        System.gc()
        (1 to 2).map(_ => BenchUtil.time(f)._2).min
      }
      val rSec = {
        // R analog: data already resides in the local frame (like a data.table)
        val frame = LocalFrame.fromDF(df)
        min2 { LocalR.qqr(frame, "k", appCols) }
      }
      val rmaSec = min2 { Rma.qqr(df, Seq("k"), mkl) }
      // BAT fallback only on the smaller sizes (quadratic-ish, single thread).
      val batSec =
        if (rows <= batMaxRows) Some(min2 { Rma.qqr(df, Seq("k"), bat) })
        else None
      df.unpersist(blocking = true)
      println(s"  [table6] ${rows / 1000}Kx$attrs -> R=${BenchUtil.fmtSec(rSec)}s " +
        s"RMA+=${BenchUtil.fmtSec(rmaSec)}s BAT=${batSec.map(BenchUtil.fmtSec).getOrElse("-")}")
      Result(rows, attrs, rSec, rmaSec, batSec)
    }
  }

  def reportTable(results: Seq[Result]): String = {
    val header = Seq("rows x attrs", "paper R", "paper RMA+", "measured R-analog",
      "measured RMA+ (breeze)", "measured RMA+BAT (columnar)")
    val paperScale = Map("500K" -> "5M", "1000K" -> "50M", "2000K" -> "100M")
    val rows = results.map { r =>
      val label = s"${r.rows / 1000}K"
      val paperRow = paperScale.get(label).flatMap(p =>
        paper.find(x => x._1 == p && x._2 == r.attrs.toString))
      Seq(
        s"${label}x${r.attrs}",
        paperRow.map(p => s"${p._3} (at ${p._1})").getOrElse("-"),
        paperRow.map(p => s"${p._4} (at ${p._1})").getOrElse("-"),
        BenchUtil.fmtSec(r.rSec),
        BenchUtil.fmtSec(r.rmaSec),
        r.batSec.map(BenchUtil.fmtSec).getOrElse("-"),
      )
    }
    "## Table 6 — qqr runtimes, R vs RMA+ (paper sizes are 10x ours per tier)\n\n" +
      BenchUtil.fmtTable(header, rows)
  }
}

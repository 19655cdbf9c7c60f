package repro.bench

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.core.Constructors
import repro.matrix.{BreezeBackend, ColMatrix}

/** Paper Figure 14b (printed as a table in the text): share of the overall
  * matrix-operation time spent transforming columnar data to the dense
  * library format and back, for ADD, EMU, MMU, QQR, DSV, VSV on relations
  * with 50 columns and 100K..500K rows.
  *
  * Our RMA+MKL analog is the Breeze backend; each bare backend call runs in
  * a [[BreezeBackend.countingCopies]] scope, which times its
  * ColMatrix<->DenseMatrix copies exactly like the paper measures the
  * BAT<->MKL-array copies.
  */
object Fig14 {

  val ops: Seq[String] = Seq("ADD", "EMU", "MMU", "QQR", "DSV", "VSV")

  /** Paper Figure 14b percentages, rows 100K/300K/500K x the six ops. */
  val paperShare: Map[(Int, String), Int] = Map(
    (100, "ADD") -> 86, (100, "EMU") -> 86, (100, "MMU") -> 80,
    (100, "QQR") -> 48, (100, "DSV") -> 37, (100, "VSV") -> 35,
    (300, "ADD") -> 91, (300, "EMU") -> 91, (300, "MMU") -> 86,
    (300, "QQR") -> 55, (300, "DSV") -> 45, (300, "VSV") -> 40,
    (500, "ADD") -> 92, (500, "EMU") -> 92, (500, "MMU") -> 86,
    (500, "QQR") -> 53, (500, "DSV") -> 44, (500, "VSV") -> 43,
  )

  final case class Result(rowsK: Int, op: String, sharePct: Double)

  /** Runs one op; returns (total, copy) seconds. */
  private def runOp(op: String, m1: ColMatrix, m2: ColMatrix, mSq: ColMatrix): (Double, Double) = {
    val ((_, copyNanos), totalSec) = BenchUtil.time {
      BreezeBackend.countingCopies {
        op match {
          case "ADD" => BreezeBackend.add(m1, m2)
          case "EMU" => BreezeBackend.emu(m1, m2)
          case "MMU" => BreezeBackend.mmu(m1, mSq)
          case "QQR" => BreezeBackend.qr(m1)
          case "DSV" => BreezeBackend.svd(m1)._2
          case "VSV" => BreezeBackend.svd(m1)._3
        }
      }
    }
    (totalSec, copyNanos / 1e9)
  }

  def run(spark: SparkSession, rowsKs: Seq[Int] = Seq(100, 300, 500),
          cols: Int = 50): Seq[Result] = {
    def matrices(rows: Long): (ColMatrix, ColMatrix, ColMatrix) = {
      val df1 = SynthData.wideRelation(spark, rows, cols, seed = 8, keyName = "k")
      val df2 = SynthData.wideRelation(spark, rows, cols, seed = 9, keyName = "k2")
      val m1 = Constructors.collectSplit(df1, Seq("k")).matrix
      val m2 = Constructors.collectSplit(df2, Seq("k2")).matrix
      // MMU's second operand must be cols x cols.
      (m1, m2, new ColMatrix(Array.tabulate(cols)(j => m2.cols(j).take(cols)), cols))
    }
    // JIT warmup on a small instance, not reported.
    locally {
      val (w1, w2, wSq) = matrices(20000L)
      ops.foreach(op => runOp(op, w1, w2, wSq))
    }
    rowsKs.flatMap { rk =>
      val (m1, m2, mSq) = matrices(rk * 1000L)
      ops.map { op =>
        // Median of the per-call shares of 7 calls: one pause moves one
        // call's share, not the reported one.
        System.gc()
        val calls = (1 to 7).map(_ => runOp(op, m1, m2, mSq))
        val share = median(calls.map { case (total, copy) => 100.0 * copy / total })
        val totalSec = median(calls.map(_._1))
        println(f"  [fig14] ${rk}K $op -> share=$share%.0f%% (median total ${totalSec}%.2fs)")
        Result(rk, op, share)
      }
    }
  }

  private def median(xs: Seq[Double]): Double = xs.sorted.apply(xs.length / 2)

  def reportTable(results: Seq[Result]): String = {
    val header = Seq("#rows (50 cols)") ++ ops.flatMap(o => Seq(s"$o paper%", s"$o ours%"))
    val rows = results.groupBy(_.rowsK).toSeq.sortBy(_._1).map { case (rk, rs) =>
      Seq(s"${rk}K") ++ ops.flatMap { o =>
        val r = rs.find(_.op == o).get
        Seq(paperShare.get((rk, o)).map(_.toString).getOrElse("-"), f"${r.sharePct}%.0f")
      }
    }
    "## Figure 14b (tabular) — data transformation share of RMA+MKL analog\n\n" +
      BenchUtil.fmtTable(header, rows)
  }
}

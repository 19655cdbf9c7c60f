package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.repro.InternalDF

import repro.SynthData
import repro.core.Rma

/** Paper Table 4: `add` over wide relations in RMA+.
  *
  * 1000 tuples, one order attribute, 1K..10K application attributes; measures
  * how handling per-column context scales with relation width. We run the
  * same sweep with the columnar (no-copy) kernel — the RMA+BAT path the paper
  * uses for add, and the one `Rma.add` always takes — over RDD-generated
  * wide relations (Catalyst cannot build 10K-column projection expressions
  * in reasonable time, see DESIGN.md), held on the driver like BATs in the
  * server, so add takes the collect route and the timing includes no
  * collect of the inputs.
  */
object Table4 {

  val paperAttrs: Seq[Int] = Seq(1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000)
  val paperSecs: Seq[Double] = Seq(0.6, 2.2, 4.8, 8.8, 13.4, 20, 27, 36, 47, 62)

  /** Run the sweep; returns (attrs, seconds) pairs. */
  def run(spark: SparkSession, attrs: Seq[Int] = paperAttrs, rows: Int = 1000): Seq[(Int, Double)] = {
    def driverLocal(df: DataFrame) = InternalDF.createLocal(spark, df.schema, InternalDF.collectInternal(df).toSeq)
    attrs.map { k =>
      // data generation is not timed
      val r = driverLocal(SynthData.wideRelationRdd(spark, rows, k, seed = 1, keyName = "k"))
      val s = driverLocal(SynthData.wideRelationRdd(spark, rows, k, seed = 2, keyName = "k2"))
      val (_, sec) = BenchUtil.time { BenchUtil.force(Rma.add(r, Seq("k"), s, Seq("k2"))) }
      println(s"  [table4] attrs=$k -> ${BenchUtil.fmtSec(sec)}s")
      (k, sec)
    }
  }

  def reportTable(results: Seq[(Int, Double)]): String = {
    val header = Seq("#attr") ++ results.map(_._1.toString)
    val paper = Seq("paper sec (MonetDB)") ++ results.map { case (k, _) =>
      paperAttrs.indexOf(k) match {
        case -1 => "-"
        case i  => paperSecs(i).toString
      }
    }
    val ours = Seq("measured sec (Spark)") ++ results.map(r => BenchUtil.fmtSec(r._2))
    "## Table 4 — add over wide relations (1000 tuples)\n\n" +
      BenchUtil.fmtTable(header, Seq(paper, ours))
  }
}

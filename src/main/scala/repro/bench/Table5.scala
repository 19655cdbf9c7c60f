package repro.bench

import org.apache.spark.sql.SparkSession

import repro.SynthData
import repro.core.Rma

/** Paper Table 5: `add` over sparse relations.
  *
  * Two relations (paper: 5M tuples; here 500K = 1/10 scale), one order
  * attribute, 10 application attributes, with a growing fraction of exact
  * zeros. The paper's add gets up to 2x faster with sparsity because
  * MonetDB's compressed columns shrink; our analog is Spark's compressed
  * in-memory columnar cache feeding the distributed add path.
  */
object Table5 {

  val paperZeroPct: Seq[Int] = Seq(0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
  val paperSecs: Seq[Double] = Seq(1.68, 1.60, 1.49, 1.41, 1.33, 1.25, 1.16, 0.99, 0.94, 0.89, 0.76)

  def run(spark: SparkSession, rows: Long = 500000L,
          zeroPcts: Seq[Int] = paperZeroPct): Seq[(Int, Double)] = {
    runOne(spark, 50000L, 0) // JIT warmup, not reported
    zeroPcts.map { pct =>
      val sec = runOne(spark, rows, pct)
      println(s"  [table5] zeros=$pct% -> ${BenchUtil.fmtSec(sec)}s")
      (pct, sec)
    }
  }

  private def runOne(spark: SparkSession, rows: Long, pct: Int): Double = {
    val frac = pct / 100.0
    val r = SynthData.wideRelation(spark, rows, 10, zeroFrac = frac, seed = 3, keyName = "k")
    val s = SynthData.wideRelation(spark, rows, 10, zeroFrac = frac, seed = 4, keyName = "k2")
    r.persist(); s.persist()
    BenchUtil.force(r); BenchUtil.force(s) // build the compressed columnar cache
    System.gc()
    // min of 2 runs (paper averages 3; min is robust on a shared box)
    val sec = (1 to 2).map(_ =>
      BenchUtil.time(BenchUtil.force(Rma.add(r, Seq("k"), s, Seq("k2"))))._2).min
    r.unpersist(blocking = true); s.unpersist(blocking = true)
    sec
  }

  def reportTable(results: Seq[(Int, Double)], rows: Long): String = {
    val header = Seq("% zeros") ++ results.map(_._1.toString)
    val paper = Seq("paper sec (5M tup, MonetDB)") ++ results.map { case (p, _) =>
      paperZeroPct.indexOf(p) match {
        case -1 => "-"
        case i  => paperSecs(i).toString
      }
    }
    val ours = Seq(s"measured sec (${rows / 1000}K tup, Spark)") ++
      results.map(r => BenchUtil.fmtSec(r._2))
    "## Table 5 — add over sparse relations (10 app attributes)\n\n" +
      BenchUtil.fmtTable(header, Seq(paper, ours))
  }
}

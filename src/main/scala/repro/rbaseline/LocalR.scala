package repro.rbaseline

import repro.matrix.Kernels

/** R-analog matrix operations: single-threaded kernels applied after an
  * explicit frame→matrix conversion, with both phases timed separately so
  * benches can report the transformation share (paper Figure 14a) and total
  * runtimes (paper Table 6).
  */
object LocalR {

  /** Result of a timed R-analog matrix call. */
  final case class Timed[A](result: A, convertSec: Double, computeSec: Double) {
    def totalSec: Double = convertSec + computeSec
  }

  private def now(): Long = System.nanoTime()

  /** qr(as.matrix(frame[, appCols]))$Q — sort by the key, convert, run
    * single-threaded Gram-Schmidt QR, convert back to a frame.
    */
  def qqr(frame: LocalFrame, orderCol: String, appCols: Seq[String]): Timed[LocalFrame] = {
    val sorted = frame.sortBy(Seq(orderCol))
    val t0 = now()
    val m = sorted.toColMatrix(appCols)
    val t1 = now()
    val q = Kernels.qr(m)._1
    val t2 = now()
    val key = sorted.select(Seq(orderCol))
    val outRows = Vector.tabulate(q.nRows) { i =>
      (key.rows(i).toSeq ++ q.row(i).map(x => x: Any)).toArray
    }
    val out = LocalFrame((orderCol +: appCols).toVector, outRows)
    val t3 = now()
    Timed(out, (t1 - t0 + (t3 - t2)) / 1e9, (t2 - t1) / 1e9)
  }
}

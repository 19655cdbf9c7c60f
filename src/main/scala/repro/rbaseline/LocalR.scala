package repro.rbaseline

import repro.matrix.Kernels

/** R-analog matrix operations: single-threaded kernels applied after an
  * explicit frame→matrix conversion, as R converts a data.table with
  * `as.matrix` before it calls a kernel (paper Table 6).
  */
object LocalR {

  /** qr(as.matrix(frame[, appCols]))$Q — sort by the key, convert, run
    * single-threaded Gram-Schmidt QR, convert back to a frame.
    */
  def qqr(frame: LocalFrame, orderCol: String, appCols: Seq[String]): LocalFrame = {
    val sorted = frame.sortBy(Seq(orderCol))
    val q = Kernels.qr(sorted.toColMatrix(appCols))._1
    val key = sorted.select(Seq(orderCol))
    val outRows = Vector.tabulate(q.nRows) { i =>
      (key.rows(i).toSeq ++ q.row(i).map(x => x: Any)).toArray
    }
    LocalFrame((orderCol +: appCols).toVector, outRows)
  }
}

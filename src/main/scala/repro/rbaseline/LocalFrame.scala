package repro.rbaseline

import org.apache.spark.sql.DataFrame

import repro.matrix.ColMatrix

/** R-analog data frame: a single-threaded, in-memory, row-store table.
  *
  * The paper's R competitor (§8) holds relations in single-threaded
  * `data.table`s and must convert frames to the `matrix` type before complex
  * linear algebra. This substrate reproduces those two properties for the
  * `qqr` of Table 6: every operation below runs on one thread over local
  * rows, and [[toColMatrix]] is the explicit frame→matrix copy whose cost
  * the paper measures (Figure 14a).
  */
final case class LocalFrame(names: Vector[String], rows: Vector[Array[Any]]) {

  private def idx(c: String): Int = {
    val i = names.indexOf(c)
    require(i >= 0, s"no column '$c' in $names")
    i
  }

  def size: Int = rows.length

  /** Projection. */
  def select(cols: Seq[String]): LocalFrame = {
    val is = cols.map(idx)
    LocalFrame(cols.toVector, rows.map(r => is.map(r).toArray))
  }

  /** Sort ascending by the given columns (R's `setkey`/`order`). */
  def sortBy(cols: Seq[String]): LocalFrame = {
    val is = cols.map(idx)
    implicit val anyOrd: Ordering[Any] = (a: Any, b: Any) => (a, b) match {
      case (x: String, y: String)   => x.compareTo(y)
      case (x: Number, y: Number)   => java.lang.Double.compare(x.doubleValue, y.doubleValue)
      case (x, y)                   => x.toString.compareTo(y.toString)
    }
    LocalFrame(names, rows.sortBy(r => is.map(r).toIndexedSeq)(Ordering.Implicits.seqOrdering))
  }

  /** The frame→matrix conversion (R's `as.matrix(frame[, cols])`) — the copy
    * the paper measures as transformation overhead.
    */
  def toColMatrix(cols: Seq[String]): ColMatrix = {
    val is = cols.map(idx)
    val n = rows.length
    val out = Array.fill(is.length)(new Array[Double](n))
    var i = 0
    while (i < n) {
      val r = rows(i)
      var j = 0
      while (j < is.length) { out(j)(i) = asDouble(r(is(j))); j += 1 }
      i += 1
    }
    new ColMatrix(out, n)
  }

  private def asDouble(a: Any): Double = a match {
    case d: Double  => d
    case f: Float   => f.toDouble
    case l: Long    => l.toDouble
    case i: Int     => i.toDouble
    case s: Short   => s.toDouble
    case b: Byte    => b.toDouble
    case bd: java.math.BigDecimal => bd.doubleValue
    case other => throw new IllegalArgumentException(s"not numeric: $other")
  }
}

object LocalFrame {

  /** Load a Spark DataFrame into the local single-threaded frame (the analog
    * of having the data in an R data.table).
    */
  def fromDF(df: DataFrame): LocalFrame =
    LocalFrame(df.columns.toVector, df.collect().toVector.map(r => Array.tabulate(r.length)(r.get)))
}

package repro.matrix

/** A dense matrix stored column-major as an array of column arrays.
  *
  * This mirrors MonetDB's representation of a relation's application part as
  * a list of BATs (one contiguous array per column). All from-scratch kernels
  * in [[Kernels]] operate on whole columns at a time, like the vectorised BAT
  * operations in the paper (Algorithms 1 and 2).
  *
  * Invariant: every column has the same length. A 0-column matrix carries an
  * explicit row count so shape information survives empty application parts.
  */
final class ColMatrix(val cols: Array[Array[Double]], rows0: Int = -1) {

  /** Number of columns (`#m` in the paper). */
  val nCols: Int = cols.length

  /** Number of rows (`|m|` in the paper). */
  val nRows: Int = if (nCols == 0) math.max(rows0, 0) else cols(0).length

  require(cols.forall(_.length == nRows), "ragged columns in ColMatrix")

  /** Element in row `i`, column `j` (0-based; the paper is 1-based). */
  @inline def apply(i: Int, j: Int): Double = cols(j)(i)

  /** The `i`-th row as a fresh array (`m[i, *]`). */
  def row(i: Int): Array[Double] = {
    val out = new Array[Double](nCols)
    var j = 0
    while (j < nCols) { out(j) = cols(j)(i); j += 1 }
    out
  }

  /** The `j`-th column; shared, do not mutate (`m[*, j]`). */
  def col(j: Int): Array[Double] = cols(j)

  /** A deep copy (kernels that mutate in place must copy first). */
  def copy(): ColMatrix = new ColMatrix(cols.map(_.clone()), nRows)

  /** Matrix transpose as a new ColMatrix. */
  def transpose: ColMatrix = {
    val out = Array.fill(nRows)(new Array[Double](nCols))
    var j = 0
    while (j < nCols) {
      val c = cols(j)
      var i = 0
      while (i < nRows) { out(i)(j) = c(i); i += 1 }
      j += 1
    }
    new ColMatrix(out, nCols)
  }

  /** Max |a(i,j) - b(i,j)|; infinity on shape mismatch. */
  def maxAbsDiff(other: ColMatrix): Double =
    if (nRows != other.nRows || nCols != other.nCols) Double.PositiveInfinity
    else {
      var m = 0.0
      var j = 0
      while (j < nCols) {
        val a = cols(j); val b = other.cols(j)
        var i = 0
        while (i < nRows) { m = math.max(m, math.abs(a(i) - b(i))); i += 1 }
        j += 1
      }
      m
    }

  /** Approximate equality within `tol` (element-wise, absolute). */
  def approxEquals(other: ColMatrix, tol: Double = 1e-9): Boolean =
    maxAbsDiff(other) <= tol

  override def toString: String = {
    val r = math.min(nRows, 8); val c = math.min(nCols, 8)
    val body = (0 until r).map(i => (0 until c).map(j => f"${apply(i, j)}%10.4f").mkString(" ")).mkString("\n")
    s"ColMatrix(${nRows}x$nCols)\n$body"
  }
}

object ColMatrix {

  /** Build from column arrays (takes ownership; callers must not mutate). */
  def apply(cols: Array[Array[Double]]): ColMatrix = new ColMatrix(cols)

  /** Build from a sequence of rows. */
  def fromRows(rows: Seq[Seq[Double]]): ColMatrix = {
    val n = rows.length
    val k = if (n == 0) 0 else rows.head.length
    val cols = Array.fill(k)(new Array[Double](n))
    var i = 0
    rows.foreach { r =>
      require(r.length == k, "ragged rows")
      var j = 0
      r.foreach { v => cols(j)(i) = v; j += 1 }
      i += 1
    }
    new ColMatrix(cols, n)
  }

  /** n-by-n identity — `IDmatrix(n)` in paper Algorithm 2. */
  def identity(n: Int): ColMatrix = {
    val cols = Array.tabulate(n) { j =>
      val c = new Array[Double](n); c(j) = 1.0; c
    }
    new ColMatrix(cols, n)
  }

  /** Zero matrix of the given shape. */
  def zeros(rows: Int, colsN: Int): ColMatrix =
    new ColMatrix(Array.fill(colsN)(new Array[Double](rows)), rows)

  /** Single-column matrix from a vector. */
  def fromVector(v: Array[Double]): ColMatrix = new ColMatrix(Array(v.clone()), v.length)

  /** Diagonal matrix from a vector of diagonal entries. */
  def diag(d: Array[Double]): ColMatrix = {
    val n = d.length
    val cols = Array.tabulate(n) { j =>
      val c = new Array[Double](n); c(j) = d(j); c
    }
    new ColMatrix(cols, n)
  }
}

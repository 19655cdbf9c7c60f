package repro.matrix

/** Physical backend for the base-result computation (paper Section 7.3).
  *
  * The relational matrix algebra is defined at the logical level; the base
  * result of an operation may be computed by any backend. The paper ships
  * two: a "no-copy" implementation over BATs and a delegation to MKL. Our
  * analogs are [[Kernels]] (from-scratch columnar kernels) and
  * [[BreezeBackend]] (copy to a contiguous dense matrix, call
  * Breeze/netlib-LAPACK). Both produce identical canonical results, which is
  * asserted by the backend-agreement test suite. Like RMA+, the algebra keeps
  * the element-wise ops (add, sub, emu) on the columnar kernels, so a backend
  * covers the other ops only; and as RMA+ hands MKL only library-class
  * kernels, a backend implements nine, and `opd`, `rnk` and `sol` are defined
  * here once over them.
  *
  * A fault of the input reads the same on both backends and names no kernel;
  * the evaluator prefixes the op name.
  */
trait MatrixBackend {
  import MatrixBackend.Eps

  /** Backend name for logs and bench tables. */
  def name: String

  def mmu(a: ColMatrix, b: ColMatrix): ColMatrix
  def tra(a: ColMatrix): ColMatrix

  /** Cross product `a^T * b`. */
  def cpd(a: ColMatrix, b: ColMatrix): ColMatrix

  def inv(a: ColMatrix): ColMatrix
  def det(a: ColMatrix): Double

  /** Upper-triangular R with `a = R^T R` (R's chol convention). */
  def chf(a: ColMatrix): ColMatrix

  /** Thin QR `(Q, R)`, canonicalised with diag(R) >= 0; rejects
    * rank-deficient input by [[MatrixBackend.requireIndependent]].
    */
  def qr(a: ColMatrix): (ColMatrix, ColMatrix)

  /** Thin SVD `(U, sigma, V)`, sigma descending, canonical signs. */
  def svd(a: ColMatrix): (ColMatrix, Array[Double], ColMatrix)

  /** Symmetric eigen `(values desc, vectors)`, canonical signs. */
  def eig(a: ColMatrix): (Array[Double], ColMatrix)

  /** Outer product `a * b^T`. */
  final def opd(a: ColMatrix, b: ColMatrix): ColMatrix = {
    require(a.nCols == b.nCols, s"column counts differ (${a.nCols} vs ${b.nCols})")
    mmu(a, b.transpose)
  }

  /** Numerical rank: number of singular values above the standard
    * `max(n,k) * eps * sigma_max` threshold.
    */
  final def rnk(a: ColMatrix): Int =
    if (a.nRows == 0 || a.nCols == 0) 0
    else {
      val s = svd(a)._2
      val tol = math.max(a.nRows, a.nCols) * Eps * s.foldLeft(0.0)(math.max)
      s.count(_ > tol)
    }

  /** Solve `a x = b` by back substitution of `R x = Q^T b`: exact for a
    * square `a`, least squares for a tall one (R's `qr.solve`). `b` may have
    * several columns; x is (a.nCols x b.nCols). Rank-deficient `a` is
    * rejected by [[qr]].
    */
  final def sol(a: ColMatrix, b: ColMatrix): ColMatrix = {
    require(a.nRows == b.nRows, s"row counts differ (${a.nRows} vs ${b.nRows})")
    val (q, r) = qr(a)
    val k = a.nCols
    val xs = cpd(q, b).cols.map { y =>
      val x = new Array[Double](k)
      for (i <- k - 1 to 0 by -1)
        x(i) = (i + 1 until k).foldLeft(y(i))((s, l) => s - r(i, l) * x(l)) / r(i, i)
      x
    }
    new ColMatrix(xs, k)
  }
}

object MatrixBackend {

  /** IEEE-754 double machine epsilon. */
  private[matrix] val Eps: Double = 2.220446049250313e-16

  /** Largest |a_ij| of column `j`. */
  private[matrix] def colAbsMax(a: ColMatrix, j: Int): Double = {
    var m = 0.0
    val c = a.cols(j)
    var i = 0
    while (i < c.length) { m = math.max(m, math.abs(c(i))); i += 1 }
    m
  }

  /** The QR rank rule of both backends: column `j` of the n x k input `a`
    * is independent of the columns before it when `|R_jj|` exceeds
    * `max(n,k) * eps * 1e3 * (1 + max_i |a_ij|)`.
    */
  private[matrix] def requireIndependent(a: ColMatrix, j: Int, rjj: Double): Unit =
    require(math.abs(rjj) > math.max(a.nRows, a.nCols) * Eps * 1e3 * (1.0 + colAbsMax(a, j)),
      s"column $j is linearly dependent (rank-deficient input)")
}

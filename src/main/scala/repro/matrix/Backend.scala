package repro.matrix

/** Physical backend for the base-result computation (paper Section 7.3).
  *
  * The relational matrix algebra is defined at the logical level; the base
  * result of an operation may be computed by any backend. The paper ships
  * two: a "no-copy" implementation over BATs and a delegation to MKL. Our
  * analogs are [[Kernels]] (from-scratch columnar kernels) and
  * [[BreezeBackend]] (copy to a contiguous dense matrix, call
  * Breeze/netlib-LAPACK). Like RMA+, the algebra keeps the element-wise ops
  * (add, sub, emu) on the columnar kernels, so a backend covers the other
  * ops only; and as RMA+ hands MKL only library-class kernels, a backend
  * writes eight bare kernels and nothing else.
  *
  * This trait holds each kernel's contract, once for both backends: every
  * public kernel is final, checks its input, calls the backend's bare kernel
  * and puts the factors in [[Canon]]'s form, so the relation that comes back
  * does not depend on the backend that ran (paper goal 2). `tra`, `opd`,
  * `rnk` and `sol` are defined here over the others. A factorisation
  * rejects a NaN or infinite entry before its kernel runs; the other
  * kernels keep IEEE arithmetic. A fault of the input reads the same on
  * both backends and names no kernel; the evaluator prefixes the op name.
  */
trait MatrixBackend {
  import MatrixBackend._

  /** Backend name for logs and bench tables. */
  def name: String

  /** The bare kernels. Each may assume its input passed the checks of the
    * final member that calls it, and returns its factors in any sign and
    * order; `bareQr` returns the raw thin factors of an n x k input with
    * n >= k, `bareSvd` the thin `(U, sigma, V)` of any input.
    */
  protected def bareMmu(a: ColMatrix, b: ColMatrix): ColMatrix
  protected def bareCpd(a: ColMatrix, b: ColMatrix): ColMatrix
  protected def bareInv(a: ColMatrix): ColMatrix
  protected def bareDet(a: ColMatrix): Double
  protected def bareChf(a: ColMatrix): ColMatrix
  protected def bareQr(a: ColMatrix): (ColMatrix, ColMatrix)
  protected def bareSvd(a: ColMatrix): (ColMatrix, Array[Double], ColMatrix)
  protected def bareEig(a: ColMatrix): (Array[Double], ColMatrix)

  /** Matrix multiplication: (n x k) * (k x m) -> n x m. */
  final def mmu(a: ColMatrix, b: ColMatrix): ColMatrix = {
    require(a.nCols == b.nRows, s"inner dimensions differ (${a.nCols} vs ${b.nRows})")
    bareMmu(a, b)
  }

  /** Transpose; a copy on either backend. */
  final def tra(a: ColMatrix): ColMatrix = a.transpose

  /** Cross product `a^T * b`. */
  final def cpd(a: ColMatrix, b: ColMatrix): ColMatrix = {
    require(a.nRows == b.nRows, s"row counts differ (${a.nRows} vs ${b.nRows})")
    bareCpd(a, b)
  }

  final def inv(a: ColMatrix): ColMatrix = bareInv(finite(square(a)))

  final def det(a: ColMatrix): Double = bareDet(square(a))

  /** Upper-triangular R with `a = R^T R` (R's chol convention). */
  final def chf(a: ColMatrix): ColMatrix = {
    require(isSymmetric(finite(square(a))), "matrix must be symmetric")
    bareChf(a)
  }

  /** Thin QR `(Q, R)` with diag(R) >= 0. Rejects rank-deficient input: column
    * `j` of the n x k input is independent of the columns before it when
    * `|R_jj| > max(n,k) * eps * 1e3 * (1 + max_i |a_ij|)`, checked on the
    * backend's final R in column order.
    */
  final def qr(a: ColMatrix): (ColMatrix, ColMatrix) = {
    require(a.nRows >= a.nCols, s"need rows >= cols, got ${a.nRows}x${a.nCols}")
    val (q, r) = bareQr(finite(a))
    for (j <- 0 until a.nCols)
      require(math.abs(r(j, j)) > math.max(a.nRows, a.nCols) * Eps * 1e3 * (1.0 + colAbsMax(a, j)),
        s"column $j is linearly dependent (rank-deficient input)")
    Canon.canonQr(q, r)
  }

  /** Thin SVD `(U, sigma, V)`, sigma descending, canonical signs taken from
    * the input's own U.
    */
  final def svd(a: ColMatrix): (ColMatrix, Array[Double], ColMatrix) = {
    val (u, s, v) = bareSvd(finite(a))
    Canon.canonSvd(u, s, v)
  }

  /** Symmetric eigen `(values desc, vectors)`, canonical signs. */
  final def eig(a: ColMatrix): (Array[Double], ColMatrix) = {
    require(isSymmetric(finite(square(a))), "only symmetric matrices are supported (see DESIGN.md)")
    val (w, v) = bareEig(a)
    Canon.canonEig(w, v)
  }

  /** Whether `a` is square and equals its transpose within `tol` relative
    * to its largest entry.
    */
  final def isSymmetric(a: ColMatrix, tol: Double = 1e-9): Boolean = {
    val scale = 1.0 + (0 until a.nCols).map(colAbsMax(a, _)).foldLeft(0.0)(math.max)
    a.nRows == a.nCols &&
      (0 until a.nCols).forall(j => (0 until j).forall(i => math.abs(a(i, j) - a(j, i)) <= tol * scale))
  }

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

  private def square(a: ColMatrix): ColMatrix = {
    require(a.nCols == a.nRows, s"matrix must be square, got ${a.nRows}x${a.nCols}")
    a
  }

  /** `a`, unless an entry is NaN or infinite. */
  private def finite(a: ColMatrix): ColMatrix = {
    for (j <- 0 until a.nCols) {
      val c = a.cols(j)
      var i = 0
      while (i < c.length && java.lang.Double.isFinite(c(i))) i += 1
      require(i == c.length, s"non-finite value in column $j")
    }
    a
  }
}

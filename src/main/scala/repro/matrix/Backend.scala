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
  * covers the other ops only.
  *
  * A fault of the input reads the same on both backends and names no kernel;
  * the evaluator prefixes the op name.
  */
trait MatrixBackend {

  /** Backend name for logs and bench tables. */
  def name: String

  def mmu(a: ColMatrix, b: ColMatrix): ColMatrix
  def tra(a: ColMatrix): ColMatrix

  /** Cross product `a^T * b`. */
  def cpd(a: ColMatrix, b: ColMatrix): ColMatrix

  /** Outer product `a * b^T`. */
  def opd(a: ColMatrix, b: ColMatrix): ColMatrix

  def inv(a: ColMatrix): ColMatrix
  def det(a: ColMatrix): Double
  def rnk(a: ColMatrix): Int

  /** Upper-triangular R with `a = R^T R` (R's chol convention). */
  def chf(a: ColMatrix): ColMatrix

  /** Thin QR `(Q, R)`, canonicalised with diag(R) >= 0. */
  def qr(a: ColMatrix): (ColMatrix, ColMatrix)

  /** Thin SVD `(U, sigma, V)`, sigma descending, canonical signs. */
  def svd(a: ColMatrix): (ColMatrix, Array[Double], ColMatrix)

  /** Symmetric eigen `(values desc, vectors)`, canonical signs. */
  def eig(a: ColMatrix): (Array[Double], ColMatrix)

  /** Solve `a x = b`; least squares when `a` is rectangular. */
  def sol(a: ColMatrix, b: ColMatrix): ColMatrix
}

package repro.matrix

/** From-scratch matrix kernels over column-major [[ColMatrix]] values.
  *
  * These are the reproduction of the paper's "no-copy" BAT kernels
  * (Section 7.3): every algorithm is phrased as vectorised operations over
  * whole columns — the direct analog of MonetDB BAT operations — with
  * element accesses (`sel` in the paper) kept to a minimum.
  *
  *  - [[inv]] is the column-operation Gauss-Jordan elimination of paper
  *    Algorithm 2, extended with column pivoting for numerical robustness.
  *  - [[qr]] is modified Gram-Schmidt over columns, the paper's BAT baseline
  *    for QR (Gander's report, cited as [12] in the paper).
  *  - [[svd]] is one-sided Jacobi (column-pair rotations — inherently
  *    columnar), [[eig]] is cyclic Jacobi for symmetric matrices.
  *
  * This object is the columnar backend, the RMA+BAT analog: no conversion
  * to an external dense format is performed. It writes the bare kernels
  * only; [[MatrixBackend]] checks their input and canonicalises their
  * factors. All kernels are pure: inputs are never mutated.
  */
object Kernels extends MatrixBackend {
  import MatrixBackend.Eps

  val name = "columnar"

  // ---------------------------------------------------------------------
  // Element-wise and multiplicative ops.
  // ---------------------------------------------------------------------

  private def zipCols(a: ColMatrix, b: ColMatrix, f: (Double, Double) => Double): ColMatrix = {
    require(a.nRows == b.nRows && a.nCols == b.nCols,
      s"shape mismatch: ${a.nRows}x${a.nCols} vs ${b.nRows}x${b.nCols}")
    val out = Array.ofDim[Array[Double]](a.nCols)
    var j = 0
    while (j < a.nCols) {
      val ca = a.cols(j); val cb = b.cols(j)
      val c = new Array[Double](a.nRows)
      var i = 0
      while (i < a.nRows) { c(i) = f(ca(i), cb(i)); i += 1 }
      out(j) = c
      j += 1
    }
    new ColMatrix(out, a.nRows)
  }

  /** Element-wise addition (ADD). */
  def add(a: ColMatrix, b: ColMatrix): ColMatrix = zipCols(a, b, _ + _)

  /** Element-wise subtraction (SUB). */
  def sub(a: ColMatrix, b: ColMatrix): ColMatrix = zipCols(a, b, _ - _)

  /** Element-wise (Hadamard) multiplication (EMU). */
  def emu(a: ColMatrix, b: ColMatrix): ColMatrix = zipCols(a, b, _ * _)

  /** Matrix multiplication (MMU): (n x k) * (k x m) -> n x m.
    * Column j of the result is a sum of AXPY column updates — pure column ops.
    */
  protected def bareMmu(a: ColMatrix, b: ColMatrix): ColMatrix = {
    val out = Array.ofDim[Array[Double]](b.nCols)
    var j = 0
    while (j < b.nCols) {
      val c = new Array[Double](a.nRows)
      val bj = b.cols(j)
      var l = 0
      while (l < a.nCols) {
        val al = a.cols(l); val w = bj(l)
        if (w != 0.0) {
          var i = 0
          while (i < a.nRows) { c(i) += al(i) * w; i += 1 }
        }
        l += 1
      }
      out(j) = c
      j += 1
    }
    new ColMatrix(out, a.nRows)
  }

  /** Cross product (CPD): aT * b, computed as pairwise column dot products. */
  protected def bareCpd(a: ColMatrix, b: ColMatrix): ColMatrix = {
    val out = Array.ofDim[Array[Double]](b.nCols)
    var j = 0
    while (j < b.nCols) {
      val c = new Array[Double](a.nCols)
      val bj = b.cols(j)
      var i = 0
      while (i < a.nCols) { c(i) = dot(a.cols(i), bj); i += 1 }
      out(j) = c
      j += 1
    }
    new ColMatrix(out, a.nCols)
  }

  private def dot(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < x.length) { s += x(i) * y(i); i += 1 }
    s
  }

  private def norm2(x: Array[Double]): Double = math.sqrt(dot(x, x))

  // ---------------------------------------------------------------------
  // Inversion — paper Algorithm 2 (column-op Gauss-Jordan) + column pivoting.
  // ---------------------------------------------------------------------

  /** Matrix inversion via Gauss-Jordan elimination expressed as column
    * operations (paper Algorithm 2). Each elementary step is a whole-column
    * scale or AXPY, i.e. a right-multiplication `A <- A * E`; after `A` is
    * reduced to the identity, the accumulated product applied to an identity
    * matrix is exactly `A^-1`. Column pivoting (a column swap, also a
    * right-multiplication) is added for robustness; the paper's algorithm
    * assumes nonzero pivots.
    */
  protected def bareInv(a: ColMatrix): ColMatrix = {
    val n = a.nRows
    val b = a.copy()
    val br = ColMatrix.identity(n)
    var i = 0
    while (i < n) {
      // Column pivot: bring the largest |row-i| entry among columns >= i to i.
      var p = i
      var best = math.abs(b.cols(i)(i))
      var j = i + 1
      while (j < n) {
        val v = math.abs(b.cols(j)(i))
        if (v > best) { best = v; p = j }
        j += 1
      }
      require(best > 0.0, "matrix is singular")
      if (p != i) {
        val t = b.cols(i); b.cols(i) = b.cols(p); b.cols(p) = t
        val u = br.cols(i); br.cols(i) = br.cols(p); br.cols(p) = u
      }
      val v1 = b.cols(i)(i)              // sel(B_i, i)
      scaleInPlace(b.cols(i), 1.0 / v1)  // B_i <- B_i / v1
      scaleInPlace(br.cols(i), 1.0 / v1) // BR_i <- BR_i / v1
      j = 0
      while (j < n) {
        if (j != i) {
          val v2 = b.cols(j)(i)          // sel(B_j, i)
          if (v2 != 0.0) {
            axpyInPlace(b.cols(j), b.cols(i), -v2)   // B_j <- B_j - B_i * v2
            axpyInPlace(br.cols(j), br.cols(i), -v2) // BR_j <- BR_j - BR_i * v2
          }
        }
        j += 1
      }
      i += 1
    }
    br
  }

  private def scaleInPlace(x: Array[Double], s: Double): Unit = {
    var i = 0
    while (i < x.length) { x(i) *= s; i += 1 }
  }

  private def axpyInPlace(y: Array[Double], x: Array[Double], alpha: Double): Unit = {
    var i = 0
    while (i < y.length) { y(i) += alpha * x(i); i += 1 }
  }

  // ---------------------------------------------------------------------
  // QR — modified Gram-Schmidt over columns (the paper's BAT baseline [12]).
  // ---------------------------------------------------------------------

  /** Thin QR decomposition via modified Gram-Schmidt: `a = Q * R` with
    * Q: n x k orthonormal columns and R: k x k upper triangular.
    */
  protected def bareQr(a: ColMatrix): (ColMatrix, ColMatrix) = {
    val k = a.nCols
    val q = a.copy()
    val r = ColMatrix.zeros(k, k)
    var j = 0
    while (j < k) {
      val qj = q.cols(j)
      var i = 0
      while (i < j) {
        val rij = dot(q.cols(i), qj)
        r.cols(j)(i) = rij
        axpyInPlace(qj, q.cols(i), -rij)
        i += 1
      }
      val nrm = norm2(qj)
      r.cols(j)(j) = nrm
      scaleInPlace(qj, 1.0 / nrm)
      j += 1
    }
    (q, r)
  }

  // ---------------------------------------------------------------------
  // Cholesky — column version, upper R with A = R^T R (R's chol convention).
  // ---------------------------------------------------------------------

  /** Cholesky factorisation of a symmetric positive-definite matrix.
    * Returns upper-triangular `R` such that `a = R^T * R`.
    */
  protected def bareChf(a: ColMatrix): ColMatrix = {
    val n = a.nRows
    val r = ColMatrix.zeros(n, n)
    var j = 0
    while (j < n) {
      var i = 0
      while (i <= j) {
        var s = a(i, j)
        var l = 0
        while (l < i) { s -= r.cols(i)(l) * r.cols(j)(l); l += 1 }
        if (i == j) {
          require(s > 0.0, "matrix is not positive definite")
          r.cols(j)(j) = math.sqrt(s)
        } else {
          r.cols(j)(i) = s / r.cols(i)(i)
        }
        i += 1
      }
      j += 1
    }
    r
  }

  // ---------------------------------------------------------------------
  // Determinant — Gaussian elimination with partial pivoting.
  // ---------------------------------------------------------------------

  /** Determinant via LU (Gaussian elimination, partial pivoting). */
  protected def bareDet(a: ColMatrix): Double = {
    val n = a.nRows
    val m = a.transpose.cols // row-major: m(i) is row i
    var d = 1.0
    var i = 0
    while (i < n) {
      var p = i
      var best = math.abs(m(i)(i))
      var r = i + 1
      while (r < n) {
        if (math.abs(m(r)(i)) > best) { best = math.abs(m(r)(i)); p = r }
        r += 1
      }
      if (best == 0.0) return 0.0
      if (p != i) { val t = m(i); m(i) = m(p); m(p) = t; d = -d }
      d *= m(i)(i)
      r = i + 1
      while (r < n) {
        val f = m(r)(i) / m(i)(i)
        if (f != 0.0) {
          var c = i
          while (c < n) { m(r)(c) -= f * m(i)(c); c += 1 }
        }
        r += 1
      }
      i += 1
    }
    d
  }

  // ---------------------------------------------------------------------
  // Symmetric eigen decomposition — cyclic Jacobi rotations.
  // ---------------------------------------------------------------------

  /** Eigen decomposition of a symmetric matrix via cyclic Jacobi rotations.
    * Each rotation is a column-pair operation on the working matrix and on
    * V, plus one strided pass over its rows p and q.
    */
  protected def bareEig(a: ColMatrix): (Array[Double], ColMatrix) = {
    val n = a.nRows
    val m = a.copy().cols // m(j)(i) is a(i, j)
    val v = ColMatrix.identity(n)
    val maxSweeps = 64
    var sweep = 0
    var off = frobenius(m, offDiag = true)
    val scale = frobenius(m) + Eps
    while (off > 1e-14 * scale && sweep < maxSweeps) {
      var p = 0
      while (p < n - 1) {
        var q = p + 1
        while (q < n) {
          val apq = m(q)(p)
          if (math.abs(apq) > 1e-300) {
            val app = m(p)(p); val aqq = m(q)(q)
            val theta = (aqq - app) / (2.0 * apq)
            val t =
              if (theta >= 0) 1.0 / (theta + math.sqrt(1.0 + theta * theta))
              else 1.0 / (theta - math.sqrt(1.0 + theta * theta))
            val c = 1.0 / math.sqrt(1.0 + t * t)
            val s = t * c
            rotateCols(m(p), m(q), c, s)
            var i = 0
            while (i < n) {
              val mi = m(i); val mpi = mi(p); val mqi = mi(q)
              mi(p) = c * mpi - s * mqi
              mi(q) = s * mpi + c * mqi
              i += 1
            }
            rotateCols(v.cols(p), v.cols(q), c, s)
          }
          q += 1
        }
        p += 1
      }
      off = frobenius(m, offDiag = true)
      sweep += 1
    }
    (Array.tabulate(n)(i => m(i)(i)), v)
  }

  /** Frobenius norm of the square column-major `m`, summed row by row; of
    * its off-diagonal entries only when `offDiag`.
    */
  private def frobenius(m: Array[Array[Double]], offDiag: Boolean = false): Double = {
    var s = 0.0
    var i = 0
    while (i < m.length) {
      var j = 0
      while (j < m.length) {
        if (!offDiag || i != j) s += m(j)(i) * m(j)(i)
        j += 1
      }
      i += 1
    }
    math.sqrt(s)
  }

  // ---------------------------------------------------------------------
  // SVD — one-sided Jacobi (column-pair rotations on A, accumulate V).
  // ---------------------------------------------------------------------

  /** Thin SVD `a = U * diag(s) * V^T` via one-sided Jacobi.
    * For n >= k returns (U: n x k, s: length k, V: k x k).
    * For n < k the decomposition of the transpose is used and factors are
    * swapped.
    */
  protected def bareSvd(a: ColMatrix): (ColMatrix, Array[Double], ColMatrix) =
    if (a.nRows < a.nCols) {
      val (u, s, v) = svdTall(a.transpose)
      (v, s, u)
    } else svdTall(a)

  private def svdTall(a: ColMatrix): (ColMatrix, Array[Double], ColMatrix) = {
    val n = a.nRows; val k = a.nCols
    val u = a.copy()
    val v = ColMatrix.identity(k)
    val maxSweeps = 96
    var rotated = true
    var sweep = 0
    while (rotated && sweep < maxSweeps) {
      rotated = false
      var p = 0
      while (p < k - 1) {
        var q = p + 1
        while (q < k) {
          val cp = u.cols(p); val cq = u.cols(q)
          val alpha = dot(cp, cp); val beta = dot(cq, cq); val gamma = dot(cp, cq)
          if (math.abs(gamma) > Eps * math.sqrt(alpha * beta) && gamma != 0.0) {
            rotated = true
            val zeta = (beta - alpha) / (2.0 * gamma)
            val t =
              if (zeta >= 0) 1.0 / (zeta + math.sqrt(1.0 + zeta * zeta))
              else 1.0 / (zeta - math.sqrt(1.0 + zeta * zeta))
            val c = 1.0 / math.sqrt(1.0 + t * t)
            val s = t * c
            rotateCols(cp, cq, c, s)
            rotateCols(v.cols(p), v.cols(q), c, s)
          }
          q += 1
        }
        p += 1
      }
      sweep += 1
    }
    val sigma = Array.tabulate(k)(j => norm2(u.cols(j)))
    val maxSigma = sigma.foldLeft(0.0)(math.max)
    val tol = math.max(n, k) * Eps * math.max(maxSigma, 1e-300)
    var j = 0
    while (j < k) {
      if (sigma(j) > tol) scaleInPlace(u.cols(j), 1.0 / sigma(j))
      else { sigma(j) = 0.0; java.util.Arrays.fill(u.cols(j), 0.0) }
      j += 1
    }
    // Zero-sigma U columns are replaced by an orthonormal completion so U
    // keeps orthonormal columns even for rank-deficient input.
    fillZeroColumns(u)
    (u, sigma, v)
  }

  private def rotateCols(x: Array[Double], y: Array[Double], c: Double, s: Double): Unit = {
    var i = 0
    while (i < x.length) {
      val xi = x(i); val yi = y(i)
      x(i) = c * xi - s * yi
      y(i) = s * xi + c * yi
      i += 1
    }
  }

  private def fillZeroColumns(u: ColMatrix): Unit = {
    val zeroIdx = (0 until u.nCols).filter(j => norm2(u.cols(j)) == 0.0)
    if (zeroIdx.isEmpty) return
    val basis = completeBasis(u, keepCols = (0 until u.nCols).filterNot(zeroIdx.contains))
    var b = 0
    zeroIdx.foreach { j =>
      u.cols(j) = basis(b); b += 1
    }
  }

  /** Orthonormal columns extending `keepCols` of `u` to a larger basis;
    * returns the newly added columns (Gram-Schmidt against the kept ones,
    * candidates drawn from the standard basis).
    */
  private def completeBasis(u: ColMatrix, keepCols: Seq[Int]): Array[Array[Double]] = {
    val n = u.nRows
    val existing = scala.collection.mutable.ArrayBuffer[Array[Double]]()
    keepCols.foreach(j => existing += u.cols(j))
    val added = scala.collection.mutable.ArrayBuffer[Array[Double]]()
    var e = 0
    while (e < n && existing.length < n) {
      val cand = new Array[Double](n); cand(e) = 1.0
      existing.foreach(q => axpyInPlace(cand, q, -dot(q, cand)))
      val nrm = norm2(cand)
      if (nrm > 1e-8) {
        scaleInPlace(cand, 1.0 / nrm)
        existing += cand
        added += cand
      }
      e += 1
    }
    require(existing.length == n, "completeBasis: failed to complete basis")
    added.toArray
  }

  /** Complete a matrix with orthonormal columns to a square orthonormal
    * matrix (deterministic Gram-Schmidt against the standard basis). `usv`
    * applies it to either backend's thin U, so its results agree.
    */
  def completeToSquare(uThin: ColMatrix): ColMatrix = {
    if (uThin.nCols == uThin.nRows) uThin
    else {
      val extra = completeBasis(uThin, uThin.cols.indices)
      new ColMatrix(uThin.cols ++ extra, uThin.nRows)
    }
  }
}

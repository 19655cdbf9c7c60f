package repro.matrix

import breeze.linalg.{DenseMatrix, cholesky, eigSym => beigSym, qr => bqr, svd => bsvd}

/** The "delegate to a specialised library" backend: analog of RMA+MKL.
  *
  * Like the paper's MKL path, data must first be copied from the columnar
  * layout into a contiguous dense format (Breeze's column-major
  * `DenseMatrix`, backed by netlib BLAS/LAPACK), and the result copied back.
  * The copy time is instrumented ([[BreezeBackend.lastConvertNanos]]) so the
  * transformation-share experiment (paper Figure 14) can report the same
  * breakdown the paper does.
  */
object BreezeBackend extends MatrixBackend {
  val name = "breeze"

  /** Nanoseconds spent converting ColMatrix <-> DenseMatrix in the most
    * recent operation (driver-side, not thread-safe — bench use only).
    */
  @volatile var lastConvertNanos: Long = 0L

  private def resetTimer(): Unit = lastConvertNanos = 0L

  private def timeConvert[A](f: => A): A = {
    val t0 = System.nanoTime()
    val r = f
    lastConvertNanos += System.nanoTime() - t0
    r
  }

  /** Copy the columnar matrix to a contiguous column-major dense array —
    * the analog of copying BATs to the MKL input format.
    */
  private def toDense(a: ColMatrix): DenseMatrix[Double] = timeConvert {
    val n = a.nRows; val k = a.nCols
    val data = new Array[Double](n * k)
    var j = 0
    while (j < k) {
      System.arraycopy(a.cols(j), 0, data, j * n, n)
      j += 1
    }
    new DenseMatrix(n, k, data)
  }

  /** Copy a dense result back into columnar layout. */
  private def fromDense(m: DenseMatrix[Double]): ColMatrix = timeConvert {
    val d =
      if (!m.isTranspose && m.offset == 0 && m.majorStride == m.rows) m
      else m.copy
    val n = d.rows; val k = d.cols
    val cols = Array.ofDim[Array[Double]](k)
    var j = 0
    while (j < k) {
      val c = new Array[Double](n)
      System.arraycopy(d.data, d.offset + j * d.majorStride, c, 0, n)
      cols(j) = c
      j += 1
    }
    new ColMatrix(cols, n)
  }

  def add(a: ColMatrix, b: ColMatrix): ColMatrix = { resetTimer(); fromDense(toDense(a) + toDense(b)) }
  def sub(a: ColMatrix, b: ColMatrix): ColMatrix = { resetTimer(); fromDense(toDense(a) - toDense(b)) }
  def emu(a: ColMatrix, b: ColMatrix): ColMatrix = { resetTimer(); fromDense(toDense(a) *:* toDense(b)) }

  def mmu(a: ColMatrix, b: ColMatrix): ColMatrix = {
    resetTimer()
    require(a.nCols == b.nRows, s"mmu: inner dimensions differ (${a.nCols} vs ${b.nRows})")
    fromDense(toDense(a) * toDense(b))
  }

  def tra(a: ColMatrix): ColMatrix = { resetTimer(); fromDense(toDense(a).t) }

  def cpd(a: ColMatrix, b: ColMatrix): ColMatrix = {
    resetTimer()
    require(a.nRows == b.nRows, s"cpd: row counts differ (${a.nRows} vs ${b.nRows})")
    fromDense(toDense(a).t * toDense(b))
  }

  def opd(a: ColMatrix, b: ColMatrix): ColMatrix = {
    resetTimer()
    require(a.nCols == b.nCols, s"opd: column counts differ (${a.nCols} vs ${b.nCols})")
    fromDense(toDense(a) * toDense(b).t)
  }

  def inv(a: ColMatrix): ColMatrix = {
    resetTimer()
    require(a.nCols == a.nRows, s"inv: matrix must be square, got ${a.nRows}x${a.nCols}")
    fromDense(breeze.linalg.inv(toDense(a)))
  }

  def det(a: ColMatrix): Double = {
    resetTimer()
    require(a.nCols == a.nRows, s"det: matrix must be square, got ${a.nRows}x${a.nCols}")
    breeze.linalg.det(toDense(a))
  }

  def rnk(a: ColMatrix): Int = { resetTimer(); breeze.linalg.rank(toDense(a)) }

  def chf(a: ColMatrix): ColMatrix = {
    resetTimer()
    require(Kernels.isSymmetric(a), "chol: matrix must be symmetric")
    // Breeze returns lower L with a = L * L^T; our convention is upper R
    // with a = R^T * R (R's chol), so return L^T.
    fromDense(cholesky(toDense(a)).t)
  }

  def qr(a: ColMatrix): (ColMatrix, ColMatrix) = {
    resetTimer()
    require(a.nRows >= a.nCols, s"qr: need rows >= cols, got ${a.nRows}x${a.nCols}")
    val blocks = tsqrBlocks(a)
    if (blocks > 1) tsqr(a, blocks)
    else {
      val f = bqr.reduced(toDense(a))
      Canon.canonQr(fromDense(f.q), fromDense(f.r))
    }
  }

  private val Threads = math.max(1, Runtime.getRuntime.availableProcessors)

  // LAPACK's pure-Java fallback (F2J) computes its machine constants on the
  // first dlamch call in unsynchronised statics, and concurrent first calls
  // can return or cache a wrong epsilon. Compute them once, here, before the
  // TSQR threads can make that first call.
  dev.ludovic.netlib.lapack.LAPACK.getInstance().dlamch("e")

  private def tsqrBlocks(a: ColMatrix): Int =
    if (a.nRows < 65536) 1
    else math.max(1, math.min(Threads, a.nRows / math.max(1, 8 * a.nCols)))

  /** Multi-threaded tall-skinny QR (TSQR): factor row blocks in parallel,
    * QR the stacked R factors, recombine. This is how the delegation backend
    * "leverages the underlying hardware" like the paper's multi-core MKL —
    * netlib's pure-Java LAPACK is single-threaded, so the blocking supplies
    * the parallelism. Produces the same canonical (Q, R) as the plain path.
    */
  private def tsqr(a: ColMatrix, blocks: Int): (ColMatrix, ColMatrix) = {
    val n = a.nRows; val k = a.nCols
    val convertNanos = new java.util.concurrent.atomic.AtomicLong()
    val bounds = {
      val step = n / blocks
      (0 until blocks).map(b => (b * step, if (b == blocks - 1) n else (b + 1) * step))
    }
    def denseBlock(lo: Int, hi: Int): DenseMatrix[Double] = {
      val t0 = System.nanoTime()
      val len = hi - lo
      val data = new Array[Double](len * k)
      var j = 0
      while (j < k) { System.arraycopy(a.cols(j), lo, data, j * len, len); j += 1 }
      convertNanos.addAndGet(System.nanoTime() - t0)
      new DenseMatrix(len, k, data)
    }
    val pool = java.util.concurrent.Executors.newFixedThreadPool(Threads)
    try {
      import scala.jdk.CollectionConverters._
      val stage1 = pool.invokeAll(bounds.map { case (lo, hi) =>
        new java.util.concurrent.Callable[(DenseMatrix[Double], DenseMatrix[Double])] {
          def call() = { val f = bqr.reduced(denseBlock(lo, hi)); (f.q, f.r) }
        }
      }.asJava).asScala.map(_.get()).toIndexedSeq
      // QR of the stacked per-block R factors gives the final R and the
      // k-x-k combination blocks of Q.
      val f2 = bqr.reduced(DenseMatrix.vertcat(stage1.map(_._2): _*))
      val qCols = Array.fill(k)(new Array[Double](n))
      pool.invokeAll(bounds.indices.map { b =>
        new java.util.concurrent.Callable[Unit] {
          def call(): Unit = {
            val (lo, hi) = bounds(b)
            val qb = stage1(b)._1 * f2.q(b * k until (b + 1) * k, ::)
            val t0 = System.nanoTime()
            val len = hi - lo
            val d = if (qb.isTranspose) qb.copy else qb
            var j = 0
            while (j < k) {
              System.arraycopy(d.data, d.offset + j * d.majorStride, qCols(j), lo, len)
              j += 1
            }
            convertNanos.addAndGet(System.nanoTime() - t0)
          }
        }
      }.asJava).asScala.foreach(_.get())
      lastConvertNanos += convertNanos.get()
      Canon.canonQr(new ColMatrix(qCols, n), fromDense(f2.r))
    } finally pool.shutdown()
  }

  def svd(a: ColMatrix): (ColMatrix, Array[Double], ColMatrix) = {
    resetTimer()
    val f = bsvd.reduced(toDense(a))
    Canon.canonSvd(fromDense(f.leftVectors), f.singularValues.toArray, fromDense(f.rightVectors.t))
  }

  def svdFullU(a: ColMatrix): ColMatrix = {
    // Same completion as the columnar backend so both agree exactly.
    val (uThin, _, _) = svd(a)
    Kernels.completeToSquare(uThin)
  }

  def eig(a: ColMatrix): (Array[Double], ColMatrix) = {
    resetTimer()
    require(Kernels.isSymmetric(a), "eig: only symmetric matrices are supported (see DESIGN.md)")
    val f = beigSym(toDense(a))
    Canon.canonEig(f.eigenvalues.toArray, fromDense(f.eigenvectors))
  }

  def sol(a: ColMatrix, b: ColMatrix): ColMatrix = {
    resetTimer()
    require(a.nRows == b.nRows, s"solve: row counts differ (${a.nRows} vs ${b.nRows})")
    fromDense(toDense(a) \ toDense(b))
  }
}

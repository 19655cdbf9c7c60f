package repro.matrix

import java.util.concurrent.{Callable, Executors}
import java.util.concurrent.atomic.LongAdder

import scala.jdk.CollectionConverters._
import scala.util.DynamicVariable

import breeze.linalg.{DenseMatrix, MatrixSingularException, NotConvergedException, cholesky,
  eigSym => beigSym, qr => bqr, svd => bsvd}

/** The "delegate to a specialised library" backend: analog of RMA+MKL.
  *
  * Like the paper's MKL path, data must first be copied from the columnar
  * layout into a contiguous dense format (Breeze's column-major
  * `DenseMatrix`, backed by netlib BLAS/LAPACK), and the result copied back.
  * Every copy goes through `toDense` or `copyBack`, and
  * [[BreezeBackend.countingCopies]] reports their time, so the
  * transformation-share experiment (paper Figure 14) can report the same
  * breakdown the paper does; `add` and `emu` are there for it alone, since
  * the algebra keeps the element-wise ops on [[Kernels]]. It writes the bare
  * kernels only ([[MatrixBackend]] checks and canonicalises), and raises
  * LAPACK's faults in the columnar kernels' words. The backend itself keeps
  * no state.
  */
object BreezeBackend extends MatrixBackend {
  val name = "breeze"

  /** Copy-time counter of the innermost [[countingCopies]] scope of this
    * thread; null outside a scope, so production calls time nothing.
    */
  private val copyNanos = new DynamicVariable[LongAdder](null)

  /** Run `body` and return its result with the nanoseconds it spent copying
    * between [[ColMatrix]] and `DenseMatrix`, summed over threads (TSQR's
    * pool threads included). Copies inside a nested scope count only there.
    */
  def countingCopies[A](body: => A): (A, Long) = {
    val counter = new LongAdder
    val result = copyNanos.withValue(counter)(body)
    (result, counter.sum)
  }

  private def timed[A](counter: LongAdder)(copy: => A): A =
    if (counter eq null) copy
    else {
      val t0 = System.nanoTime()
      val r = copy
      counter.add(System.nanoTime() - t0)
      r
    }

  /** Copy rows `[lo, hi)` of the columnar matrix to a contiguous
    * column-major dense array — the analog of copying BATs to the MKL input
    * format.
    */
  private def toDense(a: ColMatrix, lo: Int, hi: Int): DenseMatrix[Double] = {
    val len = hi - lo; val k = a.nCols
    val data = new Array[Double](len * k)
    for (j <- 0 until k) System.arraycopy(a.cols(j), lo, data, j * len, len)
    new DenseMatrix(len, k, data)
  }

  /** Copy a dense matrix into the column arrays `cols`, from row `lo` on. */
  private def copyBack(m: DenseMatrix[Double], cols: Array[Array[Double]], lo: Int): Unit = {
    val d = if (m.isTranspose) m.copy else m
    for (j <- 0 until d.cols) System.arraycopy(d.data, d.offset + j * d.majorStride, cols(j), lo, d.rows)
  }

  private def toDense(a: ColMatrix): DenseMatrix[Double] =
    timed(copyNanos.value)(toDense(a, 0, a.nRows))

  private def fromDense(m: DenseMatrix[Double]): ColMatrix = timed(copyNanos.value) {
    val cols = Array.fill(m.cols)(new Array[Double](m.rows))
    copyBack(m, cols, 0)
    new ColMatrix(cols, m.rows)
  }

  def add(a: ColMatrix, b: ColMatrix): ColMatrix = fromDense(toDense(a) + toDense(b))
  def emu(a: ColMatrix, b: ColMatrix): ColMatrix = fromDense(toDense(a) *:* toDense(b))

  protected def bareMmu(a: ColMatrix, b: ColMatrix): ColMatrix = fromDense(toDense(a) * toDense(b))

  protected def bareCpd(a: ColMatrix, b: ColMatrix): ColMatrix = fromDense(toDense(a).t * toDense(b))

  protected def bareInv(a: ColMatrix): ColMatrix = fromDense(worded(breeze.linalg.inv(toDense(a))))

  /** Runs a LAPACK call of inv or chf, raising its fault in the
    * columnar kernels' words.
    */
  private def worded[A](call: => A): A =
    try call catch {
      case e: MatrixSingularException =>
        throw new IllegalArgumentException("requirement failed: matrix is singular", e)
      case e: NotConvergedException =>
        throw new IllegalArgumentException("requirement failed: matrix is not positive definite", e)
    }

  protected def bareDet(a: ColMatrix): Double = breeze.linalg.det(toDense(a))

  protected def bareChf(a: ColMatrix): ColMatrix = {
    // Breeze returns lower L with a = L * L^T; our convention is upper R
    // with a = R^T * R (R's chol), so return L^T.
    fromDense(worded(cholesky(toDense(a))).t)
  }

  protected def bareQr(a: ColMatrix): (ColMatrix, ColMatrix) = {
    val blocks = tsqrBlocks(a)
    if (blocks > 1) tsqr(a, blocks)
    else {
      val f = bqr.reduced(toDense(a))
      (fromDense(f.q), fromDense(f.r))
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
    * the parallelism. Produces the same (Q, R) as the plain path, up to signs.
    */
  private def tsqr(a: ColMatrix, blocks: Int): (ColMatrix, ColMatrix) = {
    val n = a.nRows; val k = a.nCols
    val counter = copyNanos.value // the pool threads count into the caller's scope
    val bounds = {
      val step = n / blocks
      (0 until blocks).map(b => (b * step, if (b == blocks - 1) n else (b + 1) * step))
    }
    val pool = Executors.newFixedThreadPool(Threads)
    def perBlock[T](task: Int => T): IndexedSeq[T] =
      pool.invokeAll(bounds.indices.map(b => (() => task(b)): Callable[T]).asJava)
        .asScala.map(_.get()).toIndexedSeq
    try {
      val stage1 = perBlock { b =>
        val (lo, hi) = bounds(b)
        val f = bqr.reduced(timed(counter)(toDense(a, lo, hi)))
        (f.q, f.r)
      }
      // QR of the stacked per-block R factors gives the final R and the
      // k-x-k combination blocks of Q.
      val f2 = bqr.reduced(DenseMatrix.vertcat(stage1.map(_._2): _*))
      val qCols = Array.fill(k)(new Array[Double](n))
      perBlock { b =>
        val qb = stage1(b)._1 * f2.q(b * k until (b + 1) * k, ::)
        timed(counter)(copyBack(qb, qCols, bounds(b)._1))
      }
      (new ColMatrix(qCols, n), fromDense(f2.r))
    } finally pool.shutdown()
  }

  protected def bareSvd(a: ColMatrix): (ColMatrix, Array[Double], ColMatrix) = {
    val f = bsvd.reduced(toDense(a))
    (fromDense(f.leftVectors), f.singularValues.toArray, fromDense(f.rightVectors.t))
  }

  protected def bareEig(a: ColMatrix): (Array[Double], ColMatrix) = {
    val f = beigSym(toDense(a))
    (f.eigenvalues.toArray, fromDense(f.eigenvectors))
  }
}

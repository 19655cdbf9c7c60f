package repro.matrix

import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger}

import org.scalatest.funsuite.AnyFunSuite

/** [[BreezeBackend.countingCopies]] reports the time its scope spent copying
  * between ColMatrix and DenseMatrix, without changing any result, and sees
  * nothing of the copies made outside it.
  */
class CountingCopiesSpec extends AnyFunSuite {
  import MatrixTestUtil._

  private def assertIdentical(got: ColMatrix, expected: ColMatrix, what: String): Unit = {
    assert(got.nRows == expected.nRows && got.nCols == expected.nCols, s"$what: shape")
    for (j <- 0 until got.nCols)
      assert(java.util.Arrays.equals(got.cols(j), expected.cols(j)), s"$what: column $j differs")
  }

  test("add under countingCopies reads a positive copy time and returns the unscoped result") {
    val a = rnd(2000, 20, 1); val b = rnd(2000, 20, 2)
    val (sum, nanos) = BreezeBackend.countingCopies(BreezeBackend.add(a, b))
    assert(nanos > 0)
    assertIdentical(sum, BreezeBackend.add(a, b), "add")
  }

  test("countingCopies counts the copies made by TSQR's pool threads") {
    val a = rnd(200000, 10, 3) // above the 65536-row TSQR cutoff
    val ((q, r), nanos) = BreezeBackend.countingCopies(BreezeBackend.qr(a))
    val (q0, r0) = BreezeBackend.qr(a)
    assertIdentical(q, q0, "Q")
    assertIdentical(r, r0, "R")
    // The caller thread copies only the 10x10 R. The pool threads copy A in
    // and Q out, 2 x 16 MB: 100 µs for that would take 320 GB/s.
    assert(nanos > 100000L, s"counted $nanos ns")
  }

  test("an empty scope reads 0 ns while another thread runs Breeze ops unscoped") {
    val a = rnd(500, 50, 4)
    val stop = new AtomicBoolean
    val done = new AtomicInteger
    val other = new Thread(() => while (!stop.get) { BreezeBackend.add(a, a); done.incrementAndGet() })
    other.start()
    try {
      while (done.get < 10) Thread.sleep(1)
      val before = done.get
      val (_, nanos) = BreezeBackend.countingCopies(Thread.sleep(50))
      assert(done.get > before, "the other thread ran Breeze ops during the scope")
      assert(nanos == 0L)
    } finally {
      stop.set(true)
      other.join()
    }
  }
}

package repro.core

import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.time.SpanSugar._

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.repro.SparkJobs
import org.apache.spark.sql.types.{DoubleType, StringType}

import repro.matrix.{BreezeBackend, ColMatrix, Kernels, MatrixBackend}

/** Validation behaviour: order schemas must be keys, application schemas
  * numeric, shapes compatible — with actionable error messages.
  */
class ErrorsSpec extends RmaFixtures with TimeLimits {

  test("order schema must exist in the relation") {
    val e = intercept[IllegalArgumentException] { Rma.inv(weather, Seq("nope")) }
    assert(e.getMessage.contains("not in schema"))
  }

  test("order schema must not be empty") {
    intercept[IllegalArgumentException] { Rma.inv(weather, Seq.empty) }
  }

  test("order schema must not repeat attributes") {
    intercept[IllegalArgumentException] { Rma.qqr(weather, Seq("T", "T")) }
  }

  test("application schema must be non-empty") {
    val e = intercept[IllegalArgumentException] { Rma.qqr(weather, Seq("T", "H", "W")) }
    assert(e.getMessage.contains("application schema is empty"))
  }

  test("application schema must be numeric") {
    val df = makeDf(Seq("k" -> StringType, "tag" -> StringType, "v" -> DoubleType),
      Seq(Seq("r1", "x", 1.0)))
    val e = intercept[IllegalArgumentException] { Rma.qqr(df, Seq("k")) }
    assert(e.getMessage.contains("not numeric"))
  }

  test("order schema must be a key (collect path)") {
    val dup = makeDf(Seq("k" -> StringType, "v" -> DoubleType),
      Seq(Seq("r1", 1.0), Seq("r1", 2.0)))
    val e = intercept[IllegalArgumentException] { Rma.qqr(dup, Seq("k")) }
    assert(e.getMessage.contains("not a key"))
  }

  test("order schema must be a key (distributed path)") {
    val dup = makeDf(Seq("k" -> StringType, "v" -> DoubleType),
      Seq(Seq("r1", 1.0), Seq("r1", 2.0)))
    val ok = makeDf(Seq("m" -> StringType, "v" -> DoubleType),
      Seq(Seq("s1", 1.0), Seq("s2", 2.0)))
    val e = intercept[IllegalArgumentException] { Rma.add(dup, Seq("k"), ok, Seq("m")) }
    assert(e.getMessage.contains("not a key"))
  }

  test("element-wise ops require equal cardinalities") {
    val small = makeDf(Seq("m" -> StringType, "h" -> DoubleType, "w" -> DoubleType),
      Seq(Seq("s1", 1.0, 2.0)))
    onBothRoutes { in =>
      val e = intercept[IllegalArgumentException] { Rma.add(in(weather), Seq("T"), in(small), Seq("m")) }
      assert(e.getMessage.contains("row counts differ"))
      assert(e.getMessage.contains("add: "), "the message names the op")
    }
  }

  test("usv requires a single-attribute order schema") {
    val e = intercept[IllegalArgumentException] { Rma.usv(weather, Seq("T", "H")) }
    assert(e.getMessage.contains("single order attribute"))
  }

  test("a column cast with several order attributes is rejected before the kernel runs") {
    val backend = new CountingBackend
    val cfg = RmaConfig(backend = backend)
    val s2 = makeDf(Seq("m" -> StringType, "n" -> StringType, "x" -> DoubleType, "y" -> DoubleType),
      Seq(Seq("s1", "t1", 3.0, 1.0), Seq("s2", "t2", 4.0, 2.0)))
    val calls = Seq(
      "usv" -> (() => Rma.usv(weather, Seq("T", "H"), cfg)),
      "tra" -> (() => Rma.tra(weather, Seq("T", "H"), cfg)),
      "opd" -> (() => Rma.opd(weather, Seq("T"), s2, Seq("m", "n"), cfg)))
    for ((op, call) <- calls) withClue(s"$op: ") {
      val e = intercept[IllegalArgumentException] { call() }
      assert(e.getMessage.contains(s"$op: column cast requires a single order attribute"))
    }
    assert(backend.calls.isEmpty, s"kernels ran: ${backend.calls}")
  }

  test("nulls in the application part are rejected") {
    val df = makeDf(Seq("k" -> StringType, "v" -> DoubleType),
      Seq(Seq("r1", 1.0), Seq("r2", null)))
    val e = intercept[IllegalArgumentException] { Rma.qqr(df, Seq("k")) }
    assert(e.getMessage.contains("null"))
  }

  test("duplicate result attribute names are rejected (tra with clashing values)") {
    // key values H, W clash with... nothing here; clash C with a key value 'C'
    val df = makeDf(Seq("k" -> StringType, "a" -> DoubleType),
      Seq(Seq("C", 1.0), Seq("D", 2.0)))
    val e = intercept[IllegalArgumentException] { Rma.tra(df, Seq("k")) }
    assert(e.getMessage.contains("tra: result relation would have duplicate attribute names"))
  }

  test("a clash of result attribute names names the op on both element-wise routes") {
    // The result reads T, H (s's order attribute), then weather's H and W.
    val s = makeDf(Seq("H" -> StringType, "x" -> DoubleType, "y" -> DoubleType),
      Seq(Seq("a", 1.0, 2.0), Seq("b", 3.0, 4.0), Seq("c", 5.0, 6.0), Seq("d", 7.0, 8.0)))
    onBothRoutes { in =>
      val e = intercept[IllegalArgumentException] { Rma.add(in(weather), Seq("T"), in(s), Seq("H")) }
      assert(e.getMessage.contains("add: result relation would have duplicate attribute names"))
    }
  }

  test("cpd row-count mismatch is reported") {
    val small = makeDf(Seq("m" -> StringType, "x" -> DoubleType), Seq(Seq("s1", 1.0)))
    val e = intercept[IllegalArgumentException] { Rma.cpd(weather, Seq("T"), small, Seq("m")) }
    assert(e.getMessage.contains("row counts differ"))
  }

  /** Two 2x2 driver-local relations `r` and `s`, valid arguments of every
    * op, and `r` with a null.
    */
  private lazy val (argR, argS, argWithNull) = {
    def rel(key: String, rows: Seq[Seq[Any]]) =
      makeDf(Seq(key -> StringType, "a" -> DoubleType, "b" -> DoubleType), rows)
    (rel("k", Seq(Seq("r1", 4.0, 1.0), Seq("r2", 1.0, 3.0))),
      rel("m", Seq(Seq("s1", 2.0, -1.0), Seq("s2", 1.0, 2.0))),
      rel("k", Seq(Seq("r1", 4.0, 1.0), Seq("r2", null, 3.0))))
  }

  /** The arguments cached, so that a split before the checks would show as
    * a Spark job.
    */
  private def withCachedArgs(body: (DataFrame, DataFrame, DataFrame) => Unit): Unit =
    onRoute(distributed = true)(in => body(in(argR), in(argS), in(argWithNull)))

  test("a missing order attribute names the op and runs no Spark job, for every op and argument") {
    withCachedArgs { (r, s, _) =>
      for (op <- Rma.all; bad <- 0 until op.arity) withClue(s"${op.name}, argument $bad: ") {
        val args = Seq(r -> Seq("k"), s -> Seq("m")).take(op.arity)
        var e: IllegalArgumentException = null
        val jobs = SparkJobs.count(spark) {
          e = intercept[IllegalArgumentException] { Rma.eval(op, args.updated(bad, args(bad)._1 -> Seq("nope"))) }
        }
        assert(e.getMessage.startsWith(s"requirement failed: ${op.name}: "))
        assert(e.getMessage.contains("order schema attributes List(nope) not in schema"))
        assert(jobs == 0)
      }
    }
  }

  test("a null in a cached input names the op, for every op on both element-wise routes") {
    onBothRoutes { in =>
      val (s, withNull) = (in(argS), in(argWithNull))
      for (op <- Rma.all) withClue(s"${op.name}: ") {
        val args = Seq(withNull -> Seq("k"), s -> Seq("m")).take(op.arity)
        val e = intercept[IllegalArgumentException] { Rma.eval(op, args) }
        assert(e.getMessage.contains(s"${op.name}: null in application attribute a"))
      }
    }
  }

  test("a kernel fault names the op in the same words on both backends") {
    def rel(rows: Seq[Double]*) = makeDf(("k" -> StringType) +: rows.head.indices.map(j => s"a$j" -> DoubleType),
      rows.zipWithIndex.map { case (row, i) => s"r$i" +: row })
    val singular = rel(Seq(1.0, 2.0), Seq(2.0, 4.0))
    val asymmetric = rel(Seq(1.0, 2.0), Seq(0.0, 1.0))
    val wide = rel(Seq(1.0, 2.0, 3.0), Seq(4.0, 5.0, 6.0))
    val rankOne = rel(Seq(1.0, 2.0), Seq(2.0, 4.0), Seq(3.0, 6.0))
    val rhs = makeDf(Seq("m" -> StringType, "x" -> DoubleType), Seq(Seq("s0", 1.0), Seq("s1", 2.0)))
    val dependent = "column 1 is linearly dependent (rank-deficient input)"
    def unary(op: UnaryOp, r: DataFrame, why: String) = (op, (cfg: RmaConfig) => op(r, Seq("k"), cfg), why)
    val faults = Seq(
      unary(Rma.inv, singular, "matrix is singular"),
      unary(Rma.chf, rel(Seq(1.0, 2.0), Seq(2.0, 1.0)), "matrix is not positive definite"),
      unary(Rma.chf, asymmetric, "matrix must be symmetric"),
      unary(Rma.evc, asymmetric, "only symmetric matrices are supported"),
      unary(Rma.evl, asymmetric, "only symmetric matrices are supported"),
      unary(Rma.qqr, wide, "need rows >= cols, got 2x3"),
      unary(Rma.rqr, wide, "need rows >= cols, got 2x3"),
      unary(Rma.qqr, rankOne, dependent),
      unary(Rma.rqr, rankOne, dependent),
      (Rma.sol, (cfg: RmaConfig) => Rma.sol(singular, Seq("k"), rhs, Seq("m"), cfg), dependent))
    for (backend <- Seq(Kernels, BreezeBackend)) withClue(s"${backend.name}: ") {
      val cfg = RmaConfig(backend = backend)
      for ((op, call, why) <- faults) withClue(s"${op.name}: ") {
        val e = intercept[IllegalArgumentException] { call(cfg) }
        assert(e.getMessage.startsWith(s"requirement failed: ${op.name}: $why"))
      }
      val det = Rma.det(singular, Seq("k"), cfg).select("det").head().getDouble(0)
      assert(det == 0.0 && 1.0 / det > 0, s"det of a singular matrix reads $det, not +0.0")
    }
  }

  /** `call`'s outcome, or a test failure after 30 s if `call` does not return. */
  private def timeLimited[A](call: => A): A = {
    implicit val signaler: Signaler = ThreadSignaler
    val running = Future(call)(ExecutionContext.global)
    failAfter(30.seconds)(Await.result(running, Duration.Inf))
  }

  test("a factorisation rejects a non-finite value in the same words on both backends") {
    val rhs = makeDf(Seq("m" -> StringType, "x" -> DoubleType), Seq(Seq("s0", 1.0), Seq("s1", 2.0)))
    def rel(a00: Double) = makeDf(Seq("k" -> StringType, "a0" -> DoubleType, "a1" -> DoubleType),
      Seq(Seq("r0", a00, 1.0), Seq("r1", 1.0, 2.0)))
    val nonFinite = Seq(rel(Double.NaN), rel(Double.PositiveInfinity))
    val factorisations = Seq(Rma.inv, Rma.chf, Rma.qqr, Rma.rqr, Rma.usv, Rma.dsv, Rma.vsv, Rma.evc, Rma.evl, Rma.rnk)
    def bits(df: DataFrame) = df.collect().map(_.toSeq.map {
      case d: Double => java.lang.Double.doubleToLongBits(d)
      case v         => v
    }).toSeq
    for (r <- nonFinite) withClue(s"${r.collect().mkString}: ") {
      for (backend <- Seq(Kernels, BreezeBackend)) withClue(s"${backend.name}: ") {
        val cfg = RmaConfig(backend = backend)
        val calls = factorisations.map(op => op.name -> (() => op(r, Seq("k"), cfg))) :+
          ("sol" -> (() => Rma.sol(r, Seq("k"), rhs, Seq("m"), cfg)))
        for ((op, call) <- calls) withClue(s"$op: ") {
          val e = intercept[IllegalArgumentException] { timeLimited(call()) }
          assert(e.getMessage == s"requirement failed: $op: non-finite value in column 0")
        }
      }
      // The other kernels keep IEEE arithmetic, alike on both backends.
      for (op <- Seq(Rma.det, Rma.tra)) withClue(s"${op.name}: ") {
        val Seq(columnar, breeze) = Seq(Kernels, BreezeBackend).map(b =>
          timeLimited(bits(op(r, Seq("k"), RmaConfig(backend = b)))))
        assert(columnar == breeze)
      }
    }
  }

  test("element-wise ops never call the configured backend") {
    val backend = new CountingBackend
    val cfg = RmaConfig(backend = backend)
    onRoute(distributed = false) { in =>
      for (op <- Seq(Rma.add, Rma.sub, Rma.emu)) op(in(argR), Seq("k"), in(argS), Seq("m"), cfg).collect()
    }
    assert(backend.calls.isEmpty, s"kernels ran: ${backend.calls}")
  }

  /** The columnar kernels, counting calls per bare kernel; `opd`, `rnk` and
    * `sol` count as the kernels they are defined over, and `tra` as none.
    */
  private final class CountingBackend extends MatrixBackend {
    val calls: mutable.Map[String, Int] = mutable.Map.empty[String, Int].withDefaultValue(0)
    private def count[T](kernel: String)(body: => T): T = { calls(kernel) += 1; body }
    private val b = Kernels

    val name = "counting"
    protected def bareMmu(x: ColMatrix, y: ColMatrix): ColMatrix = count("mmu")(b.mmu(x, y))
    protected def bareCpd(x: ColMatrix, y: ColMatrix): ColMatrix = count("cpd")(b.cpd(x, y))
    protected def bareInv(x: ColMatrix): ColMatrix = count("inv")(b.inv(x))
    protected def bareDet(x: ColMatrix): Double = count("det")(b.det(x))
    protected def bareChf(x: ColMatrix): ColMatrix = count("chf")(b.chf(x))
    protected def bareQr(x: ColMatrix): (ColMatrix, ColMatrix) = count("qr")(b.qr(x))
    protected def bareSvd(x: ColMatrix): (ColMatrix, Array[Double], ColMatrix) = count("svd")(b.svd(x))
    protected def bareEig(x: ColMatrix): (Array[Double], ColMatrix) = count("eig")(b.eig(x))
  }
}

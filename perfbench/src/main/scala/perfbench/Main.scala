package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

/** One query attempt: its latency and why it failed, if it did. */
final case class Attempt(seconds: Double, error: Option[String]) {
  def ok: Boolean = error.isEmpty
}

object Runner {

  /** Time `run`, then check its result outside the timed part. An exception
    * from either counts as a failure.
    */
  def attempt[R](run: () => R, check: R => Option[String]): Attempt = {
    val t0 = System.nanoTime()
    try {
      val r = run()
      val dt = (System.nanoTime() - t0) / 1e9
      val error = try check(r) catch { case NonFatal(e) => Some(s"check threw $e") }
      Attempt(dt, error)
    } catch {
      case NonFatal(e) => Attempt((System.nanoTime() - t0) / 1e9, Some(e.toString))
    }
  }

  /** Closed loop, one client: the next query starts when the previous one has
    * returned, until `seconds` have passed.
    */
  def closedLoop(seconds: Double)(one: Int => Attempt): IndexedSeq[Attempt] = {
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    val out = IndexedSeq.newBuilder[Attempt]
    var i = 0
    while (i == 0 || System.nanoTime() < deadline) {
      out += one(i)
      i += 1
    }
    out.result()
  }
}

/** The RMA benchmark driver: one JVM, `local[cores]`, one closed-loop client.
  *
  * {{{
  * Main --workload qqr_tall --seed 1 --seconds 10 --trace 0 --out DIR --cores 4
  * }}}
  * The last line of standard output is the result object; see README.md.
  */
object Main {
  val ShufflePartitions = 8
  val SetupRepeats = 3
  val WarmupQueries = 1
  val SettleQueries = 12

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: String, cores: Int, commit: String, sourceSha: String)

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = get("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    Args(get("workload"), get("seed").toLong, get("seconds").toDouble, trace == "1", get("out"),
      get("cores").toInt, m.getOrElse("commit", "unknown"), m.getOrElse("source-sha", "unknown"))
  }

  def newSession(a: Args): SparkSession =
    SparkSession.builder()
      .master(s"local[${a.cores}]")
      .appName("rma-perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(a.out, "spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", Paths.get(a.out, "warehouse").toAbsolutePath.toString)
      .getOrCreate()

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val w = Workload.byName(a.workload)
    Files.createDirectories(Paths.get(a.out))
    var spark: SparkSession = null
    try {
      // Set-up, repeated: session start, input generation and caching, and
      // warm-up queries (the first queries of a JVM run 2-3x slower).
      val warmupErrors = IndexedSeq.newBuilder[String]
      val setupSeconds = (1 to SetupRepeats).map { _ =>
        if (spark != null) spark.stop()
        val t0 = System.nanoTime()
        spark = newSession(a)
        spark.sparkContext.setLogLevel("WARN")
        w.setup(spark, a.seed, a.cores)
        (1 to WarmupQueries).foreach { _ =>
          Runner.attempt(() => w.query(), w.check).error.foreach(warmupErrors += _)
        }
        (System.nanoTime() - t0) / 1e9
      }
      // The first queries after the last set-up still ran up to 1.3-2x slower
      // than later ones, so more warm-up queries run before timing starts.
      // They are checked but belong to neither set-up nor the timed loop.
      val settleStart = System.nanoTime()
      (1 to SettleQueries).foreach { _ =>
        JvmCounters.resetPeakHeap()
        Runner.attempt(() => w.query(), w.check).error.foreach(warmupErrors += _)
      }
      val settleSeconds = (System.nanoTime() - settleStart) / 1e9
      val provenance = Provenance(a, w, spark)
      println("provenance " + Json.obj(provenance))

      val peaks = IndexedSeq.newBuilder[Double]
      val untracedQuery = () => {
        JvmCounters.resetPeakHeap()
        val at = Runner.attempt(() => w.query(), w.check)
        peaks += JvmCounters.peakHeapMb()
        at
      }
      val traced =
        if (a.trace) Some(Traced.run(spark, w, a.seconds, untracedQuery))
        else None
      val untraced = traced.fold(Runner.closedLoop(a.seconds)(_ => untracedQuery()))(_.untraced)
      val endToEnd = EndToEnd(untraced, peaks.result(), setupSeconds, settleSeconds, w.inputCells)
      traced.foreach { t =>
        t.tracer.writeJsonl(Paths.get(a.out, s"spans-${w.name}-seed${a.seed}.jsonl"))
        t.summary.foreach(println)
      }
      val attempts = traced.fold(untraced)(_.attempts)
      val metrics = traced.fold(endToEnd.metrics)(_.metrics)
      val errors = warmupErrors.result() ++ attempts.flatMap(_.error)
      errors.distinct.take(5).foreach(e => System.err.println(s"[perfbench] failed: $e"))
      println(endToEnd.summary)
      val failed = attempts.count(!_.ok)
      println(Json.obj(Seq(
        "correct" -> errors.isEmpty,
        "attempted" -> attempts.length,
        "failed" -> failed,
        "metrics" -> Json.Raw(Json.obj(metrics.map { case (k, (v, unit)) =>
          k -> Json.Raw(Json.obj(Seq("value" -> v, "unit" -> unit)))
        })))))
    } finally if (spark != null) spark.stop()
  }
}

/** End-to-end metrics of the untraced loop. */
final case class EndToEnd(attempts: IndexedSeq[Attempt], peaks: IndexedSeq[Double],
                          setupSeconds: IndexedSeq[Double], settleSeconds: Double, inputCells: Long) {
  private val okTimes = attempts.filter(_.ok).map(_.seconds)
  private val times = if (okTimes.nonEmpty) okTimes else attempts.map(_.seconds)
  val p50: Double = Stats.median(times)
  val (tail, tailPercentile) = Stats.tail(times)

  def metrics: Seq[(String, (Double, String))] = Seq(
    "query_p50_s" -> (p50, "s"),
    "query_tail_s" -> (tail, "s"),
    "cells_per_s" -> (okTimes.length * inputCells.toDouble / attempts.map(_.seconds).sum, "1/s"),
    "setup_s" -> (Stats.median(setupSeconds), "s"),
    "peak_heap_mb" -> (Stats.median(peaks), "MB"))

  def summary: String = {
    val failed = attempts.count(!_.ok)
    f"summary queries=${attempts.length} failed=$failed fail_frac=${failed.toDouble / attempts.length}%.4f " +
      f"p50=$p50%.4fs tail=p$tailPercentile%.1f:$tail%.4fs (samples=${times.length}, 10 beyond) " +
      s"setup_runs=${setupSeconds.map(s => f"$s%.3f").mkString("[", ",", "]")} " +
      f"settle_s=$settleSeconds%.3f"
  }
}

object Provenance {
  def apply(a: Main.Args, w: Workload, spark: SparkSession): Seq[(String, Any)] = Seq(
    "workload" -> w.name,
    "seed" -> a.seed,
    "input_size" -> w.inputSize,
    "input_cells_per_query" -> w.inputCells,
    "nproc" -> Runtime.getRuntime.availableProcessors(),
    "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
    "heap_flags" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-Xm")).toSeq,
    "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).toSeq,
    "java" -> System.getProperty("java.version"),
    "scala" -> scala.util.Properties.versionNumberString,
    "spark" -> spark.version,
    "commit" -> a.commit,
    "source_sha256" -> a.sourceSha,
    "master" -> spark.sparkContext.master,
    "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
    "auto_broadcast_join_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
    "rma_config" -> {
      val c = repro.core.RmaConfig.default
      s"backend=${c.backend.name} distributedElementwise=${c.distributedElementwise} " +
        s"validateKeys=${c.validateKeys} assumeSorted=${c.assumeSorted}"
    },
    "setup_repeats" -> Main.SetupRepeats,
    "warmup_queries_per_setup" -> Main.WarmupQueries,
    "settle_queries_before_timing" -> Main.SettleQueries,
    "clients" -> 1,
    "loop" -> "closed")
}

package perfbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession

/** The traced run: each query replayed as timed layer calls, with Spark and
  * JVM counters reset and read around every query. `attempts` holds every
  * query of the run, `untraced` the untraced ones among them.
  */
final case class TracedRun(tracer: Tracer, attempts: IndexedSeq[Attempt], untraced: IndexedSeq[Attempt],
                           metrics: Seq[(String, (Double, String))], summary: Seq[String])

object Traced {

  /** Per-layer metric names and units, in output order. */
  val Units: Seq[(String, String)] = Seq(
    "sql.self_s" -> "s",
    "sql.views_registered" -> "count",
    "rma.calls" -> "count",
    "rma.self_s" -> "s",
    "constructors.collect_split_s" -> "s",
    "constructors.collect_split_calls" -> "count",
    "constructors.rows_collected" -> "count",
    "constructors.build_s" -> "s",
    "constructors.cells_built" -> "count",
    "constructors.rank_prep_s" -> "s",
    "matrix.kernel_s" -> "s",
    "matrix.flops" -> "count",
    "matrix.gflops" -> "GFLOP/s",
    "spark.consume_s" -> "s",
    "spark.jobs" -> "count",
    "spark.stages" -> "count",
    "spark.tasks" -> "count",
    "spark.shuffle_write_bytes" -> "bytes",
    "spark.result_bytes" -> "bytes",
    "spark.executor_run_s" -> "s",
    "spark.task_gc_s" -> "s",
    "jvm.gc_s" -> "s",
    "jvm.gc_count" -> "count",
    "trace.query_s" -> "s",
    "trace.uncovered_s" -> "s",
    "trace.overhead_s" -> "s")

  /** Layers whose self times, with the uncovered time, make up a query. */
  val SelfTimes: Seq[String] = Seq("sql.self_s", "rma.self_s", "constructors.collect_split_s",
    "constructors.build_s", "constructors.rank_prep_s", "matrix.kernel_s", "spark.consume_s")

  private def tempViews(spark: SparkSession): Long =
    spark.catalog.listTables().collect().count(_.isTemporary).toLong

  /** Layer metrics of one query from its spans. */
  def fromSpans(spans: Seq[Span]): Map[String, Double] = {
    val self = Tracer.selfNs(spans)
    def selfS(p: Span => Boolean) = spans.filter(p).map(s => self(s.id)).sum / 1e9
    def counted(key: String) = spans.map(_.counts.getOrElse(key, 0.0)).sum
    val root = spans.find(_.parent == -1).getOrElse(throw new IllegalStateException("query without root span"))
    val build = Set("constructors.withOrderPart", "constructors.withSchemaCast")
    Map(
      "sql.self_s" -> selfS(_.layer == "sql"),
      "rma.calls" -> spans.count(_.layer == "rma").toDouble,
      "rma.self_s" -> selfS(_.layer == "rma"),
      "constructors.collect_split_s" -> selfS(_.name == "constructors.collectSplit"),
      "constructors.collect_split_calls" -> spans.count(_.name == "constructors.collectSplit").toDouble,
      "constructors.rows_collected" -> counted("rows"),
      "constructors.build_s" -> selfS(s => build(s.name)),
      "constructors.cells_built" -> counted("cells"),
      "constructors.rank_prep_s" -> selfS(_.name == "constructors.elementwiseDistributed"),
      "matrix.kernel_s" -> selfS(_.layer == "matrix"),
      "matrix.flops" -> counted("flops"),
      "spark.consume_s" -> selfS(_.layer == "spark"),
      "trace.query_s" -> root.durNs / 1e9,
      "trace.uncovered_s" -> self(root.id) / 1e9)
  }

  private def okTimes(attempts: Seq[Attempt]): Seq[Double] =
    attempts.filter(_.ok).map(_.seconds) match {
      case xs if xs.nonEmpty => xs
      case _ => attempts.map(_.seconds)
    }

  /** Alternate untraced queries (`untracedQuery`) with traced replays, so both
    * see the same JIT and heap state and their p50 difference is the
    * tracing overhead.
    */
  def run(spark: SparkSession, w: Workload, seconds: Double, untracedQuery: () => Attempt): TracedRun = {
    val sc = spark.sparkContext
    val counters = new SparkCounters
    sc.addSparkListener(counters)
    val tracer = new Tracer
    val perQuery = ArrayBuffer.empty[(Boolean, Map[String, Double])]
    val untraced = ArrayBuffer.empty[Attempt]
    val traced = ArrayBuffer.empty[Attempt]
    def tracedQuery(i: Int): Attempt = {
      JvmCounters.resetPeakHeap() // as for untraced queries, so only tracing differs
      counters.reset(sc)
      val views0 = tempViews(spark)
      val (gcS0, gcN0) = JvmCounters.gc()
      val first = tracer.spans.length
      var measured = Map.empty[String, Double]
      val at = Runner.attempt(() => tracer.query(i)(w.replay(tracer)), (r: w.Result) => {
        // Read the counters before the checks, which may run queries of their own.
        val (gcS1, gcN1) = JvmCounters.gc()
        measured = counters.read(sc) ++ Map("jvm.gc_s" -> (gcS1 - gcS0), "jvm.gc_count" -> (gcN1 - gcN0).toDouble)
        w.check(r).orElse(w.crossCheck(r))
      })
      measured += "sql.views_registered" -> (tempViews(spark) - views0).toDouble
      perQuery += ((at.ok, measured ++ fromSpans(tracer.spans.drop(first).toSeq)))
      at
    }

    // At least one query of each kind, however short the run.
    val loop = Runner.closedLoop(seconds) { i =>
      if (i % 2 == 0) { untraced += untracedQuery(); untraced.last }
      else { traced += tracedQuery(i); traced.last }
    }
    val attempts = if (traced.nonEmpty) loop else loop :+ { traced += tracedQuery(loop.length); traced.last }
    sc.removeSparkListener(counters)

    val use = if (perQuery.exists(_._1)) perQuery.filter(_._1).map(_._2) else perQuery.map(_._2)
    def mean(k: String) = Stats.mean(use.map(_.getOrElse(k, 0.0)).toSeq)
    val tracedP50 = Stats.median(okTimes(traced.toSeq))
    val untracedP50 = Stats.median(okTimes(untraced.toSeq))
    val kernel = mean("matrix.kernel_s")
    val derived = Map(
      "matrix.gflops" -> (if (kernel > 0) mean("matrix.flops") / kernel / 1e9 else 0.0),
      "trace.overhead_s" -> (tracedP50 - untracedP50))
    val metrics = Units.map { case (k, unit) => k -> (derived.getOrElse(k, mean(k)), unit) }

    val layers = SelfTimes.map(k => k -> mean(k))
    val closure = layers.map(_._2).sum + mean("trace.uncovered_s")
    val summary = Seq(
      s"trace queries=${traced.length} traced_p50=$tracedP50 untraced_queries=${untraced.length} untraced_p50=$untracedP50",
      "trace self times (mean s per query): " +
        (layers :+ ("trace.uncovered_s" -> mean("trace.uncovered_s"))).map { case (k, v) => f"$k=$v%.5f" }.mkString(" "),
      f"trace closure: layers + uncovered = $closure%.6f s, traced query = ${mean("trace.query_s")}%.6f s")
    TracedRun(tracer, attempts, untraced.toIndexedSeq, metrics, summary)
  }
}

package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerBus
import org.apache.spark.scheduler._

/** Spark work counters read from outside the program through a listener
  * that the benchmark registers. Reset and read once per query.
  */
final class SparkCounters extends SparkListener {
  private val jobs = new AtomicLong
  private val stages = new AtomicLong
  private val tasks = new AtomicLong
  private val shuffleWriteBytes = new AtomicLong
  private val resultBytes = new AtomicLong
  private val executorRunMs = new AtomicLong
  private val taskGcMs = new AtomicLong
  private val all = Seq(jobs, stages, tasks, shuffleWriteBytes, resultBytes, executorRunMs, taskGcMs)

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      resultBytes.addAndGet(m.resultSize)
      executorRunMs.addAndGet(m.executorRunTime)
      taskGcMs.addAndGet(m.jvmGCTime)
    }
  }

  /** Wait for every pending event, then zero the counters. */
  def reset(sc: SparkContext): Unit = { ListenerBus.drain(sc); all.foreach(_.set(0)) }

  /** Wait for every pending event, then read the counters. */
  def read(sc: SparkContext): Map[String, Double] = {
    ListenerBus.drain(sc)
    Map(
      "spark.jobs" -> jobs.get.toDouble,
      "spark.stages" -> stages.get.toDouble,
      "spark.tasks" -> tasks.get.toDouble,
      "spark.shuffle_write_bytes" -> shuffleWriteBytes.get.toDouble,
      "spark.result_bytes" -> resultBytes.get.toDouble,
      "spark.executor_run_s" -> executorRunMs.get / 1e3,
      "spark.task_gc_s" -> taskGcMs.get / 1e3)
  }
}

/** Driver JVM counters from the GC and memory-pool MXBeans. */
object JvmCounters {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.toSeq.filter(_.getType == MemoryType.HEAP)

  /** Total (collection seconds, collection count) so far. */
  def gc(): (Double, Long) =
    (gcs.map(_.getCollectionTime).filter(_ >= 0).sum / 1e3, gcs.map(_.getCollectionCount).filter(_ >= 0).sum)

  /** Collect the heap and restart peak tracking, so the next peak reads
    * what one query adds to the live heap rather than where the collector
    * happens to be in its cycle.
    */
  def resetPeakHeap(): Unit = {
    System.gc()
    heapPools.foreach(_.resetPeakUsage())
  }

  /** Peak heap used since the last reset, in MB: the sum of every heap
    * pool's peak.
    */
  def peakHeapMb(): Double = heapPools.map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)
}

package org.apache.spark.sql.repro

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Counts the Spark jobs a block of code submits. Lives under
  * `org.apache.spark` because it drains the `private[spark]` listener bus, so
  * every job the block started has been counted when it returns.
  */
object SparkJobs {

  def count(spark: SparkSession)(body: => Unit): Int = {
    val sc = spark.sparkContext
    sc.listenerBus.waitUntilEmpty()
    val started = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      body
      sc.listenerBus.waitUntilEmpty()
      started.get
    } finally sc.removeSparkListener(listener)
  }
}

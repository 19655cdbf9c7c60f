package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Access to the `private[spark]` listener bus, so per-query counters are
  * read only after every event of the query has been delivered.
  */
object ListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

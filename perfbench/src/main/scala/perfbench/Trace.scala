package perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is -1 for a query's root span.
  * `counts` are the work counters recorded at the same boundary.
  */
final case class Span(id: Int, parent: Int, query: Int, name: String,
                      startNs: Long, endNs: Long, counts: Map[String, Double]) {
  def layer: String = name.takeWhile(_ != '.')
  def durNs: Long = endNs - startNs
}

/** Records spans around the benchmark's calls into each layer's public
  * functions. Spans stay in memory until [[Tracer.writeJsonl]] at the end of
  * the run. Single-threaded, like the closed loop that uses it.
  */
final class Tracer {
  val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var currentQuery = -1

  /** Time one whole query as a root span named `query`. */
  def query[T](id: Int)(body: => T): T = {
    currentQuery = id
    span("query")(body)
  }

  def span[T](name: String)(body: => T): T = spanCounting(name)((_: T) => Map.empty[String, Double])(body)

  /** Time `body` as a child of the innermost open span; `counts` reads the
    * work counters off the call's result.
    */
  def spanCounting[T](name: String)(counts: T => Map[String, Double])(body: => T): T = {
    val id = spans.length
    val parent = stack.headOption.getOrElse(-1)
    spans += null // reserve the id so children get higher ids
    stack = id :: stack
    val start = System.nanoTime()
    try {
      val out = body
      spans(id) = Span(id, parent, currentQuery, name, start, System.nanoTime(), counts(out))
      out
    } catch {
      case e: Throwable =>
        spans(id) = Span(id, parent, currentQuery, name, start, System.nanoTime(), Map("error" -> 1.0))
        throw e
    } finally stack = stack.tail
  }

  def writeJsonl(path: java.nio.file.Path): Unit = {
    val lines = spans.iterator.filter(_ != null).map { s =>
      Json.obj(Seq("id" -> s.id, "parent" -> s.parent, "query" -> s.query, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs, "counts" -> s.counts))
    }
    java.nio.file.Files.write(path, (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }
}

object Tracer {

  /** Self time of every span: its duration minus the part of it that its
    * children's intervals cover (overlapping children are merged first).
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).sortBy(_.startNs)
      var covered = 0L
      var curStart = Long.MinValue
      var curEnd = Long.MinValue
      kids.foreach { k =>
        val ks = math.max(k.startNs, s.startNs)
        val ke = math.min(k.endNs, s.endNs)
        if (ks > curEnd) {
          covered += math.max(0L, curEnd - curStart)
          curStart = ks; curEnd = ke
        } else curEnd = math.max(curEnd, ke)
      }
      covered += math.max(0L, curEnd - curStart)
      s.id -> (s.durNs - covered)
    }.toMap
  }
}

package perfbench

/** Order statistics over per-query samples. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** The highest percentile that still has at least `beyond` samples above
    * it: the value at sorted rank n - beyond (1-based), reported with its
    * percentile (n - beyond) / n. With too few samples, the maximum.
    */
  def tail(xs: Seq[Double], beyond: Int = 10): (Double, Double) = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val n = s.length
    if (n <= beyond) (s.last, 100.0)
    else (s(n - beyond - 1), 100.0 * (n - beyond) / n)
  }
}

/** Minimal JSON writer for the result line, provenance and spans. */
object Json {
  def value(v: Any): String = v match {
    case s: String => quote(s)
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case b: Boolean => b.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case Raw(s) => s
    case m: Map[_, _] => obj(m.toSeq.map { case (k, x) => k.toString -> x })
    case xs: Seq[_] => xs.map(value).mkString("[", ", ", "]")
    case null => "null"
    case other => quote(other.toString)
  }

  /** A value already rendered as JSON. */
  final case class Raw(json: String)

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${quote(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\r' => b ++= "\\r"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.toString
  }
}

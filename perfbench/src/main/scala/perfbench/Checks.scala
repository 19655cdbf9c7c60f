package perfbench

/** Per-query correctness checks. Each returns `None` when the result is
  * right and `Some(reason)` otherwise; [[Runner.attempt]] counts the latter
  * (and any exception) as a failed query.
  */
object Checks {

  /** `qqr_tall`: the Q factor has orthonormal columns, so Σq² over every
    * column is 1, and the relation keeps every input row.
    */
  def qqr(columnSumsOfSquares: Array[Double], rows: Long, expectedRows: Long,
          expectedCols: Int, tol: Double = 1e-6): Option[String] =
    if (rows != expectedRows) Some(s"qqr: $rows result rows, expected $expectedRows")
    else if (columnSumsOfSquares.length != expectedCols)
      Some(s"qqr: ${columnSumsOfSquares.length} result columns, expected $expectedCols")
    else columnSumsOfSquares.zipWithIndex.collectFirst {
      case (s, j) if !(math.abs(s - 1.0) <= tol) => s"qqr: column $j has sum of squares $s, expected 1"
    }

  /** `ols_sql`: every coefficient, looked up by its label, equals the known
    * β. Wrong labels fail because the label picks the β compared against.
    */
  def ols(coefficients: Map[String, Double], labels: IndexedSeq[String], beta: Array[Double],
          tol: Double = 1e-6): Option[String] =
    if (coefficients.size != labels.length)
      Some(s"ols: ${coefficients.size} coefficients, expected ${labels.length}")
    else labels.indices.collectFirst {
      case j if !coefficients.contains(labels(j)) => s"ols: no coefficient labelled ${labels(j)}"
      case j if !(math.abs(coefficients(labels(j)) - beta(j)) <= tol * math.max(1.0, math.abs(beta(j)))) =>
        s"ols: ${labels(j)} = ${coefficients(labels(j))}, expected ${beta(j)}"
    }

  /** `add_select`: the selected row count equals the one a plain key join
    * computed once at set-up.
    */
  def count(actual: Long, expected: Long): Option[String] =
    if (actual == expected) None else Some(s"count $actual, expected $expected")

  /** `inv_square`: A·X ≈ I on the sampled columns of X. `a` and `x` are
    * row-major, row i holding the tuple whose key is i.
    */
  def inverse(a: Array[Array[Double]], x: Array[Array[Double]], sampledColumns: Seq[Int],
              tol: Double = 1e-8): Option[String] = {
    val n = a.length
    if (x.length != n || x.exists(_ == null) || x.exists(_.length != n))
      return Some(s"inv: result is not $n x $n")
    sampledColumns.iterator.flatMap { j =>
      (0 until n).iterator.flatMap { i =>
        var s = 0.0
        var l = 0
        while (l < n) { s += a(i)(l) * x(l)(j); l += 1 }
        val want = if (i == j) 1.0 else 0.0
        if (math.abs(s - want) <= tol) None else Some(s"inv: (A·X)($i,$j) = $s, expected $want")
      }
    }.nextOption()
  }
}

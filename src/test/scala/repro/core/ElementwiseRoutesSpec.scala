package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.repro.SparkJobs
import org.apache.spark.sql.types.{DoubleType, IntegerType, StringType}

/** add/sub/emu give the same relation or the same error on the collect and
  * on the distributed element-wise route: no null and no row count slips
  * through either, and faulty input reports the same first error.
  */
class ElementwiseRoutesSpec extends RmaFixtures {

  private def onBothRoutes(body: RmaConfig => Unit): Unit =
    for (distributed <- Seq(true, false)) withClue(s"distributedElementwise = $distributed: ") {
      body(RmaConfig(distributedElementwise = distributed))
    }

  /** The message of the error `Rma.add(r BY u, s BY v)` raises on each route,
    * distributed first.
    */
  private def messages(r: DataFrame, u: String, s: DataFrame, v: String): Seq[String] =
    Seq(true, false).map(distributed => intercept[IllegalArgumentException] {
      Rma.add(r, Seq(u), s, Seq(v), RmaConfig(distributedElementwise = distributed))
    }.getMessage)

  /** A relation with string key `key`, application attributes `app` and
    * `n` rows; with `nulls` its second row's application values are null,
    * with `dupKey` every row has the same key.
    */
  private def rel(key: String, app: Seq[String], n: Int, nulls: Boolean = false,
                  dupKey: Boolean = false): DataFrame =
    makeDf((key -> StringType) +: app.map(_ -> DoubleType),
      (1 to n).map(i => s"$key${if (dupKey) 1 else i}" +:
        app.indices.map(j => if (nulls && i == 2) null else (10 * i + j).toDouble)))

  test("a null in an application attribute is rejected on both routes") {
    val withNull = makeDf(Seq("k" -> StringType, "a" -> DoubleType, "b" -> DoubleType),
      Seq(Seq("k1", 1.0, 2.0), Seq("k2", null, 3.0), Seq("k3", 4.0, 5.0)))
    val ok = rel("m", Seq("a", "b"), 3)
    onBothRoutes { cfg =>
      for ((r, u, s, v) <- Seq((withNull, "k", ok, "m"), (ok, "m", withNull, "k"))) {
        val e = intercept[IllegalArgumentException] { Rma.add(r, Seq(u), s, Seq(v), cfg) }
        assert(e.getMessage.contains("null in application attribute a"))
      }
    }
  }

  test("unequal row counts are rejected on both routes") {
    val (r, s) = (rel("k", Seq("a", "b"), 3), rel("m", Seq("a", "b"), 2))
    onBothRoutes { cfg =>
      val e = intercept[IllegalArgumentException] { Rma.add(r, Seq("k"), s, Seq("m"), cfg) }
      assert(e.getMessage.contains("add: row counts differ (3 vs 2)"))
    }
  }

  test("two faults at once give the same first error on both routes, schema faults before any job") {
    val r = cached(rel("k", Seq("a", "b"), 3))
    val cases = Seq(
      ("overlapping order schemas and unequal widths", rel("k", Seq("a"), 3), "order schemas must not overlap"),
      ("overlapping order schemas and unequal row counts", rel("k", Seq("a", "b"), 2),
        "order schemas must not overlap"),
      ("unequal widths and unequal row counts", rel("m", Seq("a"), 2),
        "application schemas are not union compatible"),
      ("overlapping order schemas and a null", rel("k", Seq("a", "b"), 3, nulls = true),
        "order schemas must not overlap"),
      ("overlapping order schemas and a duplicate key", rel("k", Seq("a", "b"), 3, dupKey = true),
        "order schemas must not overlap"),
      ("unequal widths and a null", rel("m", Seq("a"), 3, nulls = true),
        "application schemas are not union compatible"),
      ("unequal widths and a duplicate key", rel("m", Seq("a"), 3, dupKey = true),
        "application schemas are not union compatible"))
    try for ((faults, s0, expected) <- cases) withClue(s"$faults: ") {
      val s = cached(s0)
      onBothRoutes { cfg =>
        var e: IllegalArgumentException = null
        val jobs = SparkJobs.count(spark) {
          e = intercept[IllegalArgumentException] { Rma.add(r, Seq("k"), s, Seq(s.columns.head), cfg) }
        }
        assert(e.getMessage.contains(s"add: $expected"))
        assert(jobs == 0, "Spark jobs before the schema checks")
      }
      s.unpersist()
    } finally r.unpersist()
  }

  test("two faults in the data give the same first error on both routes, naming the op") {
    val r = rel("k", Seq("a", "b"), 3)
    val cases = Seq(
      ("a null and a duplicate key", rel("m", Seq("a", "b"), 3, nulls = true, dupKey = true),
        "null in application attribute a"),
      ("a null and unequal row counts", rel("m", Seq("a", "b"), 2, nulls = true),
        "null in application attribute a"),
      ("a duplicate key and unequal row counts", rel("m", Seq("a", "b"), 2, dupKey = true),
        "order schema List(m) is not a key"))
    for ((faults, s, expected) <- cases) withClue(s"$faults: ") {
      onBothRoutes { cfg =>
        val e = intercept[IllegalArgumentException] { Rma.add(r, Seq("k"), s, Seq("m"), cfg) }
        assert(e.getMessage.startsWith(s"requirement failed: add: $expected"))
      }
    }
  }

  test("a duplicate key gives the same message on both routes, naming the duplicate value") {
    val dup = makeDf(Seq("k" -> StringType, "a" -> DoubleType),
      Seq(Seq("k2", 1.0), Seq("k1", 2.0), Seq("k3", 3.0), Seq("k1", 4.0)))
    val ok = rel("m", Seq("a"), 4)
    for ((r, u, s, v) <- Seq((dup, "k", ok, "m"), (ok, "m", dup, "k"))) {
      val Seq(distributed, collect) = messages(r, u, s, v)
      assert(distributed == collect)
      assert(collect == "requirement failed: add: order schema List(k) is not a key: duplicate value (k1)")
    }
  }

  test("nulls in two attributes on different rows give the same message on both routes, in sort order") {
    // k1 sorts first, so its null in b is the first null, though a comes first in the schema.
    val nulls = makeDf(Seq("k" -> StringType, "a" -> DoubleType, "b" -> DoubleType),
      Seq(Seq("k2", null, 1.0), Seq("k1", 2.0, null), Seq("k3", 3.0, 4.0)))
    val Seq(distributed, collect) = messages(nulls, "k", rel("m", Seq("a", "b"), 3), "m")
    assert(distributed == collect)
    assert(collect == "requirement failed: add: null in application attribute b")
  }

  test("duplicate keys in a 200-partition input are rejected on the distributed route") {
    // Keys 0..999 and a second 500, in 200 partitions before and after the sort.
    val rows = ((0 until 1000) :+ 500).map(k => Seq[Any](k, k.toDouble))
    val r = makeDf(Seq("k" -> IntegerType, "a" -> DoubleType), rows).repartition(200)
    val s = makeDf(Seq("m" -> IntegerType, "a" -> DoubleType), rows.indices.map(i => Seq[Any](i, 1.0)))
    val conf = Seq("spark.sql.shuffle.partitions" -> "200",
      "spark.sql.adaptive.coalescePartitions.enabled" -> "false")
    val saved = conf.map { case (key, _) => key -> spark.conf.getOption(key) }
    conf.foreach { case (key, value) => spark.conf.set(key, value) }
    try {
      val e = intercept[IllegalArgumentException] { Rma.add(r, Seq("k"), s, Seq("m")) }
      assert(e.getMessage.startsWith("requirement failed: add: order schema List(k) is not a key"))
    } finally saved.foreach {
      case (key, Some(value)) => spark.conf.set(key, value)
      case (key, None)        => spark.conf.unset(key)
    }
  }

  test("the distributed add runs no more Spark jobs for its null and row-count checks") {
    // Three partitions each, whatever the core count, so the job count is fixed.
    val r = rel("k", Seq("a", "b"), 3).repartition(3).cache()
    val s = rel("m", Seq("a", "b"), 3).repartition(3).cache()
    r.count(); s.count()
    try {
      var sum: DataFrame = null
      val jobs = SparkJobs.count(spark) { sum = Rma.add(r, Seq("k"), s, Seq("m")) }
      assert(jobs == 6)
      assert(sum.count() == 3)
    } finally { r.unpersist(); s.unpersist() }
  }
}

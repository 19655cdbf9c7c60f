package repro.core

import java.sql.Date

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.repro.{InternalDF, SparkJobs}
import org.apache.spark.sql.types.{DateType, DoubleType, IntegerType, StringType}

/** add/sub/emu give the same relation or the same error on the collect and
  * on the distributed element-wise route: no null and no row count slips
  * through either, and faulty input reports the same first error. The
  * inputs pick the route: driver-local ones the collect route, any other
  * the distributed one.
  */
class ElementwiseRoutesSpec extends RmaFixtures {

  /** The message of the error `Rma.add(r BY u, s BY v)` raises on each route,
    * distributed first.
    */
  private def messages(r: DataFrame, u: String, s: DataFrame, v: String): Seq[String] =
    Seq(true, false).map { distributed =>
      var message = ""
      onRoute(distributed) { in =>
        message = intercept[IllegalArgumentException] { Rma.add(in(r), Seq(u), in(s), Seq(v)) }.getMessage
      }
      message
    }

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
    onBothRoutes { in =>
      for ((r, u, s, v) <- Seq((withNull, "k", ok, "m"), (ok, "m", withNull, "k"))) {
        val e = intercept[IllegalArgumentException] { Rma.add(in(r), Seq(u), in(s), Seq(v)) }
        assert(e.getMessage.contains("null in application attribute a"))
      }
    }
  }

  test("unequal row counts are rejected on both routes") {
    val (r, s) = (rel("k", Seq("a", "b"), 3), rel("m", Seq("a", "b"), 2))
    onBothRoutes { in =>
      val e = intercept[IllegalArgumentException] { Rma.add(in(r), Seq("k"), in(s), Seq("m")) }
      assert(e.getMessage.contains("add: row counts differ (3 vs 2)"))
    }
  }

  test("two faults at once give the same first error on both routes, schema faults before any job") {
    val r = rel("k", Seq("a", "b"), 3)
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
    for ((faults, s, expected) <- cases) withClue(s"$faults: ") {
      onBothRoutes { in =>
        val (rIn, sIn) = (in(r), in(s))
        var e: IllegalArgumentException = null
        val jobs = SparkJobs.count(spark) {
          e = intercept[IllegalArgumentException] { Rma.add(rIn, Seq("k"), sIn, Seq(s.columns.head)) }
        }
        assert(e.getMessage.contains(s"add: $expected"))
        assert(jobs == 0, "Spark jobs before the schema checks")
      }
    }
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
      onBothRoutes { in =>
        val e = intercept[IllegalArgumentException] { Rma.add(in(r), Seq("k"), in(s), Seq("m")) }
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

  test("add of two driver-local relations runs no Spark job") {
    val s = rel("m", Seq("a", "b"), 3)
    val r = rel("k", Seq("a", "b"), 4).filter("k != 'k4'")
    r.createOrReplaceTempView("local_r")
    // A filter over a local relation, and a temp view of it, are driver-local too.
    try for (input <- Seq(r, spark.table("local_r"))) {
      var sum: DataFrame = null
      val jobs = SparkJobs.count(spark) { sum = Rma.add(input, Seq("k"), s, Seq("m")) }
      assert(jobs == 0)
      assertDfClose(sum, (1 to 3).map(i => Seq(s"k$i", s"m$i", 20.0 * i, 20.0 * i + 2)))
    } finally spark.catalog.dropTempView("local_r")
  }

  test("a driver-local and a cached input take the distributed route and give the all-local result") {
    val (r, s) = (rel("k", Seq("a", "b"), 3), rel("m", Seq("a", "b"), 3))
    val allLocal = Rma.add(r, Seq("k"), s, Seq("m"))
    assert(InternalDF.isDriverLocal(allLocal), "the all-local add takes the collect route")
    onRoute(distributed = true) { in =>
      for (mixed <- Seq(Rma.add(in(r), Seq("k"), s, Seq("m")), Rma.add(r, Seq("k"), in(s), Seq("m")))) {
        assert(!InternalDF.isDriverLocal(mixed), "a mixed add takes the distributed route")
        assert(mixed.schema == allLocal.schema)
        assertDfClose(mixed, allLocal.collect().map(_.toSeq).toSeq)
      }
    }
  }

  test("add over date keys collects as Rows on both routes") {
    def dated(key: String, days: Seq[String]) =
      makeDf(Seq(key -> DateType, "a" -> DoubleType),
        days.zipWithIndex.map { case (d, i) => Seq(Date.valueOf(d), i.toDouble) })
    val r = dated("d", Seq("2020-01-02", "1969-12-31"))
    val s = dated("e", Seq("1900-02-28", "2000-02-29"))
    onBothRoutes { in =>
      assertDfClose(Rma.add(in(r), Seq("d"), in(s), Seq("e")), Seq(
        Seq(Date.valueOf("1969-12-31"), Date.valueOf("1900-02-28"), 1.0),
        Seq(Date.valueOf("2020-01-02"), Date.valueOf("2000-02-29"), 1.0)))
    }
  }
}

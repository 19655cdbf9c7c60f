package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.repro.InternalDF
import org.apache.spark.sql.types._

import repro.SparkSpec
import repro.matrix.ColMatrix

/** Shared relations for the RMA test suites, including the paper's running
  * examples (weather relation of Figure 2, movie database of Figure 5).
  */
trait RmaFixtures extends SparkSpec {

  def makeDf(schema: Seq[(String, DataType)], rows: Seq[Seq[Any]]): DataFrame = {
    import scala.jdk.CollectionConverters._
    val st = StructType(schema.map { case (n, t) => StructField(n, t, nullable = true) })
    spark.createDataFrame(rows.map(Row.fromSeq).asJava, st)
  }

  /** Paper Figure 2: weather relation r(T, H, W) — deliberately not sorted
    * by T so the operator's sort matters.
    */
  lazy val weather: DataFrame = makeDf(
    Seq("T" -> StringType, "H" -> DoubleType, "W" -> DoubleType),
    Seq(Seq("5am", 1.0, 3.0), Seq("8am", 8.0, 5.0), Seq("7am", 6.0, 7.0), Seq("6am", 1.0, 4.0)))

  /** Paper Figure 3 input: sigma_{T>6am}(weather). */
  lazy val weatherLate: DataFrame = weather.filter("T > '6am'")

  /** Paper Figure 5: users, films, ratings. */
  lazy val users: DataFrame = makeDf(
    Seq("User" -> StringType, "State" -> StringType, "YoB" -> IntegerType),
    Seq(Seq("Ann", "CA", 1980), Seq("Tom", "FL", 1965), Seq("Jan", "CA", 1970)))

  lazy val films: DataFrame = makeDf(
    Seq("Title" -> StringType, "RelY" -> IntegerType, "Director" -> StringType),
    Seq(Seq("Heat", 1995, "Lee"), Seq("Balto", 1995, "Lee"), Seq("Net", 1995, "Smith")))

  lazy val ratings: DataFrame = makeDf(
    Seq("User" -> StringType, "Balto" -> DoubleType, "Heat" -> DoubleType, "Net" -> DoubleType),
    Seq(Seq("Ann", 2.0, 1.5, 0.5), Seq("Tom", 0.0, 0.0, 1.5), Seq("Jan", 1.0, 4.0, 1.0)))

  /** Small keyed numeric relation with string keys that sort identically in
    * Spark and DuckDB-over-VARCHAR (zero-padded).
    */
  def keyed(prefix: String, rows: Seq[(Double, Double)], keyName: String = "k"): DataFrame =
    makeDf(
      Seq(keyName -> StringType, "x" -> DoubleType, "y" -> DoubleType),
      rows.zipWithIndex.map { case ((a, b), i) => Seq(f"$prefix${i + 1}%02d", a, b) })

  /** `df` cached and materialised, so that reading it again is a Spark job.
    * It caches the plan in place: any relation with the same plan, such as a
    * driver-local one with the same rows, reads the cache from then on.
    */
  def cached(df: DataFrame): DataFrame = { df.cache().count(); df }

  /** The rows of `df` in a cached relation with a plan of its own (an RDD),
    * so that `df` itself stays as it is.
    */
  def cachedCopy(df: DataFrame): DataFrame = cached(spark.createDataFrame(df.rdd, df.schema))

  /** The rows of `df` held on the driver (a `LocalRelation`). */
  def driverLocal(df: DataFrame): DataFrame =
    InternalDF.createLocal(spark, df.schema, InternalDF.collectInternal(df).toSeq)

  /** Runs `body` on one element-wise route, which the inputs pick: `input`
    * passes a driver-local relation through for the collect route, or gives
    * a cached copy of its rows for the distributed route. The copies are
    * uncached afterwards.
    */
  def onRoute(distributed: Boolean)(body: (DataFrame => DataFrame) => Unit): Unit = {
    val copies = scala.collection.mutable.ArrayBuffer.empty[DataFrame]
    def input(df: DataFrame): DataFrame = {
      assert(InternalDF.isDriverLocal(df), "a test input that is not driver-local")
      if (!distributed) df else { val c = cachedCopy(df); copies += c; c }
    }
    try body(input) finally copies.foreach(_.unpersist())
  }

  /** Runs `body` on the distributed, then on the collect route. */
  def onBothRoutes(body: (DataFrame => DataFrame) => Unit): Unit =
    for (distributed <- Seq(true, false))
      withClue(if (distributed) "cached inputs: " else "driver-local inputs: ")(onRoute(distributed)(body))

  def collectMatrix(df: DataFrame, order: Seq[String]): ColMatrix =
    Constructors.collectSplit(df, order).matrix

  def assertDfClose(df: DataFrame, expected: Seq[Seq[Any]], tol: Double = 1e-9): Unit = {
    val got = df.collect().map(_.toSeq.toIndexedSeq).toIndexedSeq
    assert(got.length == expected.length,
      s"row count ${got.length} vs ${expected.length}:\n got=$got\n exp=$expected")
    got.sortBy(_.mkString(",")).zip(expected.map(_.toIndexedSeq).sortBy(_.mkString(","))).foreach {
      case (g, e) =>
        g.zip(e).foreach {
          case (x: Double, y: Double) => assert(math.abs(x - y) <= tol, s"$x vs $y in row $g / $e")
          case (x, y)                 => assert(x == y, s"$x vs $y in row $g / $e")
        }
    }
  }
}

package repro.core

import java.sql.Date

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.{col, lit, map}
import org.apache.spark.sql.repro.{InternalDF, SparkJobs}
import org.apache.spark.sql.types._

/** The matrix constructor sorts on the driver. Its order part and matrix must
  * equal, bit for bit, those of the same rows sorted by Spark (`df.sort(U)`),
  * for driver-local and for cached inputs.
  */
class MatrixConstructorSpec extends RmaFixtures {

  private val nan = Double.NaN

  /** (name, schema, rows, order schema); keys are unique in every case. */
  private val cases: Seq[(String, Seq[(String, DataType)], Seq[Seq[Any]], Seq[String])] = Seq(
    ("string key", Seq("k" -> StringType, "a" -> DoubleType, "b" -> IntegerType),
      Seq(Seq("b", 1.0, 1), Seq("a", -0.0, 2), Seq("B", nan, 3), Seq("é", 2.5, 4), Seq("", -1.0, 5)),
      Seq("k")),
    ("int key", Seq("k" -> IntegerType, "a" -> DoubleType),
      Seq(Seq[Any](3, 1.0), Seq[Any](-1, 2.0), Seq[Any](Int.MaxValue, nan), Seq[Any](Int.MinValue, -0.0),
        Seq[Any](0, 5.0)),
      Seq("k")),
    ("date key", Seq("d" -> DateType, "a" -> DoubleType),
      Seq(Seq(Date.valueOf("2020-06-14"), 1.0), Seq(Date.valueOf("1969-12-31"), 2.0),
        Seq(Date.valueOf("2020-01-01"), 3.0), Seq(Date.valueOf("1900-02-28"), 4.0)),
      Seq("d")),
    ("double key with -0.0 and NaN", Seq("x" -> DoubleType, "a" -> DoubleType),
      Seq(Seq(2.5, 1.0), Seq(-0.0, 2.0), Seq(nan, 3.0), Seq(-1.0, 4.0),
        Seq(Double.NegativeInfinity, 5.0), Seq(1e300, -0.0)),
      Seq("x")),
    ("two-attribute key", Seq("g" -> StringType, "i" -> IntegerType, "a" -> DoubleType),
      Seq(Seq("b", 2, 1.0), Seq("a", 2, 2.0), Seq("b", 1, 3.0), Seq("a", 1, 4.0), Seq("a", 0, 5.0)),
      Seq("g", "i")),
    ("null key", Seq("k" -> StringType, "a" -> DoubleType),
      Seq(Seq("x", 1.0), Seq(null, 2.0), Seq("a", 3.0)),
      Seq("k")),
    ("1000 integer attributes, key last", (1 to 1000).map(j => s"a$j" -> IntegerType) :+ ("k" -> IntegerType),
      (0 until 200).map(i => (1 to 1000).map(j => (i * 31 + j) % 97 - 48) :+ i * 7 % 200),
      Seq("k")))

  private def cached(schema: Seq[(String, DataType)], rows: Seq[Seq[Any]]): DataFrame = {
    val st = StructType(schema.map { case (n, t) => StructField(n, t, nullable = true) })
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows.map(Row.fromSeq), 3), st).cache()
    df.count()
    df
  }

  /** The rows as Spark sorts them: U, then the application part as double. */
  private def sortedBySpark(df: DataFrame, u: Seq[String]): Array[InternalRow] = {
    val app = df.columns.filterNot(u.contains)
    InternalDF.collectInternal(
      df.select((u.map(col) ++ app.map(c => col(c).cast(DoubleType))): _*).sort(u.map(col): _*))
  }

  /** Doubles by their bits, so -0.0 and NaN must match exactly. */
  private def bits(v: Any): Any = v match {
    case d: Double => java.lang.Double.doubleToRawLongBits(d)
    case other     => other
  }

  for ((name, schema, rows, u) <- cases; (kind, local) <- Seq("driver-local" -> true, "cached" -> false)) {
    test(s"collectSplit matches Spark's sort: $name, $kind input") {
      val df = if (local) makeDf(schema, rows) else cached(schema, rows)
      try {
        val expected = sortedBySpark(df, u)
        val types = u.map(c => df.schema(c).dataType)
        var sp: Constructors.SplitRelation = null
        val jobs = SparkJobs.count(spark) { sp = Constructors.collectSplit(df, u) }
        assert(jobs == (if (local) 0 else 1))
        assert(sp.orderRows.length == expected.length)
        expected.zipWithIndex.foreach { case (row, i) =>
          val order = types.indices.map(j => bits(row.get(j, types(j))))
          assert(sp.orderRows(i).toSeq.map(bits) == order, s"order part, row $i")
          val app = (0 until sp.matrix.nCols).map(j => bits(row.getDouble(u.length + j)))
          assert(sp.matrix.row(i).toSeq.map(bits) == app, s"application part, row $i")
        }
      } finally df.unpersist()
    }
  }

  test("collectSplit leaves a driver-local relation's rows as they were") {
    val inputs = Seq(
      makeDf(Seq("a" -> IntegerType, "k" -> IntegerType), Seq(Seq(1, 3), Seq(2, 1), Seq(3, 2))),
      makeDf(Seq("k" -> IntegerType, "a" -> DoubleType), Seq(Seq[Any](3, 1.0), Seq[Any](1, 2.0), Seq[Any](2, 3.0))))
    for (df <- inputs) withClue(df.columns.mkString("attributes ", ", ", ": ")) {
      def rows = df.collect().toSeq
      val before = rows
      val first = Constructors.collectSplit(df, Seq("k"))
      assert(rows == before)
      val second = Constructors.collectSplit(df, Seq("k"))
      assert(second.orderRows.map(_.toSeq).toSeq == first.orderRows.map(_.toSeq).toSeq)
      assert(second.matrix.cols.map(_.toSeq).toSeq == first.matrix.cols.map(_.toSeq).toSeq)
    }
  }

  test("an order attribute Spark cannot sort fails before any job runs") {
    val df = spark.range(3).select(map(lit("a"), col("id")).as("m"), col("id").cast("double").as("v"))
    var e: IllegalArgumentException = null
    val jobs = SparkJobs.count(spark) {
      e = intercept[IllegalArgumentException] { Constructors.collectSplit(df, Seq("m")) }
    }
    assert(jobs == 0)
    assert(e.getMessage.contains("cannot be sorted"))
  }

  test("duplicate keys under Spark's key equality are rejected: NaN = NaN, -0.0 = 0.0") {
    for (dup <- Seq(Seq(nan, nan), Seq(-0.0, 0.0))) withClue(s"keys $dup: ") {
      val df = makeDf(Seq("x" -> DoubleType, "a" -> DoubleType), dup.map(k => Seq(k, 1.0)))
      val e = intercept[IllegalArgumentException] { Constructors.collectSplit(df, Seq("x")) }
      assert(e.getMessage.contains("not a key"))
    }
  }
}

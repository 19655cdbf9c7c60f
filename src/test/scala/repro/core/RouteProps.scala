package repro.core

import java.sql.Date

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.repro.InternalDF
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop, Properties, Test}

import repro.SparkSpec
import repro.matrix.Kernels

/** Route differential: add, sub and emu give the same relation, or the same
  * error message, on the distributed and on the collect element-wise route,
  * through the operator API and through SQL over temp views of the inputs,
  * and the columnar and Breeze backends agree on the collect route. Inputs
  * are small relations with keys drawn from small domains (so that
  * duplicates, -0.0 = 0.0 and NaN keys come up), nulls and unequal row
  * counts. The inputs pick the route: the pair held on the driver takes the
  * collect route, cached copies of the same rows the distributed one.
  */
object RouteProps extends Properties("Routes") {
  import Prop.{forAll, propBoolean}

  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(25)

  /** One input: attribute names and types (order attributes first) and rows. */
  final case class Input(fields: Seq[(String, DataType)], nOrder: Int, rows: Seq[Seq[Any]]) {
    def order: Seq[String] = fields.take(nOrder).map(_._1)
  }

  private val dates = Seq("2020-06-14", "1969-12-31", "2020-01-01", "1900-02-28", "1970-01-01",
    "2000-02-29", "2020-01-02", "1999-12-31").map(Date.valueOf)

  /** Key types, each with its domain of key values. */
  private val keyTypes: Seq[(Seq[DataType], Seq[Seq[Any]])] = Seq(
    (Seq(StringType), Seq("a", "b", "B", "é", "", "ab", "z", null).map(Seq(_))),
    (Seq(IntegerType), Seq(-1, 0, 1, 3, 7, 42, Int.MaxValue, Int.MinValue).map(Seq(_))),
    (Seq(DateType), dates.map(Seq(_))),
    (Seq(DoubleType), Seq(-0.0, 0.0, Double.NaN, 1.5, -2.0, 1e300, Double.PositiveInfinity,
      Double.NegativeInfinity).map(Seq(_))),
    (Seq(StringType, IntegerType), for (g <- Seq("a", "b"); i <- 0 to 3) yield Seq(g, i)))

  private val decimal = DecimalType(10, 2)

  private def value(t: DataType, nulls: Boolean): Gen[Any] = Gen.frequency(
    (if (nulls) 1 else 0) -> Gen.const(null),
    5 -> (t match {
      case DoubleType  => Gen.choose(-400, 400).map(_ / 4.0)
      case IntegerType => Gen.choose(-100, 100)
      case _           => Gen.choose(-10000L, 10000L).map(c => java.math.BigDecimal.valueOf(c, 2))
    }))

  /** `n` rows with distinct picks from the key domain, one key repeated one
    * time in eight, and values of `appTypes`, with nulls one time in five.
    */
  private def input(names: Seq[String], key: (Seq[DataType], Seq[Seq[Any]]), appNames: Seq[String],
                    appTypes: Seq[DataType], n: Int): Gen[Input] = for {
    picked <- Gen.pick(n, key._2.indices)
    repeat <- Gen.frequency(7 -> Gen.const(false), 1 -> Gen.const(n > 1))
    keys = (if (repeat) picked.init :+ picked.head else picked).toSeq.map(key._2)
    nulls <- Gen.frequency(4 -> Gen.const(false), 1 -> Gen.const(true))
    values <- Gen.listOfN(n, Gen.sequence[List[Any], Any](appTypes.map(value(_, nulls))))
  } yield Input(names.zip(key._1) ++ appNames.zip(appTypes), key._1.length,
    keys.zip(values).map { case (k, v) => k ++ v })

  private val cases: Gen[(OpSpec, Input, Input)] = for {
    op <- Gen.oneOf(Rma.add, Rma.sub, Rma.emu)
    key <- Gen.oneOf(keyTypes)
    width <- Gen.choose(1, 2)
    rTypes <- Gen.listOfN(width, Gen.oneOf(DoubleType, IntegerType, decimal))
    sTypes <- Gen.listOfN(width, Gen.oneOf(DoubleType, IntegerType, decimal))
    nR <- Gen.choose(1, 6)
    nS <- Gen.frequency(3 -> Gen.const(nR), 1 -> Gen.choose(1, 6))
    r <- input(Seq("k", "k2"), key, (0 until width).map(j => s"a$j"), rTypes, nR)
    s <- input(Seq("m", "m2"), key, (0 until width).map(j => s"b$j"), sTypes, nS)
  } yield (op, r, s)

  /** The input's rows held on the driver, or cached. */
  private def relation(in: Input, cached: Boolean): DataFrame = {
    val spark = SparkSpec.shared
    val schema = StructType(in.fields.map { case (n, t) => StructField(n, t, nullable = true) })
    if (!cached) spark.createDataFrame(in.rows.map(Row.fromSeq).asJava, schema)
    else {
      val df = spark.createDataFrame(spark.sparkContext.parallelize(in.rows.map(Row.fromSeq), 2), schema).cache()
      df.count()
      df
    }
  }

  /** The result's schema and rows (as Catalyst values, doubles by their
    * bits, rows sorted), or the message of the argument error it raised.
    */
  private def outcome(run: => DataFrame): Either[String, (StructType, Seq[String])] =
    try {
      val df = run
      val types = df.schema.map(_.dataType)
      Right((df.schema, InternalDF.collectInternal(df).map(row => types.indices.map { j =>
        row.get(j, types(j)) match {
          case d: Double => s"double:${java.lang.Double.doubleToRawLongBits(d)}"
          case v         => String.valueOf(v)
        }
      }.mkString("|")).toSeq.sorted))
    } catch { case e: IllegalArgumentException => Left(e.getMessage) }

  property("add/sub/emu: same relation or same message on both routes and backends") = forAll(cases) {
    case (op, rIn, sIn) =>
      val (r, s) = (relation(rIn, cached = false), relation(sIn, cached = false))
      val (rCached, sCached) = (relation(rIn, cached = true), relation(sIn, cached = true))
      try {
        def on(r: DataFrame, s: DataFrame, cfg: RmaConfig = RmaConfig.default) =
          outcome(Rma.eval(op, Seq(r -> rIn.order, s -> sIn.order), cfg))
        def viaSql(r: DataFrame, s: DataFrame) = {
          r.createOrReplaceTempView("routes_r")
          s.createOrReplaceTempView("routes_s")
          outcome(RmaSql.expr(SparkSpec.shared,
            s"${op.name}(routes_r BY ${rIn.order.mkString(", ")}, routes_s BY ${sIn.order.mkString(", ")})"))
        }
        val distributed = on(rCached, sCached)
        val collect = on(r, s)
        val columnar = on(r, s, RmaConfig(backend = Kernels))
        val (sqlDistributed, sqlCollect) = (viaSql(rCached, sCached), viaSql(r, s))
        val kind = collect.fold(_.replaceAll(".*: (null|order schema|row counts).*", "$1"), _ => "relation")
        Prop.collect(kind) {
          (distributed == collect) :| s"distributed $distributed, collect $collect" &&
            (collect == columnar) :| s"Breeze $collect, columnar $columnar" &&
            (sqlDistributed == distributed) :| s"API $distributed, SQL $sqlDistributed (distributed)" &&
            (sqlCollect == collect) :| s"API $collect, SQL $sqlCollect (collect)"
        }
      } finally {
        Seq("routes_r", "routes_s").foreach(SparkSpec.shared.catalog.dropTempView)
        rCached.unpersist(); sCached.unpersist()
      }
  }
}

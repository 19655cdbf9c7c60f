package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic relations for the tests and the benches.
  *
  * `lineitem` is a TPC-H-lite table: at scale factor `sf` it has as many
  * rows as TPC-H's lineitem (6M × sf), but only ten of its attributes. The
  * tests use sf <= 0.001; the benches use the RMA-style relations below,
  * sized by rows and columns, not by a scale factor. Every generator is
  * deterministic in its seed so the DuckDB oracle sees identical input.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    import spark.implicits._
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    spark.range(n(NLineitemPerSf, sf)).select(
      (rand(seed)     * nOrders + 1).cast(LongType)    as "l_orderkey",
      (rand(seed + 1) * nPart   + 1).cast(LongType)    as "l_partkey",
      (rand(seed + 2) * 7 + 1).cast(IntegerType)       as "l_linenumber",
      (rand(seed + 3) * 50 + 1).cast(DoubleType)       as "l_quantity",
      round(rand(seed + 4) * 90000 + 900, 2)           as "l_extendedprice",
      round(rand(seed + 5) * 0.10, 2)                  as "l_discount",
      round(rand(seed + 6) * 0.08, 2)                  as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
                 (rand(seed + 7) * 3 + 1).cast("int")) as "l_returnflag",
      element_at(array(lit("O"), lit("F")),
                 (rand(seed + 8) * 2 + 1).cast("int")) as "l_linestatus",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 9) * 2557).cast("int"))    as "l_shipdate",
    )
  }

  // -------------------------------------------------------------------
  // RMA-paper-style relations (paper §8 synthetic data): one key column and
  // k numeric application columns with uniform values (whole numbers in
  // [0, 5M] from wideRelation, doubles in [0, 10000) from wideRelationRdd),
  // plus a sparse variant with a configurable fraction of exact zeros
  // (paper §8.2).
  // -------------------------------------------------------------------

  /** Multiplicative-hash permutation of 0..rows-1 so key order differs from
    * generation order and RMA's sort actually works. Bijective when
    * gcd(1000003, rows) = 1, which holds for the row counts we use.
    */
  private val KeyPrime = 1000003L

  /** Wide numeric relation: key `keyName` plus `appCols` application columns
    * `a1..aN`. `zeroFrac` is the probability that a cell is exactly zero
    * (paper §8.2 sparse relations; nonzero values uniform like the paper's
    * 1..5M range scaled).
    */
  def wideRelation(spark: SparkSession, rows: Long, appCols: Int,
                   zeroFrac: Double = 0.0, seed: Long = 7,
                   keyName: String = "k"): DataFrame = {
    require(rows % KeyPrime != 0, "rows must not be a multiple of 1000003")
    val appExprs = (1 to appCols).map { j =>
      val v = round(rand(seed * 31 + j) * 5000000, 0)
      (if (zeroFrac <= 0.0) v
       else when(rand(seed * 131 + j) < zeroFrac, lit(0.0)).otherwise(v)) as s"a$j"
    }
    spark.range(rows).select(
      (pmod(col("id") * KeyPrime, lit(rows)).as(keyName)) +: appExprs: _*)
  }

  /** Very wide relation built through an RDD of Rows, bypassing Catalyst's
    * per-column expression machinery — needed for the paper's Table 4 scale
    * (10000 attributes).
    */
  def wideRelationRdd(spark: SparkSession, rows: Int, appCols: Int,
                      seed: Long = 11, keyName: String = "k"): DataFrame = {
    val schema = StructType(
      StructField(keyName, LongType, nullable = false) +:
        (1 to appCols).map(j => StructField(s"a$j", DoubleType, nullable = false)))
    val rdd = spark.sparkContext
      .parallelize(0 until rows, math.min(16, math.max(1, rows / 64)))
      .map { i =>
        val rnd = new java.util.Random(seed * 1000003L + i)
        val vals = new Array[Any](appCols + 1)
        vals(0) = (i.toLong * KeyPrime) % rows
        var j = 1
        while (j <= appCols) { vals(j) = rnd.nextDouble() * 10000.0; j += 1 }
        org.apache.spark.sql.Row.fromSeq(vals.toIndexedSeq)
      }
    spark.createDataFrame(rdd, schema)
  }

  /** Ratings-style relation (paper §1 and §5): one string key (user) and one
    * numeric column per film, ratings in [0, 5].
    */
  def ratings(spark: SparkSession, nUsers: Int, nFilms: Int, seed: Long = 13): DataFrame = {
    val width = math.max(4, nUsers.toString.length)
    val filmExprs = (1 to nFilms).map(j => round(rand(seed + j) * 5, 1) as s"f$j")
    spark.range(nUsers).select(
      concat(lit("user_"), lpad(col("id").cast("string"), width, "0")).as("usr") +: filmExprs: _*)
  }
}

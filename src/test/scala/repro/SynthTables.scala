package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic tables that only the tests use, deterministic in their seed
  * like [[SynthData]].
  *
  * `lineitem` is a TPC-H-lite table: at scale factor `sf` it has as many
  * rows as TPC-H's lineitem (6M × sf), but only ten of its attributes. The
  * tests use sf <= 0.001.
  */
object SynthTables {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
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

package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic relations for the benches and the tests, sized by rows and
  * columns like the paper's §8 synthetic data: one key column and k numeric
  * application columns with uniform values (whole numbers in [0, 5M] from
  * wideRelation, doubles in [0, 10000) from wideRelationRdd), plus a sparse
  * variant with a configurable fraction of exact zeros (paper §8.2). Every
  * generator is deterministic in its seed so the DuckDB oracle sees
  * identical input.
  */
object SynthData {
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
}

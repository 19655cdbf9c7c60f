package repro.arraydb

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType

import repro.core.Constructors

/** SciDB-analog array engine (paper §8.4 competitor).
  *
  * SciDB stores matrices as arrays indexed by explicit dimensions. To add two
  * arrays it "must compute a so-called array join over the input arrays in
  * order to add their values" — the exact mechanism the paper blames for
  * SciDB's order-of-magnitude slowdown against RMA+. We reproduce that
  * substrate: a matrix is a coordinate relation `(i, j, v)` (row dimension,
  * column dimension, value), and addition is a join on `(i, j)`.
  */
object ArrayDb {

  /** Convert a keyed wide relation to array (coordinate) form: `(i, j, v)`
    * with `i` the rank of the key in sort order and `j` the application
    * column position. This is the array-database *storage format* — build it
    * once (and cache), query many times. The rank step rejects nulls and
    * duplicate keys, as RMA's element-wise path does.
    */
  def toCoord(df: DataFrame, order: Seq[String]): DataFrame = {
    val ranked = new Constructors.Ranked(df, order)
    ranked.rows.select(
      col(Constructors.IdxCol).as("i"),
      posexplode(array(ranked.app.map(c => col(c).cast(DoubleType)): _*)).as(Seq("j", "v")))
  }

  /** Array addition via the array join on both dimensions. */
  def add(a: DataFrame, b: DataFrame): DataFrame =
    a.alias("a").join(b.alias("b"), Seq("i", "j"))
      .select(col("i"), col("j"), (col("a.v") + col("b.v")).as("v"))

  /** Value selection on an array (paper Table 7 runs add *followed by a
    * selection*).
    */
  def select(a: DataFrame, predicate: String): DataFrame = a.filter(predicate)
}

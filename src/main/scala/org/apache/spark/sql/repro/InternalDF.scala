package org.apache.spark.sql.repro

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.catalyst.types.DataTypeUtils
import org.apache.spark.sql.classic.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.types.StructType

/** Bridge to `private[sql]` Spark internals.
  *
  * The RMA operators move whole columns between the engine and the matrix
  * kernels (MonetDB hands BAT arrays to the kernel directly). Spark's public
  * `collect`/`createDataFrame` route every row through external types —
  * per-field boxing and converter dispatch that MonetDB never pays. Staying
  * on InternalRow keeps the split/merge steps close to their BAT-level cost;
  * this object exposes the internals needed for that.
  */
object InternalDF {

  /** DataFrame from an RDD of InternalRows (no external-type conversion). */
  def create(spark: org.apache.spark.sql.SparkSession, rdd: RDD[InternalRow],
             schema: StructType): org.apache.spark.sql.DataFrame =
    spark.asInstanceOf[SparkSession].internalCreateDataFrame(rdd, schema)

  /** DataFrame over driver-local InternalRows (a LocalRelation) — the analog
    * of a result relation materialised as BATs in the server process.
    */
  def createLocal(spark: org.apache.spark.sql.SparkSession, schema: StructType,
                  rows: Seq[InternalRow]): org.apache.spark.sql.DataFrame =
    Dataset.ofRows(spark.asInstanceOf[SparkSession],
      LocalRelation(DataTypeUtils.toAttributes(schema), rows))

  /** Whether the optimized plan is a `LocalRelation`: rows the driver holds,
    * so [[collectInternal]] runs no Spark job. True of a [[createLocal]]
    * result, of `Seq(…).toDF` and of a filter or temp view over either;
    * `Dataset.isLocal` reads false for the last three.
    */
  def isDriverLocal(df: org.apache.spark.sql.DataFrame): Boolean =
    df.asInstanceOf[DataFrame].queryExecution.optimizedPlan.isInstanceOf[LocalRelation]

  /** The physical (InternalRow) RDD of a DataFrame. */
  def toInternalRdd(df: org.apache.spark.sql.DataFrame): RDD[InternalRow] =
    df.asInstanceOf[DataFrame].queryExecution.toRdd

  /** Collect as InternalRows (primitive access, no boxing per field). */
  def collectInternal(df: org.apache.spark.sql.DataFrame): Array[InternalRow] =
    df.asInstanceOf[DataFrame].queryExecution.executedPlan.executeCollect()
}

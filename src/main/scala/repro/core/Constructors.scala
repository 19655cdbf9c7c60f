package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.expressions.{Ascending, BaseOrdering, BoundReference, GenericInternalRow,
  JoinedRow, RowOrdering, SortOrder}
import org.apache.spark.sql.catalyst.expressions.codegen.GenerateOrdering
import org.apache.spark.sql.functions.{col, count, lit}
import org.apache.spark.sql.repro.InternalDF
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

import repro.matrix.ColMatrix

/** Matrix and relation constructors (paper Definitions 4.2 and 4.4) plus the
  * split/sort/morph/merge machinery of paper Algorithm 1, phrased on Spark.
  *
  * The *matrix constructor* collects a relation's order and application parts
  * to the driver, sorts them there by the order schema, and splits the
  * application part into a columnar [[ColMatrix]] (one array per column — the
  * BAT analog), like the in-process sort, leftfetchjoin and split of paper
  * Algorithm 1. The *relation constructor* rebuilds a DataFrame from
  * contextual information plus a base-result matrix. Splitting and merging
  * operate on schemas only and never touch data, exactly as in the paper.
  *
  * All data movement stays on Catalyst InternalRows (see
  * [[org.apache.spark.sql.repro.InternalDF]]): the application part is read
  * with primitive `getDouble` calls and results are built as driver-local
  * relations — the analog of BAT arrays living in the server process.
  */
object Constructors {

  /** A relation split into contextual information and application part.
    *
    * @param orderCols   order schema U (attribute names, in the given order)
    * @param appCols     application schema (schema order of the input)
    * @param orderFields original StructFields of U (types preserved)
    * @param orderRows   order part r.U sorted by U ascending, as *catalyst*
    *                    values (UTF8String for strings, Int for dates, ...)
    * @param matrix      application part as a column-major matrix, same order
    */
  final case class SplitRelation(
      orderCols: Seq[String],
      appCols: Seq[String],
      orderFields: Seq[StructField],
      orderRows: Array[Array[Any]],
      matrix: ColMatrix) {

    /** Sorted key values stringified — the column cast ∇U (paper Eq. 2).
      * Only defined for single-attribute order schemas, which the op table
      * requires of every op that casts ([[OpSpec]]).
      */
    def columnCast: Seq[String] = {
      val toScala = CatalystTypeConverters.createToScalaConverter(orderFields.head.dataType)
      orderRows.map(r => String.valueOf(toScala(r(0)))).toSeq
    }
  }

  private[core] def numeric(dt: DataType): Boolean = dt match {
    case _: NumericType => true
    case _              => false
  }

  /** Resolve order/application schemas and validate them (paper §4: the order
    * schema must be ⊆ R; everything else is the application schema and must
    * be numeric).
    */
  def resolveSchemas(df: DataFrame, order: Seq[String]): (Seq[String], Seq[String]) = {
    val all = df.columns.toSeq
    require(order.nonEmpty, "order schema must not be empty")
    val missing = order.filterNot(all.contains)
    require(missing.isEmpty, s"order schema attributes $missing not in schema $all")
    require(order.distinct.length == order.length, s"duplicate attributes in order schema $order")
    val app = all.filterNot(order.contains)
    require(app.nonEmpty,
      s"application schema is empty: all attributes of $all are in the order schema")
    val badTypes = app.filter(c => !numeric(df.schema(c).dataType))
    require(badTypes.isEmpty,
      s"application schema attributes $badTypes are not numeric; " +
        "add them to the order schema or project them away (paper footnote 2)")
    val unsortable = order.map(df.schema(_)).filterNot(f => RowOrdering.isOrderable(f.dataType))
    require(unsortable.isEmpty,
      s"order schema attributes ${unsortable.map(f => s"${f.name}: ${f.dataType.sql}")} cannot be sorted")
    (order, app)
  }

  /** Matrix constructor μ̄_U(r) together with the order part μ_U(r):
    * collect U and the application part (cast to double) unsorted, sort the
    * rows on the driver by U, and split them into order rows and columns.
    *
    * A cached input costs one Spark job and no shuffle; a driver-local input
    * (a `LocalRelation`, such as a nested op's result) costs none. The sort
    * is Catalyst's ascending order, the one `df.sort(U)` uses: nulls first,
    * NaN last, -0.0 equal to 0.0, strings in binary order. The key check
    * compares adjacent rows with the same order. The `assumeSorted` flag is
    * the paper's §8.1 optimisation that skips the sort for pre-sorted input.
    */
  def collectSplit(df: DataFrame, order: Seq[String],
                   validateKeys: Boolean = true,
                   assumeSorted: Boolean = false): SplitRelation = {
    val (u, app) = resolveSchemas(df, order)
    val fields = u.map(c => df.schema(c))
    val rows = InternalDF.collectInternal(df.select((u.map(col) ++ app.map(c => col(c).cast(DoubleType))): _*))
    val byKey = ascending(fields)
    if (!assumeSorted) java.util.Arrays.parallelSort(rows, byKey)
    val n = rows.length
    val k = app.length
    val uTypes = fields.map(_.dataType)
    val orderRows = Array.ofDim[Array[Any]](n)
    val cols = Array.fill(k)(new Array[Double](n))
    var i = 0
    while (i < n) {
      val r = rows(i)
      val o = Array.ofDim[Any](u.length)
      var j = 0
      while (j < u.length) { o(j) = r.get(j, uTypes(j)); j += 1 }
      orderRows(i) = o
      j = 0
      while (j < k) {
        require(!r.isNullAt(u.length + j), s"null in application attribute ${app(j)}")
        cols(j)(i) = r.getDouble(u.length + j)
        j += 1
      }
      i += 1
    }
    if (validateKeys) {
      var p = 1
      while (p < n) {
        require(byKey.compare(rows(p - 1), rows(p)) != 0,
          s"order schema $u is not a key: duplicate value ${orderRows(p).mkString("(", ",", ")")}")
        p += 1
      }
    }
    SplitRelation(u, app, fields, orderRows, new ColMatrix(cols, n))
  }

  /** Catalyst's ascending order on the leading `keys.length` fields of a row.
    * Generated code with no mutable state, so the threads of a parallel sort
    * may share it.
    */
  private def ascending(keys: Seq[StructField]): BaseOrdering =
    GenerateOrdering.generate(keys.zipWithIndex.map { case (f, i) =>
      SortOrder(BoundReference(i, f.dataType, f.nullable), Ascending)
    })

  // -------------------------------------------------------------------
  // Relation constructor (merge step): schema-level only, values are
  // whatever the caller assembled. Results are driver-local relations —
  // like result BATs in the MonetDB server.
  // -------------------------------------------------------------------

  private def build(spark: SparkSession, schema: StructType, rows: IndexedSeq[InternalRow]): DataFrame = {
    requireDistinctNames(schema.fields.map(_.name).toIndexedSeq)
    InternalDF.createLocal(spark, schema, rows)
  }

  private def requireDistinctNames(names: Seq[String]): Unit = {
    val dup = names.groupBy(_.toLowerCase).collect { case (_, vs) if vs.length > 1 => vs.head }
    require(dup.isEmpty, s"result relation would have duplicate attribute names: $dup")
  }

  private def rowOf(parts: Array[Any]*): InternalRow = {
    val total = parts.iterator.map(_.length).sum
    val vals = Array.ofDim[Any](total)
    var o = 0
    parts.foreach { p => System.arraycopy(p, 0, vals, o, p.length); o += p.length }
    new GenericInternalRow(vals)
  }

  private def boxedRow(base: ColMatrix, i: Int): Array[Any] = {
    val out = Array.ofDim[Any](base.nCols)
    var j = 0
    while (j < base.nCols) { out(j) = base(i, j); j += 1 }
    out
  }

  /** γ(μ_U(r) □ base, U ∘ names): order part glued to the base result, the
    * relation constructor of every op on the collect path. For the (r*,c*)
    * ops the order part is both inputs' order parts side by side, U ∘ V; for
    * the (c1,·) and (1,1) ops it is a [[schemaCast]].
    */
  def withOrderPart(spark: SparkSession, orderFields: Seq[StructField],
                    orderRows: Array[Array[Any]], base: ColMatrix,
                    appNames: Seq[String]): DataFrame = {
    require(base.nRows == orderRows.length,
      s"base result rows (${base.nRows}) != order part rows (${orderRows.length})")
    require(base.nCols == appNames.length,
      s"base result cols (${base.nCols}) != result schema cols (${appNames.length})")
    val schema = StructType(orderFields ++ appNames.map(StructField(_, DoubleType, nullable = false)))
    val rows = (0 until base.nRows).map(i => rowOf(orderRows(i), boxedRow(base, i)))
    build(spark, schema, rows)
  }

  /** ΔŪ: the schema cast of `values` as an order part with the single
    * attribute C — for ops whose row count is a column count of an input
    * (tra, rqr, dsv, vsv, cpd, sol), and with the op name as the only value
    * for the scalar ops det and rnk.
    */
  private[core] def schemaCast(values: Seq[String]): (Seq[StructField], Array[Array[Any]]) =
    (Seq(StructField("C", StringType, nullable = false)),
      values.map(v => Array[Any](UTF8String.fromString(v))).toArray)

  /** γ(ΔŪ □ base, (C) ∘ names): the schema cast glued to the base result. */
  def withSchemaCast(spark: SparkSession, cValues: Seq[String], base: ColMatrix,
                     appNames: Seq[String]): DataFrame = {
    val (fields, rows) = schemaCast(cValues)
    withOrderPart(spark, fields, rows, base, appNames)
  }

  // -------------------------------------------------------------------
  // Distributed element-wise path (the no-copy BAT analog): sort, assign a
  // global rank (≙ the OID order after leftfetchjoin), join on the rank, and
  // combine application columns with Catalyst expressions.
  // -------------------------------------------------------------------

  /** Name of the synthetic global-rank column used by the distributed
    * element-wise path and by [[repro.arraydb.ArrayDb]].
    */
  val IdxCol = "__rma_idx"

  /** Attach a global 0-based rank following the sort order of `order`.
    * `df.sort` range-partitions, so partition index + intra-partition
    * position is the global order; `zipWithIndex` materialises it without a
    * single-partition window. Stays on InternalRow — the analog of MonetDB's
    * cheap OID alignment (leftfetchjoin).
    */
  def withGlobalRank(df: DataFrame, order: Seq[String], assumeSorted: Boolean): DataFrame = {
    val sorted = if (assumeSorted) df else df.sort(order.map(col): _*)
    val schema = sorted.schema.add(IdxCol, LongType, nullable = false)
    val rdd = InternalDF.toInternalRdd(sorted).zipWithIndex().map { case (r, i) =>
      // copy() detaches from the operator's reused row buffer
      new JoinedRow(r.copy(), new GenericInternalRow(Array[Any](i))): InternalRow
    }
    InternalDF.create(sorted.sparkSession, rdd, schema)
  }

  /** Distributed element-wise op: schema U ∘ V ∘ Ū like the collect path,
    * but rows never leave the cluster. It checks nothing beyond the schemas:
    * [[Rma.eval]] runs the op table's preconditions first, counting each
    * input with [[checkedCount]], which also checks the keys, so
    * `validateKeys` is not read here.
    */
  def elementwiseDistributed(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
                             combine: (Column, Column) => Column,
                             validateKeys: Boolean, assumeSorted: Boolean): DataFrame = {
    val (ru, rApp) = resolveSchemas(r, u)
    val (sv, sApp) = resolveSchemas(s, v)
    val rIdx = withGlobalRank(r, ru, assumeSorted).select(
      (col(IdxCol) +: (ru ++ rApp).map(c => col(c).as(s"__r_$c"))): _*)
    val sIdx = withGlobalRank(s, sv, assumeSorted).select(
      (col(IdxCol) +: (sv ++ sApp).map(c => col(c).as(s"__s_$c"))): _*)
    val joined = rIdx.join(sIdx, IdxCol)
    val outCols =
      ru.map(c => col(s"__r_$c").as(c)) ++
      sv.map(c => col(s"__s_$c").as(c)) ++
      rApp.zip(sApp).map { case (a, b) =>
        combine(col(s"__r_$a").cast(DoubleType), col(s"__s_$b").cast(DoubleType)).as(a)
      }
    requireDistinctNames(ru ++ sv ++ rApp)
    joined.select(outCols: _*)
  }

  /** Row count of `df`, from one aggregate that also rejects nulls in the
    * application attributes `app`, like the matrix constructor. Only the
    * attributes the schema marks nullable are counted, so with none the
    * aggregate is `df.count()`. With `validateKeys`, a second job requires
    * `key` to be a key.
    */
  private[core] def checkedCount(df: DataFrame, key: Seq[String], app: Seq[String],
                                 validateKeys: Boolean): Long = {
    val nullable = app.filter(c => df.schema(c).nullable)
    val counts = df.agg(count(lit(1)), nullable.map(c => count(col(c))): _*).head()
    val total = counts.getLong(0)
    nullable.indices.foreach(j =>
      require(counts.getLong(j + 1) == total, s"null in application attribute ${nullable(j)}"))
    if (validateKeys) {
      val distinct = df.select(key.map(col): _*).distinct().count()
      require(total == distinct, s"order schema $key is not a key ($distinct distinct of $total rows)")
    }
    total
  }
}

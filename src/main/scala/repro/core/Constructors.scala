package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.analysis.{caseInsensitiveResolution, caseSensitiveResolution}
import org.apache.spark.sql.catalyst.expressions.{Ascending, BoundReference, Cast, GenericInternalRow,
  JoinedRow, RowOrdering, SortOrder, UnsafeProjection}
import org.apache.spark.sql.catalyst.expressions.codegen.LazilyGeneratedOrdering
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.internal.SQLConf
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
    * @param appCols     application schema (schema order of the input)
    * @param orderFields original StructFields of U, in the given order (types
    *                    preserved)
    * @param orderRows   order part r.U sorted by U ascending, as *catalyst*
    *                    values (UTF8String for strings, Int for dates, ...)
    * @param matrix      application part as a column-major matrix, same order
    */
  final case class SplitRelation(
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
    * be numeric). Order attributes are matched as Spark resolves `col(name)`,
    * case-insensitively unless `spark.sql.caseSensitive` is set, and come back
    * in the schema's spelling.
    */
  def resolveSchemas(df: DataFrame, order: Seq[String]): (Seq[String], Seq[String]) = {
    val all = df.columns.toSeq
    require(order.nonEmpty, "order schema must not be empty")
    val resolves = if (df.sparkSession.conf.get(SQLConf.CASE_SENSITIVE.key).toBoolean) caseSensitiveResolution
      else caseInsensitiveResolution
    val found = order.map(a => all.find(resolves(_, a)))
    val missing = order.zip(found).collect { case (a, None) => a }
    require(missing.isEmpty, s"order schema attributes $missing not in schema $all")
    val u = found.flatten
    require(u.distinct.length == u.length, s"duplicate attributes in order schema $order")
    val app = all.filterNot(u.contains)
    require(app.nonEmpty,
      s"application schema is empty: all attributes of $all are in the order schema")
    val badTypes = app.filter(c => !numeric(df.schema(c).dataType))
    require(badTypes.isEmpty,
      s"application schema attributes $badTypes are not numeric; " +
        "add them to the order schema or project them away (paper footnote 2)")
    val unsortable = u.map(df.schema(_)).filterNot(f => RowOrdering.isOrderable(f.dataType))
    require(unsortable.isEmpty,
      s"order schema attributes ${unsortable.map(f => s"${f.name}: ${f.dataType.sql}")} cannot be sorted")
    (u, app)
  }

  /** Matrix constructor μ̄_U(r) together with the order part μ_U(r):
    * collect U and the application part (cast to double) unsorted, sort the
    * rows on the driver by U, check them with [[scan]], and split them into
    * order rows and columns.
    *
    * A cached input costs one Spark job and no shuffle; a driver-local input
    * (a `LocalRelation`, such as a nested op's result) costs none. The sort
    * is Catalyst's ascending order, the one `df.sort(U)` uses: nulls first,
    * NaN last, -0.0 equal to 0.0, strings in binary order. `parallelSort`
    * runs TimSort on its leaves, so pre-sorted input (the paper's §8.1 case)
    * costs about one compare per row, which the key check pays anyway.
    */
  def collectSplit(df: DataFrame, order: Seq[String]): SplitRelation = {
    val (u, app) = resolveSchemas(df, order)
    val fields = u.map(c => df.schema(c))
    // Unless the relation already reads U, then doubles (such as an op's
    // result), it is reordered and cast: a cached one by a select, in the
    // executors' tasks; a driver-local one on the driver, as over a
    // LocalRelation Spark evaluates a select row by row at a cost quadratic
    // in the width (ConvertToLocalRelation). A LocalRelation's collect returns
    // the array its plan keeps, so the rows are sorted, and replaced, in a copy.
    val asIs = df.columns.toSeq == u ++ app && app.forall(c => df.schema(c).dataType == DoubleType)
    val onDriver = !asIs && InternalDF.isDriverLocal(df)
    val rows = InternalDF.collectInternal(if (asIs || onDriver) df
      else df.select((u.map(col) ++ app.map(c => col(c).cast(DoubleType))): _*)).clone()
    if (onDriver) {
      def at(c: String) = BoundReference(df.schema.fieldIndex(c), df.schema(c).dataType, df.schema(c).nullable)
      val toSplit = UnsafeProjection.create(u.map(at) ++ app.map(c => Cast(at(c), DoubleType)))
      var i = 0
      while (i < rows.length) { rows(i) = toSplit(rows(i)).copy(); i += 1 }
    }
    val (byKey, uTypes) = (ascending(fields), fields.map(_.dataType))
    java.util.Arrays.parallelSort(rows, byKey)
    requireValid(Seq(scan(rows.iterator, byKey, uTypes, app.length)), u, app)
    val n = rows.length
    val k = app.length
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
      while (j < k) { cols(j)(i) = r.getDouble(u.length + j); j += 1 }
      i += 1
    }
    SplitRelation(app, fields, orderRows, new ColMatrix(cols, n))
  }

  /** The signature perfbench's replay calls. It accepts only the values
    * that replay passes, checked keys and a sort, which are now always on.
    */
  @deprecated("keys are always checked and inputs always sorted; use collectSplit(df, order)", "")
  def collectSplit(df: DataFrame, order: Seq[String], validateKeys: Boolean, assumeSorted: Boolean): SplitRelation = {
    require(validateKeys && !assumeSorted, "keys are always checked and inputs always sorted")
    collectSplit(df, order)
  }

  /** Catalyst's ascending order on the leading `keys.length` fields of a row.
    * Serialisable, so executors can scan with it; the generated code has no
    * mutable state, so the threads of a parallel sort may share it.
    */
  private def ascending(keys: Seq[StructField]): LazilyGeneratedOrdering =
    new LazilyGeneratedOrdering(keys.indices.map(i =>
      SortOrder(BoundReference(i, keys(i).dataType, keys(i).nullable), Ascending)))

  /** What one pass over a sorted run of rows finds.
    *
    * @param rows      the row count
    * @param firstNull the application attribute (by position) of the first
    *                  null: in the first row that has one, or, among rows with
    *                  that row's key, the first such attribute in schema order
    * @param firstDup  the first key equal to its predecessor, as Catalyst values
    */
  private[core] final case class Scan(rows: Long, firstNull: Option[Int], firstDup: Option[Seq[Any]])

  /** One pass over `rows`, sorted by `byKey`: each row holds the key fields
    * of U (types `keyTypes`), then `nApp` application values. Adjacent rows
    * decide key uniqueness. Rows may be buffers the iterator reuses, so the
    * scan copies only what it keeps: the previous key and the faults.
    */
  private[core] def scan(rows: Iterator[InternalRow], byKey: Ordering[InternalRow],
                         keyTypes: Seq[DataType], nApp: Int): Scan = {
    val nKey = keyTypes.length
    // Keys are written to the two projections' buffers in turn, so the
    // previous key stays intact while the next one is written.
    val keyOf = Array.fill(2)(
      UnsafeProjection.create(keyTypes.indices.map(j => BoundReference(j, keyTypes(j), nullable = true))))
    def copied(key: InternalRow): Seq[Any] = keyTypes.indices.map(j => InternalRow.copyValue(key.get(j, keyTypes(j))))
    var n = 0L
    var prev: InternalRow = null
    var firstNull = -1
    var inNullKey = false // the row's key is the first null's key
    var firstDup: Option[Seq[Any]] = None
    while (rows.hasNext) {
      val r = rows.next()
      val key = keyOf((n & 1).toInt)(r)
      val same = prev != null && byKey.compare(prev, key) == 0
      if (same && firstDup.isEmpty) firstDup = Some(copied(key))
      inNullKey &&= same
      var j = 0
      while (j < nApp && !r.isNullAt(nKey + j)) j += 1
      if (j < nApp && (firstNull < 0 || inNullKey && j < firstNull)) { firstNull = j; inNullKey = true }
      prev = key
      n += 1
    }
    Scan(n, Some(firstNull).filter(_ >= 0), firstDup)
  }

  /** Raises the first fault of a sorted run scanned in consecutive pieces:
    * any null before any duplicate key, each the first in sort order. Keys
    * that compare equal print alike (-0.0 as 0.0), whichever of them the
    * sort put second.
    */
  private def requireValid(scans: Seq[Scan], u: Seq[String], app: Seq[String]): Unit = {
    val firstNull = scans.iterator.flatMap(_.firstNull).nextOption()
    require(firstNull.isEmpty, s"null in application attribute ${app(firstNull.get)}")
    val firstDup = scans.iterator.flatMap(_.firstDup).nextOption()
    require(firstDup.isEmpty, s"order schema $u is not a key: duplicate value " +
      firstDup.get.map {
        case d: Double if d == 0.0 => 0.0
        case f: Float if f == 0.0f => 0.0f
        case v => v
      }.mkString("(", ",", ")"))
  }

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

  /** An input of the distributed element-wise path: its order and
    * application attributes sorted by U and ranked 0, 1, … in that order
    * (≙ the OID order after leftfetchjoin). Building one runs no Spark job.
    * The first use of [[nRows]] or [[rows]] sorts the input (`df.sort`
    * samples the keys for its range partitioning) and runs one job that
    * [[scan]]s every sorted partition. That job raises the first null or
    * duplicate key, in sort order, and its per-partition counts give each
    * partition's first rank. Range partitioning sends keys that compare
    * equal to one partition, so adjacent rows within a partition decide
    * uniqueness. [[rows]] ranks the same RDD, so it reuses the sort's
    * shuffle output.
    */
  final class Ranked(df: DataFrame, order: Seq[String]) {
    val (u, app) = resolveSchemas(df, order)
    // An input that already reads U, then the application part, is sorted as
    // it is: Spark keeps a select that changes nothing, and over a
    // LocalRelation ConvertToLocalRelation evaluates it at a cost quadratic in
    // the width.
    private val sortedDf = (if (df.columns.toSeq == u ++ app) df else df.select((u ++ app).map(col): _*))
      .sort(u.map(col): _*)
    private lazy val sorted = InternalDF.toInternalRdd(sortedDf)
    private lazy val offsets: Array[Long] = {
      val keys = u.map(sortedDf.schema(_))
      val (byKey, keyTypes, nApp) = (ascending(keys), keys.map(_.dataType), app.length)
      val scans = sorted.mapPartitions(it => Iterator(scan(it, byKey, keyTypes, nApp))).collect()
      requireValid(scans.toSeq, u, app)
      scans.scanLeft(0L)(_ + _.rows)
    }

    def nRows: Long = offsets.last

    /** U, the application attributes (not null, as the scan found) and the
      * rank [[IdxCol]].
      */
    def rows: DataFrame = {
      val first = offsets
      val ranked = sorted.mapPartitionsWithIndex { (p, it) =>
        var i = first(p) - 1
        it.map { r => i += 1; new JoinedRow(r, new GenericInternalRow(Array[Any](i))): InternalRow }
      }
      val (keys, values) = sortedDf.schema.splitAt(u.length)
      InternalDF.create(df.sparkSession, ranked,
        StructType(keys ++ values.map(_.copy(nullable = false))).add(IdxCol, LongType, nullable = false))
    }
  }

  /** Distributed element-wise op: schema U ∘ V ∘ Ū like the collect path,
    * but rows never leave the cluster: the inputs are joined on their rank.
    * It checks nothing beyond the result's names: [[Rma.eval]] runs the op
    * table's preconditions first, reading each input's [[Ranked.nRows]].
    */
  def elementwiseDistributed(r: Ranked, s: Ranked, combine: (Column, Column) => Column): DataFrame = {
    val rIdx = r.rows.select((col(IdxCol) +: (r.u ++ r.app).map(c => col(c).as(s"__r_$c"))): _*)
    val sIdx = s.rows.select((col(IdxCol) +: (s.u ++ s.app).map(c => col(c).as(s"__s_$c"))): _*)
    val joined = rIdx.join(sIdx, IdxCol)
    val outCols =
      r.u.map(c => col(s"__r_$c").as(c)) ++
      s.u.map(c => col(s"__s_$c").as(c)) ++
      r.app.zip(s.app).map { case (a, b) =>
        combine(col(s"__r_$a").cast(DoubleType), col(s"__s_$b").cast(DoubleType)).as(a)
      }
    requireDistinctNames(r.u ++ s.u ++ r.app)
    joined.select(outCols: _*)
  }

  /** The signature perfbench's replay calls. It accepts only the values
    * that replay passes, checked keys and a sort, which are now always on;
    * the rank step of each input checks its nulls and keys.
    */
  @deprecated("keys are always checked and inputs always sorted; use elementwiseDistributed(Ranked, Ranked, …)", "")
  def elementwiseDistributed(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
                             combine: (Column, Column) => Column,
                             validateKeys: Boolean, assumeSorted: Boolean): DataFrame = {
    require(validateKeys && !assumeSorted, "keys are always checked and inputs always sorted")
    elementwiseDistributed(new Ranked(r, u), new Ranked(s, v), combine)
  }
}

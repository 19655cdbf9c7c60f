package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.Constructors.SplitRelation
import repro.matrix.{BreezeBackend, ColMatrix, ColumnarBackend, MatrixBackend}

/** Execution configuration for relational matrix operations. Order schemas
  * are always checked to be keys, and inputs are always sorted.
  *
  * @param backend physical kernel backend for base results. [[BreezeBackend]]
  *                is the RMA+MKL analog (copy + library call),
  *                [[ColumnarBackend]] the RMA+BAT analog (no-copy column
  *                kernels). Mirrors the paper's policy of choosing per query.
  * @param distributedElementwise run add/sub/emu fully distributed through
  *                Catalyst (sort → global rank → rank join → column
  *                arithmetic), the analog of MonetDB executing linear ops
  *                directly on BATs. When false they use the collect path.
  */
final case class RmaConfig(
    backend: MatrixBackend = BreezeBackend,
    distributedElementwise: Boolean = true) {

  /** Read by perfbench's run record; keys are always checked. */
  @deprecated("order schemas are always checked to be keys", "")
  def validateKeys: Boolean = true

  /** Read by perfbench's run record; inputs are always sorted. */
  @deprecated("inputs are always sorted", "")
  def assumeSorted: Boolean = false
}

object RmaConfig {
  val default: RmaConfig = RmaConfig()
}

/** The relational matrix algebra (paper Section 4, Table 2).
  *
  * Every operation takes relation(s) as DataFrames plus one order schema per
  * argument and returns a relation (DataFrame) — the algebra is closed. The
  * result carries the base result of the corresponding matrix operation plus
  * contextual information (row and column origins) per the op's shape type.
  *
  * The ops are rows of the table [[OpSpec]], evaluated by [[eval]]; the named
  * methods below forward to it. Unary ops: `op(r, U)`; binary ops:
  * `op(r, U, s, V)` — the SQL surface `SELECT * FROM OP(r BY U, s BY V)` is
  * provided by [[RmaSql]].
  */
object Rma {
  import Constructors._
  import Dim._

  /** Evaluate `op` on its arguments, each a relation with its order schema.
    *
    * Every call resolves the arguments' schemas and checks the op's
    * preconditions in table order; a row count is computed on first use,
    * by the sorted scan that also rejects nulls and duplicate keys.
    * add/sub/emu then run on the distributed element-wise path when
    * `cfg.distributedElementwise` is set, where each input's rank step gives
    * its row count. Every other call splits each distinct argument once (the
    * split gives the row count), runs the op's kernel on `cfg.backend`, and
    * builds the result with the relation constructor that the op's shape
    * type selects (paper Tables 2 and 3). A failed check, schema, key or
    * null names the op: `requirement failed: <op>: <reason>`.
    */
  def eval(op: OpSpec, args: Seq[(DataFrame, Seq[String])],
           cfg: RmaConfig = RmaConfig.default): DataFrame = eval(op, args, cfg, new Splits)

  /** [[eval]] with splits shared across the calls of one RMA expression. */
  private[core] def eval(op: OpSpec, args: Seq[(DataFrame, Seq[String])], cfg: RmaConfig,
                         splits: Splits): DataFrame = {
    op.requireArity(args.length)
    def check(a: Seq[Arg]): Unit = op.preconditions.foreach(p => require(p.holds(a), p.why(a)))
    op.combine.filter(_ => cfg.distributedElementwise) match {
      case Some(combine) =>
        val Seq(r, s) = named(op) {
          val ranked = args.map { case (df, u) => new Ranked(df, u) }
          check(ranked.map(x => new Arg(x.u, x.app, x.nRows)))
          ranked
        }
        elementwiseDistributed(r, s, combine)
      case None =>
        val sp = named(op) {
          check(args.map { case (df, u) =>
            val (order, app) = resolveSchemas(df, u)
            new Arg(order, app, splits(df, u).matrix.nRows)
          })
          args.map { case (df, u) => splits(df, u) }
        }
        relation(args.head._1.sparkSession, op, sp, op.kernel(cfg.backend, sp.map(_.matrix)))
    }
  }

  /** Runs `body`, naming `op` in any argument error it raises. */
  private def named[A](op: OpSpec)(body: => A): A =
    try body catch {
      case e: IllegalArgumentException =>
        throw new IllegalArgumentException(
          s"requirement failed: ${op.name}: ${e.getMessage.stripPrefix("requirement failed: ")}", e)
    }

  /** The matrix constructor for the calls of one RMA expression: each
    * (relation, order schema) pair is split once, however often it occurs.
    * Relations are told apart by reference. Sharing a split is safe because
    * no kernel mutates its input matrices.
    */
  private[core] final class Splits {
    private val done = scala.collection.mutable.ArrayBuffer.empty[(DataFrame, Seq[String], SplitRelation)]

    def apply(df: DataFrame, u: Seq[String]): SplitRelation =
      done.collectFirst { case (d, v, sp) if (d eq df) && v == u => sp }.getOrElse {
        val sp = collectSplit(df, u)
        done += ((df, u, sp))
        sp
      }
  }

  /** The relation constructor for the op's shape type: the rows dimension
    * gives the order part (r1: r's, r*: r's and s's side by side, c1: the
    * schema cast of r's application schema, 1: of the op name), the columns
    * dimension the names of the base result's columns (c1/c*: r's
    * application schema, c2: s's, r1/r2: the column cast of r/s, 1: the op
    * name).
    */
  private def relation(spark: SparkSession, op: OpSpec, sp: Seq[SplitRelation],
                       base: ColMatrix): DataFrame = {
    val (r, s) = (sp.head, sp.last)
    def none(d: Dim) =
      throw new IllegalArgumentException(s"${op.name}: shape type ${op.shape} has no constructor for $d")
    val names = op.shape.cols match {
      case C1 | CStar => r.appCols
      case C2         => s.appCols
      case R1         => r.columnCast
      case R2         => s.columnCast
      case One        => Seq(op.name)
      case d          => none(d)
    }
    val (fields, rows) = op.shape.rows match {
      case R1    => (r.orderFields, r.orderRows)
      case RStar => (r.orderFields ++ s.orderFields, r.orderRows.zip(s.orderRows).map { case (a, b) => a ++ b })
      case C1    => schemaCast(r.appCols)
      case One   => schemaCast(Seq(op.name))
      case d     => none(d)
    }
    withOrderPart(spark, fields, rows, base, names)
  }

  /** Matrix inversion (shape (r1,c1)). */
  def inv(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.inv, Seq(r -> u), cfg)

  /** Eigenvectors of a symmetric application part (shape (r1,c1)). */
  def evc(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.evc, Seq(r -> u), cfg)

  /** Eigenvalues, descending, of a symmetric application part (shape (r1,1)). */
  def evl(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.evl, Seq(r -> u), cfg)

  /** Cholesky factor R with A = RᵀR (shape (r1,c1)). */
  def chf(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.chf, Seq(r -> u), cfg)

  /** Q factor of the QR decomposition (shape (r1,c1)). */
  def qqr(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.qqr, Seq(r -> u), cfg)

  /** R factor of the QR decomposition (shape (c1,c1)). */
  def rqr(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.rqr, Seq(r -> u), cfg)

  /** Full left SVD factor (shape (r1,r1)); result columns are named by the
    * sorted key values (column cast ∇U), so |U| must be 1.
    */
  def usv(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.usv, Seq(r -> u), cfg)

  /** Diagonal matrix of singular values, descending (shape (c1,c1)). */
  def dsv(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.dsv, Seq(r -> u), cfg)

  /** Right singular vectors V (shape (c1,c1) — see DESIGN.md §3 on the
    * paper's Table 1 typo for vsv).
    */
  def vsv(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.vsv, Seq(r -> u), cfg)

  /** Transpose (shape (c1,r1)): rows are the application attributes (new
    * attribute C), columns are named by the sorted key values (∇U, |U|=1).
    */
  def tra(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.tra, Seq(r -> u), cfg)

  /** Determinant (shape (1,1)). */
  def det(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.det, Seq(r -> u), cfg)

  /** Numerical rank (shape (1,1)). */
  def rnk(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    eval(OpSpec.rnk, Seq(r -> u), cfg)

  /** Matrix multiplication (shape (r1,c2)): schema U ∘ V̄. The application
    * part of `r` must have as many columns as `s` has rows.
    */
  def mmu(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame = eval(OpSpec.mmu, Seq(r -> u, s -> v), cfg)

  /** Outer product a·bᵀ (shape (r1,r2)): schema U ∘ ∇V, so |V| must be 1. */
  def opd(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame = eval(OpSpec.opd, Seq(r -> u, s -> v), cfg)

  /** Cross product aᵀ·b (shape (c1,c2)): schema (C) ∘ V̄. */
  def cpd(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame = eval(OpSpec.cpd, Seq(r -> u, s -> v), cfg)

  /** Solve a·x = b, least squares when rectangular (shape (c1,c2)):
    * schema (C) ∘ V̄.
    */
  def sol(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame = eval(OpSpec.sol, Seq(r -> u, s -> v), cfg)

  /** Element-wise addition (shape (r*,c*)): schema U ∘ V ∘ Ū. */
  def add(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame = eval(OpSpec.add, Seq(r -> u, s -> v), cfg)

  /** Element-wise subtraction (shape (r*,c*)). */
  def sub(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame = eval(OpSpec.sub, Seq(r -> u, s -> v), cfg)

  /** Element-wise multiplication (shape (r*,c*)). */
  def emu(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
          cfg: RmaConfig = RmaConfig.default): DataFrame = eval(OpSpec.emu, Seq(r -> u, s -> v), cfg)
}

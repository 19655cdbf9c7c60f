package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.repro.InternalDF

import repro.core.Constructors.SplitRelation
import repro.matrix.{BreezeBackend, ColMatrix, Kernels, MatrixBackend}

/** Execution configuration for relational matrix operations. Order schemas
  * are always checked to be keys, and inputs are always sorted. The input,
  * not the configuration, picks the element-wise route ([[Rma.eval]]).
  *
  * @param backend physical kernel backend for the base results of the 15
  *                ops that are neither element-wise nor `tra`; add, sub and
  *                emu always run on [[Kernels]], as RMA+ keeps them on BATs,
  *                and `tra` is a copy on either backend.
  *                [[BreezeBackend]] is the RMA+MKL analog (copy + library
  *                call), [[Kernels]] the RMA+BAT analog (no-copy column
  *                kernels). Mirrors the paper's policy of choosing per query.
  */
final case class RmaConfig(backend: MatrixBackend = BreezeBackend) {

  /** Read by perfbench's run record; keys are always checked. */
  @deprecated("order schemas are always checked to be keys", "")
  def validateKeys: Boolean = true

  /** Read by perfbench's run record; inputs are always sorted. */
  @deprecated("inputs are always sorted", "")
  def assumeSorted: Boolean = false

  /** Read by perfbench's run record: the route its cached inputs take. */
  @deprecated("the inputs pick the element-wise route: collect when every one is driver-local", "")
  def distributedElementwise: Boolean = true
}

object RmaConfig {
  val default: RmaConfig = RmaConfig()
}

/** The relational matrix algebra (paper Section 4, Tables 1 and 2), as its
  * operator table.
  *
  * Every operation takes relation(s) as DataFrames plus one order schema per
  * argument and returns a relation (DataFrame) — the algebra is closed. The
  * result carries the base result of the corresponding matrix operation plus
  * contextual information (row and column origins) per the op's shape type.
  *
  * Each op is one row below, an [[OpSpec]] evaluated by [[eval]]. Unary ops
  * apply as `Rma.inv(r, U)`, binary ops as `Rma.mmu(r, U, s, V)`, each with
  * an optional [[RmaConfig]] last; the SQL surface
  * `SELECT * FROM OP(r BY U, s BY V)` is provided by [[RmaSql]].
  */
object Rma {
  import Constructors._
  import Dim._
  import OpSpec._

  /** A 1x1 base result; adding 0.0 turns -0.0 into 0.0, so a singular
    * matrix's det reads 0.0 on both backends.
    */
  private def scalar(v: Double): ColMatrix = ColMatrix.fromVector(Array(v + 0.0))

  /** Matrix inversion (shape (r1,c1)). */
  val inv: UnaryOp = unary("inv", R1, C1, square)(_.inv(_))
  /** Eigenvectors of a symmetric application part (shape (r1,c1)). */
  val evc: UnaryOp = unary("evc", R1, C1, square)(_.eig(_)._2)
  /** Eigenvalues, descending, of a symmetric application part (shape (r1,1)). */
  val evl: UnaryOp = unary("evl", R1, One, square)((b, m) => ColMatrix.fromVector(b.eig(m)._1))
  /** Cholesky factor R with A = RᵀR (shape (r1,c1)). */
  val chf: UnaryOp = unary("chf", R1, C1, square)(_.chf(_))
  /** Q factor of the QR decomposition (shape (r1,c1)). */
  val qqr: UnaryOp = unary("qqr", R1, C1)(_.qr(_)._1)
  /** R factor of the QR decomposition (shape (c1,c1)). */
  val rqr: UnaryOp = unary("rqr", C1, C1)(_.qr(_)._2)
  /** Full left SVD factor: thin U completed to a square orthonormal basis
    * (shape (r1,r1)); result columns are named by the sorted key values
    * (column cast ∇U), so |U| must be 1.
    */
  val usv: UnaryOp = unary("usv", R1, R1)((b, m) => Kernels.completeToSquare(b.svd(m)._1))
  /** Diagonal matrix of singular values, descending, padded with zeros to
    * the number of application attributes (shape (c1,c1)).
    */
  val dsv: UnaryOp = unary("dsv", C1, C1)((b, m) => ColMatrix.diag(b.svd(m)._2.padTo(m.nCols, 0.0)))
  /** Right singular vectors V, completed to a square orthonormal basis like
    * usv's U. Shape (c1,c1) like dsv, not the paper's Table 1 entry: V is
    * j1 x j1, and the paper's Figure 14 measurements confirm the small
    * result shape (DESIGN.md §3).
    */
  val vsv: UnaryOp = unary("vsv", C1, C1)((b, m) => Kernels.completeToSquare(b.svd(m)._3))
  /** Transpose (shape (c1,r1)): rows are the application attributes (new
    * attribute C), columns are named by the sorted key values (∇U, |U|=1).
    */
  val tra: UnaryOp = unary("tra", C1, R1)(_.tra(_))
  /** Determinant (shape (1,1)). */
  val det: UnaryOp = unary("det", One, One, square)((b, m) => scalar(b.det(m)))
  /** Numerical rank (shape (1,1)). */
  val rnk: UnaryOp = unary("rnk", One, One)((b, m) => scalar(b.rnk(m).toDouble))
  /** Matrix multiplication (shape (r1,c2)): schema U ∘ V̄. The application
    * part of `r` must have as many columns as `s` has rows.
    */
  val mmu: BinaryOp = binary("mmu", R1, C2, innerDims)(_.mmu(_, _))
  /** Outer product a·bᵀ (shape (r1,r2)): schema U ∘ ∇V, so |V| must be 1. */
  val opd: BinaryOp = binary("opd", R1, R2, sameWidth)(_.opd(_, _))
  /** Cross product aᵀ·b (shape (c1,c2)): schema (C) ∘ V̄. */
  val cpd: BinaryOp = binary("cpd", C1, C2, sameRows)(_.cpd(_, _))
  /** Solve a·x = b, least squares when rectangular (shape (c1,c2)):
    * schema (C) ∘ V̄.
    */
  val sol: BinaryOp = binary("sol", C1, C2, sameRows)(_.sol(_, _))
  /** Element-wise addition (shape (r*,c*)): schema U ∘ V ∘ Ū. */
  val add: BinaryOp = elementwise("add", _ + _)(Kernels.add)
  /** Element-wise subtraction (shape (r*,c*)). */
  val sub: BinaryOp = elementwise("sub", _ - _)(Kernels.sub)
  /** Element-wise multiplication (shape (r*,c*)). */
  val emu: BinaryOp = elementwise("emu", _ * _)(Kernels.emu)

  /** The operator table: all 19 ops of the algebra. */
  val all: Seq[OpSpec] =
    Seq(inv, evc, evl, chf, qqr, rqr, usv, dsv, vsv, tra, det, rnk, mmu, opd, cpd, sol, add, sub, emu)

  val byName: Map[String, OpSpec] = all.map(o => o.name -> o).toMap

  /** Evaluate `op` on its arguments, each a relation with its order schema.
    *
    * Every call resolves the arguments' schemas and checks the op's
    * preconditions in table order; a row count is computed on first use,
    * by the sorted scan that also rejects nulls and duplicate keys.
    * add/sub/emu run on the distributed element-wise route, where each
    * input's rank step gives its row count, unless every argument is
    * driver-local (a `LocalRelation`, such as a nested op's result): then a
    * split costs no Spark job, while the distributed route would sort and
    * shuffle. It takes *every* argument because the split collects each
    * input before the row counts are compared. Every other call splits each
    * distinct argument once (the split gives the row count), runs the op's
    * kernel (on `cfg.backend`, except add/sub/emu), and builds the result
    * with the relation constructor that the op's shape type selects (paper
    * Tables 2 and 3). Every fault of the call, a failed check (schema, key,
    * null), a kernel fault or a clash of result attribute names, names the
    * op: `requirement failed: <op>: <reason>`.
    */
  def eval(op: OpSpec, args: Seq[(DataFrame, Seq[String])],
           cfg: RmaConfig = RmaConfig.default): DataFrame = eval(op, args, cfg, new Splits)

  /** [[eval]] with splits shared across the calls of one RMA expression. */
  private[core] def eval(op: OpSpec, args: Seq[(DataFrame, Seq[String])], cfg: RmaConfig,
                         splits: Splits): DataFrame = {
    op.requireArity(args.length)
    def check(a: Seq[Arg]): Unit = op.preconditions.foreach(p => require(p.holds(a), p.why(a)))
    named(op) {
      op.combine.filter(_ => !args.forall { case (df, _) => InternalDF.isDriverLocal(df) }) match {
        case Some(combine) =>
          val Seq(r, s) = args.map { case (df, u) => new Ranked(df, u) }
          check(Seq(r, s).map(x => new Arg(x.u, x.app, x.nRows)))
          elementwiseDistributed(r, s, combine)
        case None =>
          check(args.map { case (df, u) =>
            val (order, app) = resolveSchemas(df, u)
            new Arg(order, app, splits(df, u).matrix.nRows)
          })
          val sp = args.map { case (df, u) => splits(df, u) }
          relation(args.head._1.sparkSession, op, sp, op.kernel(cfg.backend, sp.map(_.matrix)))
      }
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
      throw new IllegalArgumentException(s"shape type ${op.shape} has no constructor for $d")
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
}

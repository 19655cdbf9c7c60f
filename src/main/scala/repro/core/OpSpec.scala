package repro.core

import org.apache.spark.sql.Column

import repro.matrix.{ColMatrix, MatrixBackend}

/** An op argument as its preconditions see it: the order and application
  * schemas, known without a Spark job, and the row count, computed on first
  * use (by the split on the collect route, by the rank step on the
  * distributed route; both also reject nulls and duplicate keys).
  */
final class Arg(val orderCols: Seq[String], val appCols: Seq[String], count: => Long) {
  lazy val nRows: Long = count
  def nCols: Int = appCols.length
}

/** A precondition on an op's arguments. `why` explains a failure; the
  * evaluator prefixes it with the op name.
  */
final case class Precondition(holds: Seq[Arg] => Boolean, why: Seq[Arg] => String)

/** One row of the relational matrix algebra (paper Tables 1 and 2): an op is
  * a matrix kernel plus a shape type. The shape type alone fixes the
  * contextual information of the result (paper Tables 2 and 3), so the
  * evaluator [[Rma.eval]] derives the relation constructor from it.
  *
  * @param kernel  base result from the arguments' application parts
  * @param preconditions the kernel's own conditions and those the shape
  *                type implies, in the order they are checked
  * @param combine Catalyst column combiner of the distributed element-wise
  *                path (add, sub, emu only)
  */
final case class OpSpec(
    name: String,
    arity: Int,
    shape: ShapeType,
    kernel: (MatrixBackend, Seq[ColMatrix]) => ColMatrix,
    preconditions: Seq[Precondition],
    combine: Option[(Column, Column) => Column] = None) {

  def requireArity(n: Int): Unit =
    require(n == arity,
      s"$name takes ${if (arity == 1) "one argument" else "two arguments"}, got $n")
}

/** The operator table: all 19 ops of the algebra. */
object OpSpec {
  import Dim._

  private val square = Precondition(a => a(0).nRows == a(0).nCols,
    a => s"application part must be square, got ${a(0).nRows}x${a(0).nCols} " +
      s"(order schema ${a(0).orderCols}, application schema ${a(0).appCols})")
  private val sameRows = Precondition(a => a(0).nRows == a(1).nRows,
    a => s"row counts differ (${a(0).nRows} vs ${a(1).nRows})")
  private val sameWidth = Precondition(a => a(0).nCols == a(1).nCols,
    a => s"application schemas are not union compatible (${a(0).appCols} vs ${a(1).appCols})")
  private val innerDims = Precondition(a => a(0).nCols == a(1).nRows,
    a => s"|application schema of r| = ${a(0).nCols} must equal |s| = ${a(1).nRows}")
  private val disjointOrders = Precondition(a => a(0).orderCols.intersect(a(1).orderCols).isEmpty,
    a => s"order schemas must not overlap (paper §4.2): ${a(0).orderCols.intersect(a(1).orderCols)}")
  private def singleKey(i: Int) = Precondition(a => a(i).orderCols.length == 1,
    a => s"column cast requires a single order attribute, got ${a(i).orderCols}")

  /** The conditions the shape type implies (paper Table 1) around the op's
    * own: result columns named by key values (∇U, paper Eq. 2) need |U| = 1;
    * (r*,c*) pairs both arguments row by row and column by column. Schema
    * conditions come first, so they fail before any Spark job.
    */
  private def withShape(rows: Dim, cols: Dim, own: Seq[Precondition]): Seq[Precondition] = (rows, cols) match {
    case (_, R1)        => singleKey(0) +: own
    case (_, R2)        => singleKey(1) +: own
    case (RStar, CStar) => Seq(disjointOrders, sameWidth) ++ own :+ sameRows
    case _              => own
  }

  private def unary(name: String, rows: Dim, cols: Dim, pre: Precondition*)(
      k: (MatrixBackend, ColMatrix) => ColMatrix): OpSpec =
    OpSpec(name, 1, ShapeType(rows, cols), (b, m) => k(b, m(0)), withShape(rows, cols, pre))

  private def binary(name: String, rows: Dim, cols: Dim, pre: Precondition*)(
      k: (MatrixBackend, ColMatrix, ColMatrix) => ColMatrix): OpSpec =
    OpSpec(name, 2, ShapeType(rows, cols), (b, m) => k(b, m(0), m(1)), withShape(rows, cols, pre))

  private def elementwise(name: String, combine: (Column, Column) => Column)(
      k: (MatrixBackend, ColMatrix, ColMatrix) => ColMatrix): OpSpec =
    binary(name, RStar, CStar)(k).copy(combine = Some(combine))

  private def scalar(v: Double): ColMatrix = ColMatrix.fromVector(Array(v))

  val inv: OpSpec = unary("inv", R1, C1, square)(_.inv(_))
  val evc: OpSpec = unary("evc", R1, C1, square)(_.eig(_)._2)
  val evl: OpSpec = unary("evl", R1, One, square)((b, m) => ColMatrix.fromVector(b.eig(m)._1))
  val chf: OpSpec = unary("chf", R1, C1, square)(_.chf(_))
  val qqr: OpSpec = unary("qqr", R1, C1)(_.qr(_)._1)
  val rqr: OpSpec = unary("rqr", C1, C1)(_.qr(_)._2)
  val usv: OpSpec = unary("usv", R1, R1)(_.svdFullU(_))
  val dsv: OpSpec = unary("dsv", C1, C1)((b, m) => ColMatrix.diag(b.svd(m)._2))
  // vsv has shape (c1,c1) like dsv, not the paper's Table 1 entry: V is
  // j1 x j1, and the paper's Figure 14 measurements confirm the small result
  // shape (DESIGN.md §3).
  val vsv: OpSpec = unary("vsv", C1, C1)(_.svd(_)._3)
  val tra: OpSpec = unary("tra", C1, R1)(_.tra(_))
  val det: OpSpec = unary("det", One, One, square)((b, m) => scalar(b.det(m)))
  val rnk: OpSpec = unary("rnk", One, One)((b, m) => scalar(b.rnk(m).toDouble))
  val mmu: OpSpec = binary("mmu", R1, C2, innerDims)(_.mmu(_, _))
  val opd: OpSpec = binary("opd", R1, R2, sameWidth)(_.opd(_, _))
  val cpd: OpSpec = binary("cpd", C1, C2, sameRows)(_.cpd(_, _))
  val sol: OpSpec = binary("sol", C1, C2, sameRows)(_.sol(_, _))
  val add: OpSpec = elementwise("add", _ + _)(_.add(_, _))
  val sub: OpSpec = elementwise("sub", _ - _)(_.sub(_, _))
  val emu: OpSpec = elementwise("emu", _ * _)(_.emu(_, _))

  val all: Seq[OpSpec] =
    Seq(inv, evc, evl, chf, qqr, rqr, usv, dsv, vsv, tra, det, rnk, mmu, opd, cpd, sol, add, sub, emu)

  val byName: Map[String, OpSpec] = all.map(o => o.name -> o).toMap
}

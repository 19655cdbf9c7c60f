package repro.core

import org.apache.spark.sql.{Column, DataFrame}

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
  * evaluator [[Rma.eval]] derives the relation constructor from it. The rows
  * themselves are the table [[Rma]]; each applies like a method,
  * `Rma.inv(r, U)` or `Rma.add(r, U, s, V, cfg)`.
  *
  * @param kernel  base result from the arguments' application parts, on
  *                the configured backend (add, sub and emu ignore it)
  * @param preconditions the kernel's own conditions and those the shape
  *                type implies, in the order they are checked
  * @param combine Catalyst column combiner of the distributed element-wise
  *                route (add, sub, emu only)
  */
sealed abstract class OpSpec(
    val name: String,
    val arity: Int,
    val shape: ShapeType,
    val kernel: (MatrixBackend, Seq[ColMatrix]) => ColMatrix,
    val preconditions: Seq[Precondition],
    val combine: Option[(Column, Column) => Column]) {

  def requireArity(n: Int): Unit =
    require(n == arity,
      s"$name takes ${if (arity == 1) "one argument" else "two arguments"}, got $n")

  override def toString: String = name
}

/** An op of one argument, applied as `op(r, U)`. */
final class UnaryOp private[core] (name: String, shape: ShapeType,
                                   kernel: (MatrixBackend, Seq[ColMatrix]) => ColMatrix,
                                   preconditions: Seq[Precondition])
    extends OpSpec(name, 1, shape, kernel, preconditions, None) {

  def apply(r: DataFrame, u: Seq[String], cfg: RmaConfig = RmaConfig.default): DataFrame =
    Rma.eval(this, Seq(r -> u), cfg)
}

/** An op of two arguments, applied as `op(r, U, s, V)`. */
final class BinaryOp private[core] (name: String, shape: ShapeType,
                                    kernel: (MatrixBackend, Seq[ColMatrix]) => ColMatrix,
                                    preconditions: Seq[Precondition],
                                    combine: Option[(Column, Column) => Column])
    extends OpSpec(name, 2, shape, kernel, preconditions, combine) {

  def apply(r: DataFrame, u: Seq[String], s: DataFrame, v: Seq[String],
            cfg: RmaConfig = RmaConfig.default): DataFrame =
    Rma.eval(this, Seq(r -> u, s -> v), cfg)
}

/** The builders of the operator table's rows and the conditions they list. */
object OpSpec {
  import Dim._

  private[core] val square = Precondition(a => a(0).nRows == a(0).nCols,
    a => s"application part must be square, got ${a(0).nRows}x${a(0).nCols} " +
      s"(order schema ${a(0).orderCols}, application schema ${a(0).appCols})")
  private[core] val sameRows = Precondition(a => a(0).nRows == a(1).nRows,
    a => s"row counts differ (${a(0).nRows} vs ${a(1).nRows})")
  private[core] val sameWidth = Precondition(a => a(0).nCols == a(1).nCols,
    a => s"application schemas are not union compatible (${a(0).appCols} vs ${a(1).appCols})")
  private[core] val innerDims = Precondition(a => a(0).nCols == a(1).nRows,
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

  private[core] def unary(name: String, rows: Dim, cols: Dim, pre: Precondition*)(
      k: (MatrixBackend, ColMatrix) => ColMatrix): UnaryOp =
    new UnaryOp(name, ShapeType(rows, cols), (b, m) => k(b, m(0)), withShape(rows, cols, pre))

  private[core] def binary(name: String, rows: Dim, cols: Dim, pre: Precondition*)(
      k: (MatrixBackend, ColMatrix, ColMatrix) => ColMatrix): BinaryOp =
    new BinaryOp(name, ShapeType(rows, cols), (b, m) => k(b, m(0), m(1)), withShape(rows, cols, pre), None)

  private[core] def elementwise(name: String, combine: (Column, Column) => Column)(
      k: (ColMatrix, ColMatrix) => ColMatrix): BinaryOp =
    new BinaryOp(name, ShapeType(RStar, CStar), (_, m) => k(m(0), m(1)),
      withShape(RStar, CStar, Nil), Some(combine))
}

package repro.core

/** Shape types of matrix operations — paper Table 1.
  *
  * A matrix operation is *shape restricted*: each result dimension equals the
  * row count of an input (`R1`, `R2`, `RStar`), the column count of an input
  * (`C1`, `C2`, `CStar`), or one (`One`). The shape type drives which
  * contextual information the relational matrix operation inherits
  * (paper Tables 2 and 3): [[Rma.eval]] picks the relation constructor from
  * it alone.
  */
sealed trait Dim
object Dim {
  /** rows of the first argument */    case object R1    extends Dim
  /** rows of the second argument */   case object R2    extends Dim
  /** rows of both (must be equal) */  case object RStar extends Dim
  /** columns of the first argument */ case object C1    extends Dim
  /** columns of the second argument */case object C2    extends Dim
  /** columns of both */               case object CStar extends Dim
  /** constant one */                  case object One   extends Dim
}

final case class ShapeType(rows: Dim, cols: Dim)

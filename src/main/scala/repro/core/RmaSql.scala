package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** SQL surface for relational matrix operations (paper Section 7.2).
  *
  * The paper extends MonetDB's SQL parser so RMA ops appear in the FROM
  * clause: `SELECT * FROM INV(r BY U)`, `SELECT * FROM MMU(r BY U, s BY V)`,
  * with nesting, e.g. `MMU(INV(CPD(a BY k, a BY k) BY C, ...) ...`. Spark's
  * parser is not extensible with table-valued operators from the outside, so
  * we pre-process the query: the FROM-clause RMA expression is parsed by a
  * small recursive-descent parser into a [[Source]] tree, checked against
  * the operator table [[Rma]], and only then evaluated via [[Rma.eval]],
  * with its tables resolved first and one split per (table, order schema).
  * The result is registered as a temp view while Spark SQL analyses the
  * remaining query text, which it receives verbatim.
  */
object RmaSql {

  /** A parsed FROM-clause source: a table name or an RMA operator call whose
    * arguments carry their order schemas.
    */
  private sealed trait Source
  private final case class Table(name: String) extends Source
  private final case class Call(op: OpSpec, args: Seq[(Source, Seq[String])]) extends Source

  /** Run a query whose FROM clause may contain (nested) RMA operator calls. */
  def sql(spark: SparkSession, query0: String, cfg: RmaConfig = RmaConfig.default): DataFrame = {
    val query = query0.trim.stripSuffix(";")
    val fromIdx = findTopLevelFrom(query)
    if (fromIdx < 0) return spark.sql(query)
    val cur = new Cursor(query, fromIdx + "FROM".length)
    cur.skipWs()
    if (!startsOpCall(cur)) return spark.sql(query)
    val source = parseSource(cur)
    val rest = query.substring(cur.pos)
    val view = s"__rma_${java.util.UUID.randomUUID().toString.replace("-", "").take(12)}"
    eval(spark, source, cfg).createOrReplaceTempView(view)
    // spark.sql analyses eagerly: the returned plan no longer needs the view.
    try spark.sql(s"${query.substring(0, fromIdx)} FROM $view $rest")
    finally spark.catalog.dropTempView(view)
  }

  /** Evaluate a bare RMA expression like `INV(r BY u)` to a DataFrame. */
  def expr(spark: SparkSession, expression: String, cfg: RmaConfig = RmaConfig.default): DataFrame = {
    val cur = new Cursor(expression.trim.stripSuffix(";"), 0)
    cur.skipWs()
    val source = parseSource(cur)
    cur.skipWs()
    require(cur.atEnd, s"trailing input after RMA expression: '${cur.remaining}'")
    eval(spark, source, cfg)
  }

  /** Resolves every table before any op runs, so a missing table fails
    * first, and gives each table one DataFrame, so the ops of the expression
    * share one split per (table, order schema).
    */
  private def eval(spark: SparkSession, source: Source, cfg: RmaConfig): DataFrame = {
    def tables(s: Source): Seq[String] = s match {
      case Table(name)   => Seq(name)
      case Call(_, args) => args.flatMap(a => tables(a._1))
    }
    val resolved = tables(source).distinct.map(n => n -> spark.table(n)).toMap
    val splits = new Rma.Splits
    def go(s: Source): DataFrame = s match {
      case Table(name)    => resolved(name)
      case Call(op, args) => Rma.eval(op, args.map { case (a, by) => (go(a), by) }, cfg, splits)
    }
    go(source)
  }

  // -----------------------------------------------------------------

  /** Char index of the top-level FROM keyword (paren depth 0, outside
    * quotes and comments), or -1. Quotes are '…' and "…" strings, with
    * backslash escapes, and `…` identifiers.
    */
  private def findTopLevelFrom(q: String): Int = {
    var depth = 0
    var i = skipBlank(q, 0)
    while (i < q.length) {
      q.charAt(i) match {
        case c @ ('\'' | '"' | '`') =>
          i += 1
          while (i < q.length && q.charAt(i) != c) i += (if (c != '`' && q.charAt(i) == '\\') 2 else 1)
        case '(' => depth += 1
        case ')' => depth -= 1
        case 'f' | 'F' if depth == 0 &&
            q.regionMatches(true, i, "FROM", 0, 4) &&
            (i == 0 || !isIdentChar(q.charAt(i - 1))) &&
            (i + 4 >= q.length || !isIdentChar(q.charAt(i + 4))) =>
          return i
        case _ => ()
      }
      i = skipBlank(q, i + 1)
    }
    -1
  }

  /** The index of the first char at or after `from` that is neither
    * whitespace nor inside a comment (`--` to the end of the line, or
    * `/* … */`).
    */
  private def skipBlank(s: String, from: Int): Int = {
    var i = from
    while (i < s.length) {
      if (s.charAt(i).isWhitespace) i += 1
      else if (s.startsWith("--", i)) i = s.indexOf('\n', i) match { case -1 => s.length; case e => e + 1 }
      else if (s.startsWith("/*", i)) i = s.indexOf("*/", i + 2) match { case -1 => s.length; case e => e + 2 }
      else return i
    }
    i
  }

  private def isIdentChar(c: Char): Boolean = c.isLetterOrDigit || c == '_'

  private final class Cursor(val s: String, var pos: Int) {
    def atEnd: Boolean = pos >= s.length
    def remaining: String = s.substring(math.min(pos, s.length))
    def skipWs(): Unit = pos = skipBlank(s, pos)
    def peekChar: Char = if (atEnd) '\u0000' else s.charAt(pos)
    def peekIdent: Option[String] = {
      skipWs()
      var e = pos
      while (e < s.length && isIdentChar(s.charAt(e))) e += 1
      if (e > pos) Some(s.substring(pos, e)) else None
    }
    def takeIdent(): String = {
      val id = peekIdent.getOrElse(
        throw new IllegalArgumentException(s"expected identifier at '...$remaining'"))
      pos += id.length
      id
    }
    def expect(c: Char): Unit = {
      skipWs()
      require(peekChar == c, s"expected '$c' at '...$remaining'")
      pos += 1
    }
    def tryConsume(c: Char): Boolean = {
      skipWs()
      if (peekChar == c) { pos += 1; true } else false
    }
  }

  private def startsOpCall(cur: Cursor): Boolean =
    cur.peekIdent.exists { id =>
      Rma.byName.contains(id.toLowerCase) && {
        val i = skipBlank(cur.s, cur.pos + id.length)
        i < cur.s.length && cur.s.charAt(i) == '('
      }
    }

  /** source := opCall | ident ; opCall := OP '(' arg (',' arg)? ')' ;
    * arg := source BY colList.
    */
  private def parseSource(cur: Cursor): Source = {
    cur.skipWs()
    if (startsOpCall(cur)) {
      val op = Rma.byName(cur.takeIdent().toLowerCase)
      cur.expect('(')
      val args = scala.collection.mutable.ArrayBuffer(parseArg(cur))
      while (cur.tryConsume(',')) args += parseArg(cur)
      cur.expect(')')
      op.requireArity(args.length)
      Call(op, args.toSeq)
    } else {
      Table(cur.takeIdent())
    }
  }

  private def parseArg(cur: Cursor): (Source, Seq[String]) = {
    val source = parseSource(cur)
    val by = cur.takeIdent()
    require(by.equalsIgnoreCase("BY"), s"expected BY, got '$by'")
    (source, parseColList(cur))
  }

  /** Column list after BY, with lookahead so a following `, table BY ...` or
    * `, OP(...)` is recognised as the next argument, not another column.
    */
  private def parseColList(cur: Cursor): Seq[String] = {
    val cols = scala.collection.mutable.ArrayBuffer[String](cur.takeIdent())
    var continue = true
    while (continue) {
      val save = cur.pos
      if (!cur.tryConsume(',')) continue = false
      else {
        cur.skipWs()
        if (startsOpCall(cur)) { cur.pos = save; continue = false } // next arg: OP(
        else cur.peekIdent match {
          case Some(id) =>
            // Is this ident followed by BY? Then it is the next argument's table.
            val after = cur.pos + id.length
            val look = new Cursor(cur.s, after)
            look.peekIdent match {
              case Some(kw) if kw.equalsIgnoreCase("BY") => cur.pos = save; continue = false
              case _ => cols += cur.takeIdent()
            }
          case None => cur.pos = save; continue = false
        }
      }
    }
    cols.toSeq
  }
}

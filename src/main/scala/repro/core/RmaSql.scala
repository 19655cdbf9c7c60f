package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** SQL surface for relational matrix operations (paper Section 7.2).
  *
  * The paper extends MonetDB's SQL parser so RMA ops appear in the FROM
  * clause: `SELECT * FROM INV(r BY U)`, `SELECT * FROM MMU(r BY U, s BY V)`,
  * with nesting, e.g. `MMU(INV(CPD(a BY k, a BY k) BY C, ...) ...`. Spark's
  * parser is not extensible with table-valued operators from the outside, so
  * we pre-process the query: one lexer cuts it into tokens, and an LL(2)
  * parser reads the RMA expression after the top-level FROM token into a
  * [[Source]] tree, checked against the operator table [[Rma]], and only
  * then evaluated via [[Rma.eval]], with its tables resolved first and one
  * split per (table, order schema). The result is registered as a temp view
  * while Spark SQL analyses the remaining query text, which it receives
  * verbatim.
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
    val toks = lex(query)
    val depth = toks.scanLeft(0)((d, t) => d + (if (t.text == "(") 1 else if (t.text == ")") -1 else 0))
    // The top-level FROM, or toks.length when there is none.
    val from = toks.indices.find(i => depth(i) == 0 && toks(i).text.equalsIgnoreCase("FROM")).getOrElse(toks.length)
    val in = new Parser(query, toks, from + 1)
    if (!in.opCallAt(0)) return spark.sql(query)
    val source = in.source()
    val view = s"__rma_${java.util.UUID.randomUUID().toString.replace("-", "").take(12)}"
    eval(spark, source, cfg).createOrReplaceTempView(view)
    // spark.sql analyses eagerly: the returned plan no longer needs the view.
    try spark.sql(s"${query.substring(0, toks(from).at)} FROM $view ${in.rest}")
    finally spark.catalog.dropTempView(view)
  }

  /** Evaluate a bare RMA expression like `INV(r BY u)` to a DataFrame. */
  def expr(spark: SparkSession, expression: String, cfg: RmaConfig = RmaConfig.default): DataFrame = {
    val q = expression.trim.stripSuffix(";")
    val in = new Parser(q, lex(q), 0)
    val source = in.source()
    require(in.rest.isEmpty, s"trailing input after RMA expression: '${in.rest}'")
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

  /** A token of the query text and its char offset. */
  private final case class Tok(text: String, at: Int)

  /** The tokens of `q`, without whitespace and comments (`--` to the end of
    * the line, `/* … */`). A token is a quoted string (`'…'` or `"…"`, with
    * backslash escapes), a backtick identifier, a run of identifier chars, or
    * any other single char.
    */
  private def lex(q: String): IndexedSeq[Tok] = {
    val toks = IndexedSeq.newBuilder[Tok]
    var i = 0
    while (i < q.length) {
      val (c, start) = (q.charAt(i), i)
      if (c.isWhitespace) i += 1
      else if (q.startsWith("--", i)) i = q.indexOf('\n', i) match { case -1 => q.length; case e => e + 1 }
      else if (q.startsWith("/*", i)) i = q.indexOf("*/", i + 2) match { case -1 => q.length; case e => e + 2 }
      else {
        i += 1
        if (c == '\'' || c == '"' || c == '`') {
          while (i < q.length && q.charAt(i) != c) i += (if (c != '`' && q.charAt(i) == '\\') 2 else 1)
          i = math.min(i + 1, q.length)
        } else if (isIdentChar(c)) while (i < q.length && isIdentChar(q.charAt(i))) i += 1
        toks += Tok(q.substring(start, i), start)
      }
    }
    toks.result()
  }

  private def isIdentChar(c: Char): Boolean = c.isLetterOrDigit || c == '_'

  /** An LL(2) parser over the tokens of `q`, from token `p` on:
    * source := OP '(' arg (',' arg)* ')' | ident ;
    * arg := source BY ident (',' ident)* .
    * A column list ends at a ',' followed by `OP (` or by `ident BY`: that
    * is the next argument.
    */
  private final class Parser(q: String, toks: IndexedSeq[Tok], private var p: Int) {
    private def text(k: Int): String = if (p + k < toks.length) toks(p + k).text else ""

    /** The query text from the current token on. */
    def rest: String = if (p < toks.length) q.substring(toks(p).at) else ""

    def opCallAt(k: Int): Boolean = Rma.byName.contains(text(k).toLowerCase) && text(k + 1) == "("

    private def ident(): String = {
      val t = text(0)
      if (!t.headOption.exists(isIdentChar)) throw new IllegalArgumentException(s"expected identifier at '...$rest'")
      p += 1
      t
    }

    def source(): Source =
      if (!opCallAt(0)) Table(ident())
      else {
        val op = Rma.byName(text(0).toLowerCase)
        p += 2
        val args = scala.collection.mutable.ArrayBuffer(arg())
        while (text(0) == ",") { p += 1; args += arg() }
        require(text(0) == ")", s"expected ')' at '...$rest'")
        p += 1
        op.requireArity(args.length)
        Call(op, args.toSeq)
      }

    private def arg(): (Source, Seq[String]) = {
      val source = this.source()
      val by = ident()
      require(by.equalsIgnoreCase("BY"), s"expected BY, got '$by'")
      val cols = scala.collection.mutable.ArrayBuffer(ident())
      while (text(0) == "," && !opCallAt(1) && !text(2).equalsIgnoreCase("BY")) { p += 1; cols += ident() }
      (source, cols.toSeq)
    }
  }
}

package repro.core

import org.apache.spark.sql.types.{DoubleType, StringType}

/** Row and column origins (paper §6.2, Table 3): each result relation must
  * inherit enough contextual information to identify every cell.
  */
class OriginsSpec extends RmaFixtures {

  test("shape (r1,c1): row origin is r.U, column origin is the app schema") {
    val v = Rma.inv(weatherLate, Seq("T"))
    // row origin: the order part values survive
    assert(v.select("T").collect().map(_.getString(0)).toSet == Set("7am", "8am"))
    // column origin: application schema names survive
    assert(v.columns.toSeq.drop(1) == Seq("H", "W"))
  }

  test("shape (r1,r1) usv: row origin r.U, column origin is the column cast of U") {
    val p = Rma.usv(weather, Seq("T"))
    assert(p.select("T").collect().map(_.getString(0)).toSet == Set("5am", "6am", "7am", "8am"))
    assert(p.columns.toSeq.drop(1) == Seq("5am", "6am", "7am", "8am"))
  }

  test("shape (c1,r1) tra: row origin is the schema cast of the app schema") {
    val t = Rma.tra(weather, Seq("T"))
    assert(t.select("C").collect().map(_.getString(0)).toSeq.sorted == Seq("H", "W"))
    assert(t.columns.toSeq == Seq("C", "5am", "6am", "7am", "8am"))
  }

  test("shape (c1,c1) rqr: both origins are the application schema") {
    val r = Rma.rqr(weather, Seq("T"))
    assert(r.select("C").collect().map(_.getString(0)).toSet == Set("H", "W"))
    assert(r.columns.toSeq.drop(1) == Seq("H", "W"))
  }

  test("shape (r1,c2) mmu: row origin from r, column origin from s") {
    val r = makeDf(Seq("k" -> StringType, "a" -> DoubleType, "b" -> DoubleType),
      Seq(Seq("r1", 1.0, 0.0), Seq("r2", 0.0, 1.0)))
    val s = makeDf(Seq("m" -> StringType, "x" -> DoubleType),
      Seq(Seq("s1", 2.0), Seq("s2", 3.0)))
    val p = Rma.mmu(r, Seq("k"), s, Seq("m"))
    assert(p.columns.toSeq == Seq("k", "x"))
    assert(p.select("k").collect().map(_.getString(0)).toSet == Set("r1", "r2"))
  }

  test("shape (r1,r2) opd: column origin is the column cast of V") {
    val x = makeDf(Seq("k" -> StringType, "a" -> DoubleType), Seq(Seq("r1", 1.0)))
    val y = makeDf(Seq("m" -> StringType, "x" -> DoubleType), Seq(Seq("s2", 3.0), Seq("s1", 4.0)))
    val p = Rma.opd(x, Seq("k"), y, Seq("m"))
    // sorted s keys become columns in ascending order
    assert(p.columns.toSeq == Seq("k", "s1", "s2"))
  }

  test("shape (r*,c*) add: row origin is both order parts") {
    val p = Rma.add(weather, Seq("T"),
      weather.withColumnRenamed("T", "T2"), Seq("T2"))
    assert(p.columns.toSeq == Seq("T", "T2", "H", "W"))
    val pairs = p.select("T", "T2").collect().map(r => (r.getString(0), r.getString(1))).toSet
    assert(pairs == Set(("5am", "5am"), ("6am", "6am"), ("7am", "7am"), ("8am", "8am")))
  }

  test("shape (1,1) det: origins are the constant op name") {
    val d = Rma.det(weatherLate, Seq("T"))
    assert(d.columns.toSeq == Seq("C", "det"))
    assert(d.collect().map(_.getString(0)).toSeq == Seq("det"))
  }

  test("origins connect argument and result cells (paper Example 6.5)") {
    // In relation v = inv_T(sigma_{T>6am}(r)), the cell with origins
    // (7am, H) is connected to value 6 in the argument relation.
    val arg = weatherLate.filter("T = '7am'").select("H").collect().head.getDouble(0)
    assert(arg == 6.0)
    val res = Rma.inv(weatherLate, Seq("T")).filter("T = '7am'").select("H").collect().head.getDouble(0)
    assert(math.abs(res - (-5.0 / 26)) < 1e-9) // the paper's -0.19
  }

  test("evl column origin is the operation name") {
    val df = makeDf(Seq("k" -> StringType, "a" -> DoubleType, "b" -> DoubleType),
      Seq(Seq("r1", 2.0, 0.0), Seq("r2", 0.0, 1.0)))
    assert(Rma.evl(df, Seq("k")).columns.toSeq == Seq("k", "evl"))
  }

  test("ShapeType table matches paper Table 1") {
    import Dim._
    def shape(op: String) = Rma.byName(op).shape
    assert(shape("mmu") == ShapeType(R1, C2))
    assert(shape("tra") == ShapeType(C1, R1))
    assert(shape("add") == ShapeType(RStar, CStar))
    assert(shape("det") == ShapeType(One, One))
    assert(shape("usv") == ShapeType(R1, R1))
    assert(shape("opd") == ShapeType(R1, R2))
    assert(shape("sol") == ShapeType(C1, C2))
    assert(Rma.byName.size == 19)
  }

  test("row-context preservation classification (paper §8.1 note)") {
    import Dim._
    // The result keeps an input's row origin when its rows are an input's rows.
    def preservesRowContext(op: String) = Set[Dim](R1, R2, RStar).contains(Rma.byName(op).shape.rows)
    // cpd, sol, rqr, dsv, tra, det, rnk do not preserve row context
    val noRow = Seq("cpd", "sol", "rqr", "dsv", "tra", "det", "rnk", "vsv")
    noRow.foreach(op => assert(!preservesRowContext(op), op))
    val withRow = Seq("inv", "evc", "chf", "qqr", "mmu", "opd", "usv", "evl", "add", "sub", "emu")
    withRow.foreach(op => assert(preservesRowContext(op), op))
  }
}

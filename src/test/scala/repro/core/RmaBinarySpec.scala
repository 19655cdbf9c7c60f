package repro.core

import org.apache.spark.sql.types.{DoubleType, StringType}

import repro.matrix.{ColMatrix, Kernels}

/** Binary relational matrix operations: mmu, opd, cpd, sol, add, sub, emu. */
class RmaBinarySpec extends RmaFixtures {
  import repro.matrix.MatrixTestUtil._

  private def rel(key: String, rows: Seq[Seq[Any]], appNames: Seq[String]) =
    makeDf((key -> StringType) +: appNames.map(_ -> (DoubleType: org.apache.spark.sql.types.DataType)), rows)

  private val r2 = rel("k", Seq(Seq("r1", 1.0, 2.0), Seq("r2", 3.0, 4.0)), Seq("a", "b"))
  private val s2 = rel("m", Seq(Seq("s1", 5.0, 6.0), Seq("s2", 7.0, 8.0)), Seq("x", "y"))

  // ------------------------------------------------------------------ mmu

  test("mmu: schema U + application schema of s (shape (r1,c2))") {
    val p = Rma.mmu(r2, Seq("k"), s2, Seq("m"))
    assert(p.columns.toSeq == Seq("k", "x", "y"))
    assertDfClose(p, Seq(
      Seq("r1", 19.0, 22.0),
      Seq("r2", 43.0, 50.0)))
  }

  test("mmu: inner dimension check names both sides") {
    val bad = rel("m", Seq(Seq("s1", 1.0, 1.0), Seq("s2", 1.0, 1.0), Seq("s3", 1.0, 1.0)), Seq("x", "y"))
    val e = intercept[IllegalArgumentException] { Rma.mmu(r2, Seq("k"), bad, Seq("m")) }
    assert(e.getMessage.contains("mmu"))
  }

  test("mmu by an identity relation preserves values") {
    val id = rel("m", Seq(Seq("s1", 1.0, 0.0), Seq("s2", 0.0, 1.0)), Seq("x", "y"))
    val p = Rma.mmu(r2, Seq("k"), id, Seq("m"))
    assertClose(collectMatrix(p, Seq("k")), collectMatrix(r2, Seq("k")), 1e-12)
  }

  // ------------------------------------------------------------------ cpd

  test("cpd: schema (C) + application schema of s (shape (c1,c2))") {
    val p = Rma.cpd(r2, Seq("k"), s2, Seq("m"))
    assert(p.columns.toSeq == Seq("C", "x", "y"))
    // a^T b for sorted matrices [[1,2],[3,4]] and [[5,6],[7,8]]
    assertDfClose(p, Seq(
      Seq("a", 26.0, 30.0),
      Seq("b", 38.0, 44.0)))
  }

  test("cpd of a relation with itself is symmetric") {
    val p = Rma.cpd(weather, Seq("T"), weather, Seq("T"))
    val m = collectMatrix(p, Seq("C"))
    assert(Kernels.isSymmetric(m, 1e-9))
  }

  // ------------------------------------------------------------------ opd

  test("opd: schema U + column cast of V (shape (r1,r2))") {
    val x = rel("k", Seq(Seq("r1", 1.0), Seq("r2", 2.0)), Seq("a"))
    val y = rel("m", Seq(Seq("s1", 3.0), Seq("s2", 4.0), Seq("s3", 5.0)), Seq("x"))
    val p = Rma.opd(x, Seq("k"), y, Seq("m"))
    assert(p.columns.toSeq == Seq("k", "s1", "s2", "s3"))
    assertDfClose(p, Seq(
      Seq("r1", 3.0, 4.0, 5.0),
      Seq("r2", 6.0, 8.0, 10.0)))
  }

  test("opd requires a single-attribute order schema on s") {
    val y = makeDf(
      Seq("m" -> StringType, "n" -> StringType, "x" -> DoubleType),
      Seq(Seq("s1", "t1", 3.0), Seq("s2", "t2", 4.0)))
    val e = intercept[IllegalArgumentException] {
      Rma.opd(r2.select("k", "a"), Seq("k"), y, Seq("m", "n"))
    }
    assert(e.getMessage.contains("single order attribute"))
  }

  // ------------------------------------------------------------------ sol

  test("sol: solves a square system relationally (shape (c1,c2))") {
    val a = rel("k", Seq(Seq("r1", 2.0, 0.0), Seq("r2", 0.0, 4.0)), Seq("a", "b"))
    val b = rel("m", Seq(Seq("s1", 6.0), Seq("s2", 8.0)), Seq("rhs"))
    val x = Rma.sol(a, Seq("k"), b, Seq("m"))
    assert(x.columns.toSeq == Seq("C", "rhs"))
    assertDfClose(x, Seq(Seq("a", 3.0), Seq("b", 2.0)))
  }

  test("sol: least squares for a tall system") {
    val a = rel("k", Seq(
      Seq("r1", 1.0, 1.0), Seq("r2", 1.0, 2.0), Seq("r3", 1.0, 3.0)), Seq("c0", "c1"))
    // b = 2 + 3*t exactly
    val b = rel("m", Seq(Seq("s1", 5.0), Seq("s2", 8.0), Seq("s3", 11.0)), Seq("rhs"))
    val x = Rma.sol(a, Seq("k"), b, Seq("m"))
    assertDfClose(x, Seq(Seq("c0", 2.0), Seq("c1", 3.0)), 1e-8)
  }

  // --------------------------------------------------------- add / sub / emu

  for (distributed <- Seq(true, false)) {
    val mode = if (distributed) "distributed" else "collect"

    test(s"add ($mode): schema U + V + application schema of r (shape (r*,c*))") {
      onRoute(distributed) { in =>
        val p = Rma.add(in(r2), Seq("k"), in(s2), Seq("m"))
        assert(p.columns.toSeq == Seq("k", "m", "a", "b"))
        assertDfClose(p, Seq(
          Seq("r1", "s1", 6.0, 8.0),
          Seq("r2", "s2", 10.0, 12.0)))
      }
    }

    test(s"sub ($mode): values align by the respective sort orders") {
      onRoute(distributed) { in =>
        val p = Rma.sub(in(s2), Seq("m"), in(r2), Seq("k"))
        assertDfClose(p, Seq(
          Seq("s1", "r1", 4.0, 4.0),
          Seq("s2", "r2", 4.0, 4.0)))
      }
    }

    test(s"emu ($mode): element-wise product") {
      onRoute(distributed) { in =>
        val p = Rma.emu(in(r2), Seq("k"), in(s2), Seq("m"))
        assertDfClose(p, Seq(
          Seq("r1", "s1", 5.0, 12.0),
          Seq("r2", "s2", 21.0, 32.0)))
      }
    }

    test(s"add ($mode) rejects overlapping order schemas") {
      onRoute(distributed) { in =>
        val e = intercept[IllegalArgumentException] {
          Rma.add(in(r2), Seq("k"),
            in(rel("k", Seq(Seq("z1", 1.0, 1.0), Seq("z2", 1.0, 1.0)), Seq("x", "y"))), Seq("k"))
        }
        assert(e.getMessage.contains("overlap"))
      }
    }

    test(s"add ($mode) rejects non-union-compatible application schemas") {
      onRoute(distributed) { in =>
        val narrow = rel("m", Seq(Seq("s1", 1.0), Seq("s2", 2.0)), Seq("x"))
        val e = intercept[IllegalArgumentException] { Rma.add(in(r2), Seq("k"), in(narrow), Seq("m")) }
        assert(e.getMessage.toLowerCase.contains("union compatible"))
      }
    }
  }

  test("add: distributed and collect paths agree on a larger relation") {
    val a = repro.SynthData.wideRelation(spark, 1000, 5, seed = 21, keyName = "k")
    val b = repro.SynthData.wideRelation(spark, 1000, 5, seed = 22, keyName = "k2")
    val d = Rma.add(a, Seq("k"), b, Seq("k2"))
    val c = Rma.add(driverLocal(a), Seq("k"), driverLocal(b), Seq("k2"))
    val dm = collectMatrix(d, Seq("k", "k2"))
    val cm = collectMatrix(c, Seq("k", "k2"))
    assertClose(dm, cm, 1e-9)
  }

  test("add of a relation and its negation is the zero matrix") {
    import org.apache.spark.sql.functions.{col => fcol}
    val neg = weather.select(fcol("T").as("T2"), (-fcol("H")).as("H"), (-fcol("W")).as("W"))
    val z = Rma.add(weather, Seq("T"), neg, Seq("T2"))
    val m = collectMatrix(z, Seq("T", "T2"))
    assertClose(m, ColMatrix.zeros(4, 2), 1e-12)
  }

  test("binary ops keep original order-attribute types") {
    // Seq[Any] prevents Scala's weak-lub widening Int -> Double
    val a = makeDf(Seq("k" -> org.apache.spark.sql.types.IntegerType, "v" -> DoubleType),
      Seq(Seq[Any](2, 1.0), Seq[Any](1, 2.0)))
    val b = makeDf(Seq("m" -> org.apache.spark.sql.types.IntegerType, "w" -> DoubleType),
      Seq(Seq[Any](10, 5.0), Seq[Any](20, 6.0)))
    val p = Rma.add(a, Seq("k"), b, Seq("m"))
    assert(p.schema("k").dataType == org.apache.spark.sql.types.IntegerType)
    assert(p.schema("m").dataType == org.apache.spark.sql.types.IntegerType)
    // integer keys sort numerically: 1 (v=2.0) aligns with 10 (w=5.0), 2 with 20
    assertDfClose(p, Seq(Seq[Any](1, 10, 7.0), Seq[Any](2, 20, 7.0)))
  }
}

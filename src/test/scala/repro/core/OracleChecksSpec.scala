package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{Oracle, SynthTables}

/** DuckDB result-equality checks: every RMA operation whose semantics is
  * expressible in plain SQL is verified against an independent engine, so a
  * broken operator (not just a crashing one) is caught.
  */
class OracleChecksSpec extends RmaFixtures {

  private lazy val r = keyed("r", Seq((1.0, 2.0), (3.0, 4.0), (5.0, 0.5)))
  private lazy val s = keyed("s", Seq((10.0, 20.0), (30.0, 40.0), (50.0, 60.0)), keyName = "k2")

  private def rankJoinSql(op: String): String =
    s"""WITH rr AS (SELECT k, CAST(x AS DOUBLE) x, CAST(y AS DOUBLE) y,
       |            row_number() OVER (ORDER BY k) rn FROM r),
       |     ss AS (SELECT k2, CAST(x AS DOUBLE) x2, CAST(y AS DOUBLE) y2,
       |            row_number() OVER (ORDER BY k2) rn FROM s)
       |SELECT rr.k AS k, ss.k2 AS k2, rr.x $op ss.x2 AS x, rr.y $op ss.y2 AS y
       |FROM rr JOIN ss USING (rn)""".stripMargin

  for (distributed <- Seq(true, false)) {
    val mode = if (distributed) "distributed" else "collect"

    test(s"add matches DuckDB ($mode path)") {
      onRoute(distributed) { in =>
        Oracle.assertEquivalent(Rma.add(in(r), Seq("k"), in(s), Seq("k2")), rankJoinSql("+"),
          "r" -> r, "s" -> s)
      }
    }

    test(s"sub matches DuckDB ($mode path)") {
      onRoute(distributed) { in =>
        Oracle.assertEquivalent(Rma.sub(in(r), Seq("k"), in(s), Seq("k2")), rankJoinSql("-"),
          "r" -> r, "s" -> s)
      }
    }

    test(s"emu matches DuckDB ($mode path)") {
      onRoute(distributed) { in =>
        Oracle.assertEquivalent(Rma.emu(in(r), Seq("k"), in(s), Seq("k2")), rankJoinSql("*"),
          "r" -> r, "s" -> s)
      }
    }
  }

  test("mmu matches DuckDB on coordinate form") {
    // r's application columns (x, y) pair with the rank of s's rows.
    val p = Rma.mmu(r, Seq("k"), keyed("s", Seq((10.0, 20.0), (30.0, 40.0))
      , keyName = "k2"), Seq("k2"))
    val melted = p.selectExpr("k", "stack(2, 'x', x, 'y', y) as (l, v)")
    val sSmall = keyed("s", Seq((10.0, 20.0), (30.0, 40.0)), keyName = "k2")
    val sql =
      """WITH rc AS (
        |  SELECT k, 0 AS pos, CAST(x AS DOUBLE) v FROM r
        |  UNION ALL SELECT k, 1, CAST(y AS DOUBLE) FROM r),
        |     sc AS (SELECT row_number() OVER (ORDER BY k2) - 1 AS rank,
        |            CAST(x AS DOUBLE) x, CAST(y AS DOUBLE) y FROM s),
        |     sm AS (SELECT rank, 'x' AS l, x AS w FROM sc
        |            UNION ALL SELECT rank, 'y', y FROM sc)
        |SELECT rc.k AS k, sm.l AS l, SUM(rc.v * sm.w) AS v
        |FROM rc JOIN sm ON rc.pos = sm.rank GROUP BY rc.k, sm.l""".stripMargin
    Oracle.assertEquivalent(melted, sql, "r" -> r, "s" -> sSmall)
  }

  test("tra matches DuckDB pivot") {
    val t = Rma.tra(weather, Seq("T"))
    val sql =
      """SELECT 'H' AS C,
        |  MAX(CASE WHEN T='5am' THEN CAST(H AS DOUBLE) END) AS "5am",
        |  MAX(CASE WHEN T='6am' THEN CAST(H AS DOUBLE) END) AS "6am",
        |  MAX(CASE WHEN T='7am' THEN CAST(H AS DOUBLE) END) AS "7am",
        |  MAX(CASE WHEN T='8am' THEN CAST(H AS DOUBLE) END) AS "8am" FROM w
        |UNION ALL
        |SELECT 'W',
        |  MAX(CASE WHEN T='5am' THEN CAST(W AS DOUBLE) END),
        |  MAX(CASE WHEN T='6am' THEN CAST(W AS DOUBLE) END),
        |  MAX(CASE WHEN T='7am' THEN CAST(W AS DOUBLE) END),
        |  MAX(CASE WHEN T='8am' THEN CAST(W AS DOUBLE) END) FROM w""".stripMargin
    Oracle.assertEquivalent(t, sql, "w" -> weather)
  }

  test("cpd matches DuckDB sum-of-products") {
    val p = Rma.cpd(r, Seq("k"), s, Seq("k2"))
    val sql =
      """WITH rr AS (SELECT CAST(x AS DOUBLE) x, CAST(y AS DOUBLE) y,
        |            row_number() OVER (ORDER BY k) rn FROM r),
        |     ss AS (SELECT CAST(x AS DOUBLE) x2, CAST(y AS DOUBLE) y2,
        |            row_number() OVER (ORDER BY k2) rn FROM s)
        |SELECT 'x' AS C, SUM(rr.x*ss.x2) AS x, SUM(rr.x*ss.y2) AS y
        |FROM rr JOIN ss USING (rn)
        |UNION ALL
        |SELECT 'y', SUM(rr.y*ss.x2), SUM(rr.y*ss.y2)
        |FROM rr JOIN ss USING (rn)""".stripMargin
    Oracle.assertEquivalent(p, sql, "r" -> r, "s" -> s)
  }

  test("det matches DuckDB 2x2 formula") {
    val d = Rma.det(weatherLate, Seq("T"))
    val sql =
      """WITH m AS (SELECT
        |  MAX(CASE WHEN T='7am' THEN CAST(H AS DOUBLE) END) a11,
        |  MAX(CASE WHEN T='7am' THEN CAST(W AS DOUBLE) END) a12,
        |  MAX(CASE WHEN T='8am' THEN CAST(H AS DOUBLE) END) a21,
        |  MAX(CASE WHEN T='8am' THEN CAST(W AS DOUBLE) END) a22 FROM w)
        |SELECT 'det' AS C, a11*a22 - a12*a21 AS det FROM m""".stripMargin
    Oracle.assertEquivalent(d, sql, "w" -> weatherLate)
  }

  test("opd matches DuckDB cross-join product") {
    val x = keyed("r", Seq((1.0, 0.0), (2.0, 0.0))).select("k", "x")
    val y = keyed("s", Seq((3.0, 0.0), (4.0, 0.0), (5.0, 0.0)), keyName = "k2").select("k2", "x")
    val p = Rma.opd(x, Seq("k"), y, Seq("k2"))
    val melted = p.selectExpr("k", "stack(3, 's01', s01, 's02', s02, 's03', s03) as (k2, v)")
    val sql =
      """SELECT a.k AS k, b.k2 AS k2, CAST(a.x AS DOUBLE) * CAST(b.x AS DOUBLE) AS v
        |FROM a CROSS JOIN b""".stripMargin
    Oracle.assertEquivalent(melted, sql, "a" -> x, "b" -> y)
  }

  test("add matches DuckDB on pivoted TPC-H-lite lineitem") {
    // Pivot lineitem by return flag: a keyed numeric matrix per order.
    def pivoted(seed: Long): DataFrame =
      SynthTables.lineitem(spark, sf = 0.001, seed = seed)
        .groupBy("l_orderkey").pivot("l_returnflag", Seq("A", "N", "R"))
        .agg(coalesce(sum("l_quantity"), lit(0.0)))
        .na.fill(0.0)
        .withColumn("l_orderkey", format_string("%09d", col("l_orderkey")))
    val a = pivoted(0)
    // same key population (rank-aligned, equal cardinality), transformed values
    val b = a.select(col("l_orderkey").as("k2"),
      (col("A") * 2).as("A"), (col("N") + 1).as("N"), (col("R") * 3).as("R"))
    val result = Rma.add(a, Seq("l_orderkey"), b, Seq("k2"))
    val sql =
      """WITH aa AS (SELECT l_orderkey, CAST(A AS DOUBLE) a1, CAST(N AS DOUBLE) n1,
        |            CAST(R AS DOUBLE) r1, row_number() OVER (ORDER BY l_orderkey) rn FROM a),
        |     bb AS (SELECT k2, CAST(A AS DOUBLE) a2, CAST(N AS DOUBLE) n2,
        |            CAST(R AS DOUBLE) r2, row_number() OVER (ORDER BY k2) rn FROM b)
        |SELECT aa.l_orderkey AS l_orderkey, bb.k2 AS k2,
        |       a1 + a2 AS A, n1 + n2 AS N, r1 + r2 AS R
        |FROM aa JOIN bb USING (rn)""".stripMargin
    Oracle.assertEquivalent(result, sql, "a" -> a, "b" -> b)
  }
}

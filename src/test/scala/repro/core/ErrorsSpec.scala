package repro.core

import org.apache.spark.sql.types.{DoubleType, StringType}

/** Validation behaviour: order schemas must be keys, application schemas
  * numeric, shapes compatible — with actionable error messages.
  */
class ErrorsSpec extends RmaFixtures {

  test("order schema must exist in the relation") {
    val e = intercept[IllegalArgumentException] { Rma.inv(weather, Seq("nope")) }
    assert(e.getMessage.contains("not in schema"))
  }

  test("order schema must not be empty") {
    intercept[IllegalArgumentException] { Rma.inv(weather, Seq.empty) }
  }

  test("order schema must not repeat attributes") {
    intercept[IllegalArgumentException] { Rma.qqr(weather, Seq("T", "T")) }
  }

  test("application schema must be non-empty") {
    val e = intercept[IllegalArgumentException] { Rma.qqr(weather, Seq("T", "H", "W")) }
    assert(e.getMessage.contains("application schema is empty"))
  }

  test("application schema must be numeric") {
    val df = makeDf(Seq("k" -> StringType, "tag" -> StringType, "v" -> DoubleType),
      Seq(Seq("r1", "x", 1.0)))
    val e = intercept[IllegalArgumentException] { Rma.qqr(df, Seq("k")) }
    assert(e.getMessage.contains("not numeric"))
  }

  test("order schema must be a key (collect path)") {
    val dup = makeDf(Seq("k" -> StringType, "v" -> DoubleType),
      Seq(Seq("r1", 1.0), Seq("r1", 2.0)))
    val e = intercept[IllegalArgumentException] { Rma.qqr(dup, Seq("k")) }
    assert(e.getMessage.contains("not a key"))
  }

  test("order schema must be a key (distributed path)") {
    val dup = makeDf(Seq("k" -> StringType, "v" -> DoubleType),
      Seq(Seq("r1", 1.0), Seq("r1", 2.0)))
    val ok = makeDf(Seq("m" -> StringType, "v" -> DoubleType),
      Seq(Seq("s1", 1.0), Seq("s2", 2.0)))
    val e = intercept[IllegalArgumentException] { Rma.add(dup, Seq("k"), ok, Seq("m")) }
    assert(e.getMessage.contains("not a key"))
  }

  test("key validation can be disabled") {
    val dup = makeDf(Seq("k" -> StringType, "v" -> DoubleType),
      Seq(Seq("r1", 1.0), Seq("r1", 2.0)))
    // no exception; result is well-defined up to the tie order
    assert(Rma.qqr(dup, Seq("k"), RmaConfig(validateKeys = false)).count() == 2)
  }

  test("element-wise ops require equal cardinalities") {
    val small = makeDf(Seq("m" -> StringType, "h" -> DoubleType, "w" -> DoubleType),
      Seq(Seq("s1", 1.0, 2.0)))
    for (distributed <- Seq(true, false)) withClue(s"distributedElementwise = $distributed: ") {
      val e = intercept[IllegalArgumentException] {
        Rma.add(weather, Seq("T"), small, Seq("m"), RmaConfig(distributedElementwise = distributed))
      }
      assert(e.getMessage.contains("row counts differ"))
    }
  }

  test("usv requires a single-attribute order schema") {
    val e = intercept[IllegalArgumentException] { Rma.usv(weather, Seq("T", "H")) }
    assert(e.getMessage.contains("single order attribute"))
  }

  test("nulls in the application part are rejected") {
    val df = makeDf(Seq("k" -> StringType, "v" -> DoubleType),
      Seq(Seq("r1", 1.0), Seq("r2", null)))
    val e = intercept[IllegalArgumentException] { Rma.qqr(df, Seq("k")) }
    assert(e.getMessage.contains("null"))
  }

  test("duplicate result attribute names are rejected (tra with clashing values)") {
    // key values H, W clash with... nothing here; clash C with a key value 'C'
    val df = makeDf(Seq("k" -> StringType, "a" -> DoubleType),
      Seq(Seq("C", 1.0), Seq("D", 2.0)))
    val e = intercept[IllegalArgumentException] { Rma.tra(df, Seq("k")) }
    assert(e.getMessage.contains("duplicate"))
  }

  test("cpd row-count mismatch is reported") {
    val small = makeDf(Seq("m" -> StringType, "x" -> DoubleType), Seq(Seq("s1", 1.0)))
    val e = intercept[IllegalArgumentException] { Rma.cpd(weather, Seq("T"), small, Seq("m")) }
    assert(e.getMessage.contains("row counts differ"))
  }
}

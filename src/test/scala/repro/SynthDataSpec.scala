package repro

import org.apache.spark.sql.functions._

/** Generators used by the benches: determinism, shape, key properties. */
class SynthDataSpec extends SparkSpec {

  test("wideRelation has the requested shape") {
    val df = SynthData.wideRelation(spark, 1000, 7)
    assert(df.columns.toSeq == "k" +: (1 to 7).map(j => s"a$j"))
    assert(df.count() == 1000)
  }

  test("wideRelation key is a key (multiplicative-hash permutation)") {
    val df = SynthData.wideRelation(spark, 5000, 2)
    assert(df.select("k").distinct().count() == 5000)
    assert(df.agg(min("k")).collect().head.getLong(0) == 0L)
    assert(df.agg(max("k")).collect().head.getLong(0) == 4999L)
  }

  test("wideRelation keys are not in generation order") {
    // sample past the modulus wraparound (k = id*1000003 mod 100 wraps at id=34)
    val ks = SynthData.wideRelation(spark, 100, 1).select("k")
      .limit(50).collect().map(_.getLong(0)).toSeq
    assert(ks != ks.sorted, "permutation should shuffle the key order")
  }

  test("wideRelation is deterministic in the seed") {
    val a = SynthData.wideRelation(spark, 500, 3, seed = 5).collect().map(_.toSeq).toSet
    val b = SynthData.wideRelation(spark, 500, 3, seed = 5).collect().map(_.toSeq).toSet
    assert(a == b)
  }

  test("wideRelation zeroFrac controls sparsity") {
    val dense = SynthData.wideRelation(spark, 2000, 4, zeroFrac = 0.0)
    val sparse = SynthData.wideRelation(spark, 2000, 4, zeroFrac = 0.9)
    def zeros(df: org.apache.spark.sql.DataFrame): Long =
      df.select((1 to 4).map(j => sum(when(col(s"a$j") === 0.0, 1).otherwise(0)).as(s"z$j")): _*)
        .collect().head.toSeq.map(_.asInstanceOf[Long]).sum
    assert(zeros(dense) < 40, "dense relation should have almost no zeros")
    val sz = zeros(sparse)
    assert(sz > 6400 && sz < 8000, s"~90% zeros expected, got $sz of 8000")
  }

  test("wideRelationRdd matches wideRelation's schema contract") {
    val df = SynthData.wideRelationRdd(spark, 100, 50)
    assert(df.columns.length == 51)
    assert(df.count() == 100)
    assert(df.select("k").distinct().count() == 100)
  }

  test("wideRelationRdd handles thousands of attributes") {
    val df = SynthData.wideRelationRdd(spark, 50, 2000)
    assert(df.columns.length == 2001)
    assert(df.count() == 50)
  }

  test("ratings generates a user key and film columns in [0,5]") {
    val df = SynthTables.ratings(spark, 100, 3)
    assert(df.columns.toSeq == Seq("usr", "f1", "f2", "f3"))
    assert(df.select("usr").distinct().count() == 100)
    val mx = df.agg(max("f1"), min("f1")).collect().head
    assert(mx.getDouble(0) <= 5.0 && mx.getDouble(1) >= 0.0)
  }

  test("TPC-H-lite lineitem is deterministic and keyed sanely") {
    val li = SynthTables.lineitem(spark, sf = 0.001)
    assert(li.count() == 6000)
    assert(li.columns.contains("l_quantity"))
  }
}

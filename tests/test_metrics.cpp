// Unit tests for semcache::metrics — online statistics, percentiles,
// tables, and the n-gram fidelity scores.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "metrics/ngram.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"

namespace semcache::metrics {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, SingleSampleVarianceZero) {
  OnlineStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  Rng rng(3);
  OnlineStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.gaussian(1.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  OnlineStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, ExactOrderStatistics) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.add(i);
  EXPECT_DOUBLE_EQ(t.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.percentile(1.0), 100.0);
  EXPECT_NEAR(t.median(), 50.5, 1e-9);
  EXPECT_NEAR(t.percentile(0.99), 99.01, 1e-9);
}

TEST(Percentile, InterleavedAddAndQuery) {
  PercentileTracker t;
  t.add(5.0);
  EXPECT_DOUBLE_EQ(t.median(), 5.0);
  t.add(1.0);
  t.add(9.0);
  EXPECT_DOUBLE_EQ(t.median(), 5.0);
}

TEST(Percentile, EmptyThrows) {
  PercentileTracker t;
  EXPECT_THROW(t.median(), Error);
}

TEST(Percentile, BadQuantileThrows) {
  PercentileTracker t;
  t.add(1.0);
  EXPECT_THROW(t.percentile(-0.1), Error);
  EXPECT_THROW(t.percentile(1.1), Error);
}

TEST(Table, MarkdownShape) {
  Table t("demo", {"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("### demo"), std::string::npos);
  EXPECT_NE(md.find("| 333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t("x", {"c1", "c2"});
  t.add_row({"v", "w"});
  EXPECT_EQ(t.to_csv(), "c1,c2\nv,w\n");
}

TEST(Table, JsonOutput) {
  Table t("x", {"c1", "c2"});
  t.add_row({"v", "w"});
  EXPECT_EQ(t.to_json(),
            R"({"title":"x","columns":["c1","c2"],"rows":[["v","w"]]})");
}

TEST(Table, JsonEscapesSpecials) {
  Table t("q\"uote", {"a\\b"});
  t.add_row({"line\nbreak"});
  EXPECT_EQ(
      t.to_json(),
      R"({"title":"q\"uote","columns":["a\\b"],"rows":[["line\nbreak"]]})");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("x", {"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), Error);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(TokenAccuracy, PerfectAndEmpty) {
  const std::vector<std::int32_t> a = {1, 2, 3};
  EXPECT_DOUBLE_EQ(token_accuracy(a, a), 1.0);
  const std::vector<std::int32_t> empty;
  EXPECT_DOUBLE_EQ(token_accuracy(empty, empty), 1.0);
}

TEST(TokenAccuracy, PartialAndLengthMismatch) {
  const std::vector<std::int32_t> ref = {1, 2, 3, 4};
  const std::vector<std::int32_t> hyp = {1, 9, 3};
  // 2 matches out of max(4,3)=4 positions.
  EXPECT_DOUBLE_EQ(token_accuracy(ref, hyp), 0.5);
}

TEST(Bleu, IdenticalIsOne) {
  const std::vector<std::int32_t> s = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(bleu(s, s), 1.0);
}

TEST(Bleu, DisjointIsZero) {
  const std::vector<std::int32_t> a = {1, 2, 3, 4};
  const std::vector<std::int32_t> b = {5, 6, 7, 8};
  EXPECT_DOUBLE_EQ(bleu(a, b), 0.0);
}

TEST(Bleu, BrevityPenaltyApplies) {
  const std::vector<std::int32_t> ref = {1, 2, 3, 4, 5, 6};
  const std::vector<std::int32_t> hyp = {1, 2, 3};
  const double full = bleu(ref, ref, 2);
  const double shortened = bleu(ref, hyp, 2);
  EXPECT_LT(shortened, full);
  EXPECT_GT(shortened, 0.0);
}

TEST(Bleu, OrderSensitivity) {
  const std::vector<std::int32_t> ref = {1, 2, 3, 4};
  const std::vector<std::int32_t> scrambled = {4, 3, 2, 1};
  // Unigram precision is 1 but higher-order n-grams break.
  EXPECT_DOUBLE_EQ(ngram_precision(ref, scrambled, 1), 1.0);
  EXPECT_LT(bleu(ref, scrambled, 2), 1.0);
}

TEST(NgramPrecision, ClippedCounts) {
  const std::vector<std::int32_t> ref = {1, 2};
  const std::vector<std::int32_t> hyp = {1, 1, 1};
  // "1" appears once in ref: clipped match = 1 of 3.
  EXPECT_NEAR(ngram_precision(ref, hyp, 1), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace semcache::metrics

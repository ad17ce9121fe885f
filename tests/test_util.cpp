// Unit tests for the util library: strings, rng, parallel_for, csv, table,
// yaml-lite.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/yaml_lite.h"

namespace ssresf::util {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t\r\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, SplitWs) {
  EXPECT_EQ(split_ws("  a \t b\nc "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_TRUE(ends_with("hello", "lo"));
  EXPECT_FALSE(ends_with("lo", "hello"));
}

TEST(Strings, JoinAndLowerAndFormat) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkDecorrelates) {
  Rng a(42);
  Rng child = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == child.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  shuffle(w, rng);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(w, v);
}

TEST(ParallelFor, RunsEveryIndexOnceAndRethrowsTheLowestFailure) {
  for (const int threads : {1, 3, 8}) {
    std::vector<int> hits(100, 0);
    parallel_for(hits.size(), threads, [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(hits, std::vector<int>(100, 1)) << threads << " threads";

    std::atomic<int> ran{0};
    try {
      parallel_for(50, threads, [&](std::size_t i) {
        ++ran;
        if (i == 17 || i == 40) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "17") << threads << " threads";
    }
    // Inline, the loop stops at the first failure, as a plain loop would.
    EXPECT_EQ(ran.load(), threads == 1 ? 18 : 50) << threads << " threads";
  }
  parallel_for(0, 4, [](std::size_t) { ADD_FAILURE() << "no indices"; });
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.row({"plain", "with,comma"});
  csv.row({"with\"quote", "multi\nline"});
  EXPECT_EQ(out.str(),
            "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",\"multi\nline\"\n");
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Yaml, ParsesScalarsListsMaps) {
  const auto doc = YamlNode::parse(
      "name: DFF\n"
      "ports: [D, CK, Q]\n"
      "count: 42\n"
      "xsect: 1.5e-8\n"
      "nested:\n"
      "  a: 1\n"
      "  b: two\n");
  EXPECT_EQ(doc.at("name").as_string(), "DFF");
  EXPECT_EQ(doc.at("ports").size(), 3u);
  EXPECT_EQ(doc.at("ports").at(std::size_t{1}).as_string(), "CK");
  EXPECT_EQ(doc.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(doc.at("xsect").as_double(), 1.5e-8);
  EXPECT_EQ(doc.at("nested").at("b").as_string(), "two");
}

TEST(Yaml, ParsesPaperDatabaseShape) {
  // The exact schema of the paper's Fig. 3.
  const auto doc = YamlNode::parse(
      "CellName: DFFDEGLX2\n"
      "Ports: [D, CK, Q, QN]\n"
      "Model: SEU-DFF\n"
      "SoftErrors:\n"
      "  - LET: 37.0\n"
      "    subXsect:\n"
      "    - name: SEU 1->0\n"
      "      cond: (q==1) & (qn==0)\n"
      "      xsect: 1.5e-8\n"
      "    - name: SEU 0->1\n"
      "      cond: (q==0) & (qn==1)\n"
      "      xsect: 2.0e-8\n");
  const auto& errors = doc.at("SoftErrors");
  ASSERT_EQ(errors.size(), 1u);
  const auto& entry = errors.at(std::size_t{0});
  EXPECT_DOUBLE_EQ(entry.at("LET").as_double(), 37.0);
  const auto& sub = entry.at("subXsect");
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.at(std::size_t{0}).at("name").as_string(), "SEU 1->0");
  EXPECT_EQ(sub.at(std::size_t{1}).at("cond").as_string(), "(q==0) & (qn==1)");
  EXPECT_DOUBLE_EQ(sub.at(std::size_t{1}).at("xsect").as_double(), 2.0e-8);
}

TEST(Yaml, RoundTripsDump) {
  const char* text =
      "CellName: DFFX1\n"
      "Ports: [D, CK]\n"
      "SoftErrors:\n"
      "  - LET: 1.0\n"
      "    xsect: 1e-9\n"
      "  - LET: 37.0\n"
      "    xsect: 2e-8\n";
  const auto doc = YamlNode::parse(text);
  const auto doc2 = YamlNode::parse(doc.dump());
  EXPECT_EQ(doc2.at("CellName").as_string(), "DFFX1");
  ASSERT_EQ(doc2.at("SoftErrors").size(), 2u);
  EXPECT_DOUBLE_EQ(
      doc2.at("SoftErrors").at(std::size_t{1}).at("xsect").as_double(), 2e-8);
}

TEST(Yaml, RejectsMalformedInput) {
  EXPECT_THROW(YamlNode::parse("key without colon\n"), ParseError);
  EXPECT_THROW(YamlNode::parse("a: [unterminated\n"), ParseError);
  EXPECT_THROW(YamlNode::parse("\ta: tabs-not-allowed\n"), ParseError);
}

TEST(Yaml, TypeErrors) {
  const auto doc = YamlNode::parse("a: hello\nb: [1, 2]\n");
  EXPECT_THROW((void)doc.at("a").as_int(), InvalidArgument);
  EXPECT_THROW((void)doc.at("b").as_string(), InvalidArgument);
  EXPECT_THROW((void)doc.at("missing"), InvalidArgument);
  EXPECT_FALSE(doc.has("missing"));
  EXPECT_TRUE(doc.has("a"));
}

}  // namespace
}  // namespace ssresf::util

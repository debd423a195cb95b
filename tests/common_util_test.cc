// Tests for distributions, CSV, strings, table, and sim-time helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/common/csv.h"
#include "src/common/distributions.h"
#include "src/common/sim_time.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "tests/reference/csv_reader.h"

namespace philly {
namespace {

// ------------------------------------------------------------ distributions

TEST(ProbitTest, KnownQuantiles) {
  EXPECT_NEAR(Probit(0.5), 0.0, 1e-9);
  EXPECT_NEAR(Probit(0.9), 1.2815515655, 1e-6);
  EXPECT_NEAR(Probit(0.975), 1.9599639845, 1e-6);
  EXPECT_NEAR(Probit(0.025), -1.9599639845, 1e-6);
  EXPECT_NEAR(Probit(0.0001), -3.7190164855, 1e-5);
}

TEST(LognormalSpecTest, FitRecoversMedianAndP90) {
  const auto spec = LognormalSpec::FromMedianP90(35.0, 350.0);
  EXPECT_NEAR(spec.Median(), 35.0, 1e-9);
  EXPECT_NEAR(spec.Quantile(0.9), 350.0, 1e-6);
}

TEST(LognormalSpecTest, DegenerateWhenMedianEqualsP90) {
  const auto spec = LognormalSpec::FromMedianP90(10.0, 10.0);
  EXPECT_DOUBLE_EQ(spec.sigma, 0.0);
  EXPECT_NEAR(spec.Quantile(0.99), 10.0, 1e-9);
}

TEST(LognormalSpecTest, SampleMedianMatchesFit) {
  const auto spec = LognormalSpec::FromMedianP90(100.0, 1000.0);
  Rng rng(3);
  int below = 0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) {
    below += spec.Sample(rng) < 100.0 ? 1 : 0;
  }
  EXPECT_NEAR(below / static_cast<double>(kN), 0.5, 0.01);
}

TEST(LognormalSpecTest, MeanFormula) {
  LognormalSpec spec{std::log(10.0), 0.5};
  EXPECT_NEAR(spec.Mean(), 10.0 * std::exp(0.125), 1e-9);
}

TEST(LognormalMixtureTest, SamplesFromAllComponents) {
  LognormalMixture mix;
  mix.AddComponent(0.5, LognormalSpec::FromMedianP90(1.0, 1.1));
  mix.AddComponent(0.5, LognormalSpec::FromMedianP90(1000.0, 1100.0));
  Rng rng(5);
  int small = 0;
  int large = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = mix.Sample(rng);
    (x < 100.0 ? small : large) += 1;
  }
  EXPECT_NEAR(small / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(large / 10000.0, 0.5, 0.03);
}

TEST(ArrivalProcessTest, HomogeneousRateMatches) {
  ArrivalProcess process(60.0);  // 60/hour = 1/minute
  Rng rng(7);
  int64_t t = 0;
  int count = 0;
  while (t < Hours(200)) {
    t = process.NextAfter(t, rng);
    ++count;
  }
  EXPECT_NEAR(count / 200.0, 60.0, 2.5);
}

TEST(ArrivalProcessTest, DiurnalRateOscillates) {
  ArrivalProcess process(10.0, 0.5);
  const double noon = process.RateAt(Hours(12));
  const double midnight = process.RateAt(0);
  EXPECT_GT(noon, 14.0);
  EXPECT_LT(midnight, 6.0);
}

TEST(ArrivalProcessTest, ArrivalsStrictlyIncrease) {
  ArrivalProcess process(100.0, 0.3);
  Rng rng(11);
  int64_t t = 0;
  for (int i = 0; i < 1000; ++i) {
    const int64_t next = process.NextAfter(t, rng);
    ASSERT_GT(next, t);
    t = next;
  }
}

// --------------------------------------------------------------------- csv

TEST(CsvTest, SimpleRowRoundTrip) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.Row("a", 1, 2.5, "text");
  const auto fields = ParseCsvLine("a,1,2.500000,text");
  EXPECT_EQ(fields.size(), 4u);
  EXPECT_EQ(out.str().substr(0, 2), "a,");
}

TEST(CsvTest, QuotingRoundTrip) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.WriteRow({"plain", "has,comma", "has\"quote", "multi\nline"});
  std::string line = out.str();
  // Strip the trailing newline but keep the embedded (quoted) one.
  line.pop_back();
  const auto fields = ParseCsvLine(line);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "plain");
  EXPECT_EQ(fields[1], "has,comma");
  EXPECT_EQ(fields[2], "has\"quote");
}

TEST(CsvTest, ParseEmptyFields) {
  const auto fields = ParseCsvLine("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(CsvTest, ReadCsvSkipsBlankLines) {
  std::istringstream in("a,b\n\n1,2\n");
  const auto rows = ReadCsv(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "2");
}

// Regression: ReadCsv used to split records on every physical newline, so a
// quoted field containing '\n' (written legally by CsvWriter) came back as
// two broken rows.
TEST(CsvTest, ReadCsvJoinsQuotedMultilineRecords) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.WriteRow({"1", "first\nsecond", "tail"});
  writer.WriteRow({"2", "with\n\nblank line inside", "end"});
  writer.WriteRow({"3", "plain", "last"});
  std::istringstream in(out.str());
  const auto rows = ReadCsv(in);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1], "first\nsecond");
  EXPECT_EQ(rows[1][1], "with\n\nblank line inside");
  EXPECT_EQ(rows[1][2], "end");
  EXPECT_EQ(rows[2][1], "plain");
}

TEST(CsvTest, ReadCsvSalvagesUnterminatedQuote) {
  std::istringstream in("a,\"open quote\nnext line\n");
  const auto rows = ReadCsv(in);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][1], "open quote\nnext line");
}

// ------------------------------------------------------------------ strings

TEST(StringsTest, SplitKeepsEmpty) {
  const auto parts = Split("a::b:", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, ContainsAndStartsWith) {
  EXPECT_TRUE(Contains("RuntimeError: CUDA out of memory", "out of memory"));
}

TEST(StringsTest, Formatting) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPercent(0.523, 1), "52.3%");
}

// -------------------------------------------------------------------- table

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "22"});
  const std::string rendered = table.Render();
  EXPECT_NE(rendered.find("name   | value"), std::string::npos);
  EXPECT_NE(rendered.find("longer | 22"), std::string::npos);
}

TEST(TextTableTest, RuleInsertion) {
  TextTable table({"h"});
  table.AddRow({"a"});
  table.AddRule();
  table.AddRow({"b"});
  const std::string rendered = table.Render();
  // Header rule + explicit rule.
  size_t rules = 0;
  size_t pos = 0;
  while ((pos = rendered.find("-\n", pos)) != std::string::npos) {
    ++rules;
    ++pos;
  }
  EXPECT_GE(rules, 2u);
}

// ----------------------------------------------------------------- sim_time

TEST(SimTimeTest, UnitHelpers) {
  EXPECT_EQ(Minutes(2), 120);
  EXPECT_EQ(Hours(1), 3600);
  EXPECT_EQ(Days(1), 86400);
  EXPECT_DOUBLE_EQ(ToMinutes(90), 1.5);
  EXPECT_DOUBLE_EQ(ToDays(Days(3)), 3.0);
}

TEST(SimTimeTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(Days(2) + Hours(3) + Minutes(15) + 42), "2d 03:15:42");
  EXPECT_EQ(FormatDuration(Minutes(5)), "00:05:00");
  EXPECT_EQ(FormatDuration(-Minutes(1)), "-00:01:00");
}

}  // namespace
}  // namespace philly

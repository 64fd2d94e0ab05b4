// Unit tests for util: contract macros, RNG, table rendering, logging.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace rdtgc::util {
namespace {

TEST(Check, ExpectsThrowsContractViolation) {
  EXPECT_THROW(RDTGC_EXPECTS(false), ContractViolation);
  EXPECT_NO_THROW(RDTGC_EXPECTS(true));
}

TEST(Check, EnsuresAndAssertThrow) {
  EXPECT_THROW(RDTGC_ENSURES(1 == 2), ContractViolation);
  EXPECT_THROW(RDTGC_ASSERT(false), ContractViolation);
}

TEST(Check, MessageNamesKindAndExpression) {
  try {
    RDTGC_EXPECTS(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
  }
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform(10), 10u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRejectsZeroBound) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(0), ContractViolation);
}

TEST(Rng, UniformInInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 400; ++i) {
    const std::int64_t v = rng.uniform_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanRoughlyCalibrated) {
  Rng rng(17);
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / trials, 10.0, 0.5);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng child = a.split();
  // The child stream should not equal the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == child.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.begin_row().add_cell("alpha").add_cell(1);
  t.begin_row().add_cell("b").add_cell(12345);
  std::ostringstream os;
  t.print(os, "title");
  const std::string out = os.str();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.begin_row().add_cell(1).add_cell(2.5, 1);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2.5\n");
}

TEST(Table, RejectsOverfilledRow) {
  Table t({"only"});
  t.begin_row().add_cell("x");
  EXPECT_THROW(t.add_cell("y"), ContractViolation);
}

TEST(Table, RejectsCellWithoutRow) {
  Table t({"only"});
  EXPECT_THROW(t.add_cell("x"), ContractViolation);
}

TEST(Log, LevelsGateOutput) {
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
  // Must not crash and must not emit when off.
  RDTGC_INFO("hidden " << 42);
  set_log_level(LogLevel::kInfo);
  EXPECT_EQ(log_level(), LogLevel::kInfo);
  set_log_level(LogLevel::kOff);
}

}  // namespace
}  // namespace rdtgc::util

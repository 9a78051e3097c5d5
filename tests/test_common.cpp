// Unit tests for the common utilities: SmallVec, RNG, exact combinatorics,
// string parsing and the CLI flag parser.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/small_vec.hpp"
#include "common/strings.hpp"

namespace rahtm {
namespace {

TEST(SmallVec, BasicOperations) {
  Coord c{1, 2, 3};
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], 1);
  EXPECT_EQ(c.back(), 3);
  c.push_back(4);
  EXPECT_EQ(c.size(), 4u);
  c.pop_back();
  EXPECT_EQ(c, (Coord{1, 2, 3}));
  EXPECT_NE(c, (Coord{1, 2}));
  EXPECT_LT((Coord{1, 2}), (Coord{1, 3}));
}

TEST(SmallVec, OverflowThrows) {
  SmallVec<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_THROW(v.push_back(3), PreconditionError);
  EXPECT_THROW((SmallVec<int, 2>{1, 2, 3}), PreconditionError);
}

TEST(SmallVec, AtChecksBounds) {
  Coord c{1};
  EXPECT_THROW(c.at(1), PreconditionError);
  EXPECT_THROW((SmallVec<int, 4>{}).front(), PreconditionError);
}

TEST(SmallVec, ResizeAndFill) {
  Shape s(3, 7);
  EXPECT_EQ(s, (Shape{7, 7, 7}));
  s.resize(5, 1);
  EXPECT_EQ(s, (Shape{7, 7, 7, 1, 1}));
  s.resize(2);
  EXPECT_EQ(s, (Shape{7, 7}));
}

TEST(SmallVec, HashDistinguishes) {
  const std::hash<Coord> h;
  EXPECT_NE(h(Coord{1, 2}), h(Coord{2, 1}));
  EXPECT_EQ(h(Coord{1, 2}), h(Coord{1, 2}));
}

TEST(Rng, DeterministicAndSeedSensitive) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.next(), b.next());
  Rng a2(1);
  EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.nextBounded(7), 7u);
    const auto v = rng.nextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    const double d = rng.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextIntHandlesWideRanges) {
  // Intervals wider than INT64_MAX used to compute hi - lo in signed
  // arithmetic (UB, and the full-width span wrapped to nextBounded(0)).
  Rng rng(7);
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < 200; ++i) {
    const auto half = rng.nextInt(kMin, 0);
    EXPECT_LE(half, 0);
    const auto wide = rng.nextInt(kMin + 1, kMax - 1);
    EXPECT_GT(wide, kMin);
    EXPECT_LT(wide, kMax);
    rng.nextInt(kMin, kMax);  // full width: any value is valid
  }
  // Degenerate single-point interval.
  EXPECT_EQ(rng.nextInt(42, 42), 42);
  // Full-width draws hit both halves of the range.
  bool sawNeg = false;
  bool sawPos = false;
  for (int i = 0; i < 200 && !(sawNeg && sawPos); ++i) {
    const auto v = rng.nextInt(kMin, kMax);
    sawNeg |= v < 0;
    sawPos |= v > 0;
  }
  EXPECT_TRUE(sawNeg);
  EXPECT_TRUE(sawPos);
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(123);
  int counts[4] = {0, 0, 0, 0};
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) ++counts[rng.nextBounded(4)];
  for (const int c : counts) {
    EXPECT_NEAR(c, trials / 4, trials / 40);  // within 10%
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 8u);
}

TEST(MathTest, PowerOfTwo) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(2));
  EXPECT_TRUE(isPowerOfTwo(1024));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(-2));
  EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(MathTest, Ilog2) {
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(2), 1);
  EXPECT_EQ(ilog2(3), 1);
  EXPECT_EQ(ilog2(1024), 10);
  EXPECT_THROW(ilog2(0), PreconditionError);
}

TEST(MathTest, BinomialExactValues) {
  EXPECT_DOUBLE_EQ(binomial(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(binomial(10, 5), 252.0);
  EXPECT_DOUBLE_EQ(binomial(20, 10), 184756.0);
  EXPECT_DOUBLE_EQ(binomial(4, 5), 0.0);
  EXPECT_DOUBLE_EQ(binomial(4, -1), 0.0);
}

TEST(MathTest, PascalIdentityHolds) {
  for (int n = 1; n <= 25; ++n) {
    for (int k = 1; k < n; ++k) {
      EXPECT_DOUBLE_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(MathTest, MultinomialMatchesPathCounts) {
  // Number of monotone lattice paths in a 2x2 grid: C(4,2) = 6.
  EXPECT_DOUBLE_EQ(multinomial(SmallVec<std::int32_t, kMaxDims>{2, 2}), 6.0);
  // 3 dimensions: 9!/(2!3!4!) = 1260.
  EXPECT_DOUBLE_EQ(multinomial(SmallVec<std::int32_t, kMaxDims>{2, 3, 4}),
                   1260.0);
  // Degenerate parts contribute nothing.
  EXPECT_DOUBLE_EQ(multinomial(SmallVec<std::int32_t, kMaxDims>{0, 0, 5}), 1.0);
  EXPECT_DOUBLE_EQ(multinomial(SmallVec<std::int32_t, kMaxDims>{}), 1.0);
}

TEST(MathTest, OrderedFactorizationsMatchFig2) {
  // Fig. 2 of the paper: a size-8 tile over a 2D grid of extents >= 8
  // admits 8x1, 4x2, 2x4, 1x8.
  const auto shapes = orderedFactorizations(8, Shape{8, 8});
  ASSERT_EQ(shapes.size(), 4u);
  EXPECT_EQ(shapes[0], (Shape{1, 8}));
  EXPECT_EQ(shapes[1], (Shape{2, 4}));
  EXPECT_EQ(shapes[2], (Shape{4, 2}));
  EXPECT_EQ(shapes[3], (Shape{8, 1}));
}

TEST(MathTest, OrderedFactorizationsRespectCaps) {
  const auto shapes = orderedFactorizations(8, Shape{4, 4});
  ASSERT_EQ(shapes.size(), 2u);  // only 2x4 and 4x2 fit
  EXPECT_EQ(shapes[0], (Shape{2, 4}));
  EXPECT_EQ(shapes[1], (Shape{4, 2}));
}

TEST(MathTest, IpowAndGcd) {
  EXPECT_EQ(ipow(2, 10), 1024);
  EXPECT_EQ(ipow(7, 0), 1);
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(7, 0), 7);
  EXPECT_EQ(gcd64(0, 0), 0);
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(splitWhitespace("  a\tb  c \n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
}

TEST(Strings, ParseNumbers) {
  EXPECT_EQ(parseInt(" 42 "), 42);
  EXPECT_EQ(parseInt("-7"), -7);
  EXPECT_DOUBLE_EQ(parseDouble("2.5e3"), 2500.0);
  EXPECT_THROW(parseInt("12x"), ParseError);
  EXPECT_THROW(parseInt(""), ParseError);
  EXPECT_THROW(parseDouble("nope"), ParseError);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog",   "--alpha", "3",    "--name=bt",
                        "file1",  "--flag",  "--x", "2.5"};
  CliArgs args(8, argv, {"alpha", "name", "flag", "x", "missing", "absent"});
  EXPECT_EQ(args.getInt("alpha", 0), 3);
  EXPECT_EQ(args.getString("name", ""), "bt");
  EXPECT_TRUE(args.getBool("flag"));
  EXPECT_FALSE(args.getBool("missing"));
  EXPECT_DOUBLE_EQ(args.getDouble("x", 0), 2.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file1");
  EXPECT_EQ(args.getInt("absent", -1), -1);
}

TEST(Cli, MalformedBooleanThrows) {
  const char* argv[] = {"prog", "--b=banana"};
  CliArgs args(2, argv, {"b"});
  EXPECT_THROW(args.getBool("b"), ParseError);
}

TEST(Cli, UnknownFlagThrowsNamingIt) {
  const std::vector<std::string> known{"machine", "concentration"};
  for (const char* bad : {"--concentraton", "--concentraton=2"}) {
    const char* argv[] = {"prog", "--machine", "2x2x2", bad, "2"};
    try {
      CliArgs args(5, argv, known);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("--concentraton"),
                std::string::npos)
          << e.what();
    }
  }
  const char* argv[] = {"prog", "--machine=2x2x2", "--concentration", "2"};
  const CliArgs args(4, argv, known);
  EXPECT_EQ(args.getInt("concentration", 1), 2);
}

// Compile-level check that RAHTM_LOG expands to a single expression with
// no hidden if: inside an unbraced if/else, the else must attach to the
// *outer* if. With the old `if (enabled) stream` expansion this else
// bound to the macro's hidden if and the branch flipped.
TEST(Log, MacroIsDanglingElseSafe) {
  bool tookElse = false;
  if (false)
    RAHTM_LOG(Error) << "never printed";
  else
    tookElse = true;
  EXPECT_TRUE(tookElse);

  // And the degenerate single-statement form still compiles.
  if (true) RAHTM_LOG(Debug) << "below threshold, dropped";
}

TEST(Log, LevelRoundTrip) {
  const LogLevel before = logLevel();
  setLogLevel(LogLevel::Error);
  EXPECT_EQ(logLevel(), LogLevel::Error);
  setLogLevel(before);
}

}  // namespace
}  // namespace rahtm

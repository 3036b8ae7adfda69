//===- tests/SupportTest.cpp - Unit tests for svd::support ----------------===//

#include "support/Cli.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <set>

using namespace svd::support;

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 A(42);
  SplitMix64 B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 A(1);
  SplitMix64 B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(Xoshiro256, Deterministic) {
  Xoshiro256 A(7);
  Xoshiro256 B(7);
  for (int I = 0; I < 1000; ++I)
    ASSERT_EQ(A.next(), B.next());
}

TEST(Xoshiro256, NextBelowInRange) {
  Xoshiro256 R(3);
  for (int I = 0; I < 10000; ++I) {
    uint64_t V = R.nextBelow(7);
    ASSERT_LT(V, 7u);
  }
}

TEST(Xoshiro256, NextBelowOneIsAlwaysZero) {
  Xoshiro256 R(3);
  for (int I = 0; I < 100; ++I)
    ASSERT_EQ(R.nextBelow(1), 0u);
}

TEST(Xoshiro256, NextBelowCoversAllValues) {
  Xoshiro256 R(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(R.nextBelow(5));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 R(9);
  for (int I = 0; I < 10000; ++I) {
    double D = R.nextDouble();
    ASSERT_GE(D, 0.0);
    ASSERT_LT(D, 1.0);
  }
}

TEST(Xoshiro256, NextBoolExtremes) {
  Xoshiro256 R(5);
  for (int I = 0; I < 100; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
  }
}

TEST(Xoshiro256, NextBoolRoughlyCalibrated) {
  Xoshiro256 R(13);
  int Hits = 0;
  const int N = 100000;
  for (int I = 0; I < N; ++I)
    Hits += R.nextBool(0.25);
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.25, 0.01);
}

TEST(StringUtils, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(StringUtils, SplitBasic) {
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trimString("  x y \t"), "x y");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString(" \n "), "");
}

TEST(StringUtils, StartsWith) {
  EXPECT_TRUE(startsWith("abcdef", "abc"));
  EXPECT_FALSE(startsWith("ab", "abc"));
  EXPECT_TRUE(startsWith("x", ""));
}

//===----------------------------------------------------------------------===//
// JSON helpers
//===----------------------------------------------------------------------===//

TEST(Json, EscapeCoversControlAndQuote) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(jsonEscape("nl\n"), "nl\\n");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, StringWrapsAndEscapes) {
  EXPECT_EQ(jsonString("x"), "\"x\"");
  EXPECT_EQ(jsonString("a\"b"), "\"a\\\"b\"");
}

TEST(Json, ValidateAcceptsWellFormedDocuments) {
  for (const char *Doc :
       {"{}", "[]", "null", "true", "-12.5e3", "\"s\"",
        R"({"a":[1,2,{"b":null}],"c":"\u00e9\n"})", "[[],[[]]]",
        "  {  \"k\" : 0 }  "}) {
    std::string Err;
    EXPECT_TRUE(jsonValidate(Doc, &Err)) << Doc << ": " << Err;
  }
}

TEST(Json, ValidateRejectsMalformedDocuments) {
  for (const char *Doc :
       {"", "{", "}", "[1,]", "{\"a\":}", "{'a':1}", "01", "+1", "1.",
        "\"unterminated", "\"bad\\q\"", "nul", "{} extra",
        "\"\\u12g4\"", "[1 2]"}) {
    std::string Err;
    EXPECT_FALSE(jsonValidate(Doc, &Err)) << Doc;
    EXPECT_FALSE(Err.empty()) << Doc;
  }
}

TEST(Json, ValidateRejectsExcessiveNesting) {
  std::string Deep(300, '[');
  Deep += std::string(300, ']');
  EXPECT_FALSE(jsonValidate(Deep, nullptr));
}

//===----------------------------------------------------------------------===//
// ArgParser (support/Cli.h)
//===----------------------------------------------------------------------===//

TEST(Cli, FlagsValuesAndPositionalsParse) {
  bool Json = false, Uninit = true;
  uint32_t Shift = 0;
  uint64_t Seed = 1;
  std::string Suite;
  ArgParser P("usage\n");
  P.flag("--json", &Json);
  P.flag("--no-uninit", &Uninit, false);
  P.value("--block-shift", &Shift);
  P.value("--seed", &Seed);
  P.value("--suite", &Suite);
  const char *Argv[] = {"tool",   "a.asm",         "--json", "--no-uninit",
                        "--block-shift", "0x2",    "--seed", "99",
                        "--suite", "table2",       "b.asm"};
  ASSERT_TRUE(P.parse(11, Argv));
  EXPECT_TRUE(Json);
  EXPECT_FALSE(Uninit);
  EXPECT_EQ(Shift, 2u); // strtoull base 0: 0x prefix works
  EXPECT_EQ(Seed, 99u);
  EXPECT_EQ(Suite, "table2");
  ASSERT_EQ(P.positional().size(), 2u);
  EXPECT_EQ(P.positional()[0], "a.asm");
  EXPECT_EQ(P.positional()[1], "b.asm");
}

TEST(Cli, UnknownDashOptionFailsParse) {
  ArgParser P("usage\n");
  const char *Argv[] = {"tool", "--bogus"};
  EXPECT_FALSE(P.parse(2, Argv));
}

TEST(Cli, MissingValueFailsParse) {
  uint64_t Seed = 0;
  ArgParser P("usage\n");
  P.value("--seed", &Seed);
  const char *Argv[] = {"tool", "--seed"};
  EXPECT_FALSE(P.parse(2, Argv));
}

TEST(Cli, ValueFnFansOutToMultipleTargets) {
  uint32_t A = 0, B = 0;
  ArgParser P("usage\n");
  P.valueFn("--block-shift", [&](uint64_t V) {
    A = static_cast<uint32_t>(V);
    B = static_cast<uint32_t>(V);
  });
  const char *Argv[] = {"tool", "--block-shift", "3"};
  ASSERT_TRUE(P.parse(3, Argv));
  EXPECT_EQ(A, 3u);
  EXPECT_EQ(B, 3u);
}

TEST(Cli, ExitCodesAreTheToolConvention) {
  EXPECT_EQ(ExitClean, 0);
  EXPECT_EQ(ExitFindings, 1);
  EXPECT_EQ(ExitUsage, 2);
}

//===----------------------------------------------------------------------===//
// ArgParser numeric validation (the pre-PR-4 parser accepted "99zz" as
// 99 and silently truncated uint32_t values; these pin the hardened
// behavior).
//===----------------------------------------------------------------------===//

namespace {

/// Parses "--seed <Value>" against a fresh uint64_t option; returns the
/// parser so callers can inspect error().
bool parseSeed(const char *Value, uint64_t &Seed, std::string &Error) {
  ArgParser P("usage\n");
  P.value("--seed", &Seed);
  const char *Argv[] = {"tool", "--seed", Value};
  bool Ok = P.parse(3, Argv);
  Error = P.error();
  return Ok;
}

} // namespace

TEST(Cli, NonNumericValueFailsWithDiagnostic) {
  uint64_t Seed = 7;
  std::string Err;
  EXPECT_FALSE(parseSeed("zz", Seed, Err));
  EXPECT_NE(Err.find("--seed"), std::string::npos) << Err;
  EXPECT_NE(Err.find("zz"), std::string::npos) << Err;
  EXPECT_EQ(Seed, 7u); // target untouched on failure
}

TEST(Cli, TrailingGarbageFailsInsteadOfTruncating) {
  uint64_t Seed = 7;
  std::string Err;
  EXPECT_FALSE(parseSeed("99zz", Seed, Err));
  EXPECT_NE(Err.find("99zz"), std::string::npos) << Err;
  EXPECT_NE(Err.find("--seed"), std::string::npos) << Err;
  EXPECT_EQ(Seed, 7u);
}

TEST(Cli, SignsAndEmptyValuesAreRejected) {
  uint64_t Seed = 7;
  std::string Err;
  EXPECT_FALSE(parseSeed("-1", Seed, Err));
  EXPECT_FALSE(parseSeed("+1", Seed, Err));
  EXPECT_FALSE(parseSeed("", Seed, Err));
  EXPECT_FALSE(parseSeed(" 1", Seed, Err));
  EXPECT_EQ(Seed, 7u);
}

TEST(Cli, OutOfRangeUint64Fails) {
  uint64_t Seed = 7;
  std::string Err;
  // 2^64 = 18446744073709551616 overflows uint64_t.
  EXPECT_FALSE(parseSeed("18446744073709551616", Seed, Err));
  EXPECT_NE(Err.find("out of range"), std::string::npos) << Err;
  // UINT64_MAX itself is fine.
  EXPECT_TRUE(parseSeed("18446744073709551615", Seed, Err));
  EXPECT_EQ(Seed, UINT64_MAX);
}

TEST(Cli, Uint32OverloadRejectsValuesAboveUint32MaxInsteadOfTruncating) {
  uint32_t Jobs = 7;
  ArgParser P("usage\n");
  P.value("--jobs", &Jobs);
  // 2^32 truncates to 0 under the old static_cast; now it must fail.
  const char *Argv[] = {"tool", "--jobs", "4294967296"};
  EXPECT_FALSE(P.parse(3, Argv));
  EXPECT_NE(P.error().find("--jobs"), std::string::npos) << P.error();
  EXPECT_NE(P.error().find("out of range"), std::string::npos) << P.error();
  EXPECT_EQ(Jobs, 7u);

  ArgParser Q("usage\n");
  Q.value("--jobs", &Jobs);
  const char *Argv2[] = {"tool", "--jobs", "4294967295"};
  EXPECT_TRUE(Q.parse(3, Argv2));
  EXPECT_EQ(Jobs, UINT32_MAX);
}

TEST(Cli, HexAndOctalPrefixesStillParse) {
  uint64_t Seed = 0;
  std::string Err;
  EXPECT_TRUE(parseSeed("0xFF", Seed, Err));
  EXPECT_EQ(Seed, 255u);
  EXPECT_TRUE(parseSeed("010", Seed, Err));
  EXPECT_EQ(Seed, 8u); // base 0: leading zero is octal
  EXPECT_FALSE(parseSeed("0x", Seed, Err)) << "bare 0x has no digits";
}

TEST(Cli, MissingValueDiagnosticNamesTheOption) {
  uint64_t Seed = 0;
  ArgParser P("usage\n");
  P.value("--seed", &Seed);
  const char *Argv[] = {"tool", "--seed"};
  EXPECT_FALSE(P.parse(2, Argv));
  EXPECT_NE(P.error().find("--seed"), std::string::npos) << P.error();
  EXPECT_NE(P.error().find("requires a value"), std::string::npos)
      << P.error();
}

TEST(Cli, UnknownOptionDiagnosticNamesTheOffender) {
  ArgParser P("usage\n");
  const char *Argv[] = {"tool", "--bogus"};
  EXPECT_FALSE(P.parse(2, Argv));
  EXPECT_NE(P.error().find("--bogus"), std::string::npos) << P.error();
}

TEST(Cli, ErrorIsEmptyBeforeAnyFailure) {
  ArgParser P("usage\n");
  EXPECT_TRUE(P.error().empty());
  const char *Argv[] = {"tool", "pos"};
  ASSERT_TRUE(P.parse(2, Argv));
  EXPECT_TRUE(P.error().empty());
}

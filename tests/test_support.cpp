// Unit tests for the support utilities: timers, options parsing, RNG
// determinism, statistics, and the ASCII table printer; plus a check that
// README.md documents exactly the SYMPACK_* environment knobs src/ reads.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "support/env.hpp"
#include "support/options.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace sympack::support {
namespace {

TEST(Timer, StartsStopped) {
  Timer t;
  EXPECT_FALSE(t.running());
  EXPECT_DOUBLE_EQ(t.elapsed(), 0.0);
  EXPECT_EQ(t.laps(), 0u);
}

TEST(Timer, AccumulatesAcrossLaps) {
  Timer t;
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  t.stop();
  const double first = t.elapsed();
  EXPECT_GT(first, 0.0);
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  t.stop();
  EXPECT_GT(t.elapsed(), first);
  EXPECT_EQ(t.laps(), 2u);
}

TEST(Timer, ElapsedWhileRunningIncludesInFlight) {
  Timer t;
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(t.elapsed(), 0.0);
  EXPECT_TRUE(t.running());
}

TEST(Timer, ResetClearsState) {
  Timer t;
  t.start();
  t.stop();
  t.reset();
  EXPECT_DOUBLE_EQ(t.elapsed(), 0.0);
  EXPECT_EQ(t.laps(), 0u);
}

TEST(Timer, DoubleStartIsIdempotent) {
  Timer t;
  t.start();
  t.start();
  t.stop();
  EXPECT_EQ(t.laps(), 1u);
}

TEST(ScopedTimer, AddsToAccumulator) {
  double acc = 0.0;
  {
    ScopedTimer st(acc);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(acc, 0.0);
}

TEST(FormatDuration, PicksUnits) {
  EXPECT_NE(format_duration(3e-9).find("ns"), std::string::npos);
  EXPECT_NE(format_duration(3e-6).find("us"), std::string::npos);
  EXPECT_NE(format_duration(3e-3).find("ms"), std::string::npos);
  EXPECT_NE(format_duration(3.0).find("s"), std::string::npos);
}

TEST(Options, ParsesSpaceSeparated) {
  const char* argv[] = {"prog", "--nodes", "8", "--matrix", "flan"};
  Options o(5, argv);
  EXPECT_EQ(o.get_int("nodes", 0), 8);
  EXPECT_EQ(o.get_string("matrix", ""), "flan");
}

TEST(Options, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--alpha=0.5", "--name=x"};
  Options o(3, argv);
  EXPECT_DOUBLE_EQ(o.get_double("alpha", 0.0), 0.5);
  EXPECT_EQ(o.get_string("name", ""), "x");
}

TEST(Options, BooleanFlags) {
  const char* argv[] = {"prog", "--gpu", "--no-verbose"};
  Options o(3, argv);
  EXPECT_TRUE(o.get_bool("gpu", false));
  EXPECT_FALSE(o.get_bool("verbose", true));
}

TEST(Options, BoolValueForms) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=off", "--d=1"};
  Options o(5, argv);
  EXPECT_FALSE(o.get_bool("a", true));
  EXPECT_FALSE(o.get_bool("b", true));
  EXPECT_FALSE(o.get_bool("c", true));
  EXPECT_TRUE(o.get_bool("d", false));
}

TEST(Options, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Options o(1, argv);
  EXPECT_EQ(o.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(o.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(o.get_string("missing", "dflt"), "dflt");
  EXPECT_TRUE(o.get_bool("missing", true));
}

TEST(Options, IntList) {
  const char* argv[] = {"prog", "--nodes", "1,2,4,8,16"};
  Options o(3, argv);
  const auto list = o.get_int_list("nodes", {});
  ASSERT_EQ(list.size(), 5u);
  EXPECT_EQ(list[0], 1);
  EXPECT_EQ(list[4], 16);
}

TEST(Options, PositionalArguments) {
  const char* argv[] = {"prog", "input.mtx", "--n", "3", "other"};
  Options o(5, argv);
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "input.mtx");
  EXPECT_EQ(o.positional()[1], "other");
}

TEST(Options, SetOverridesAndHas) {
  Options o;
  EXPECT_FALSE(o.has("x"));
  o.set("x", "7");
  EXPECT_TRUE(o.has("x"));
  EXPECT_EQ(o.get_int("x", 0), 7);
}

TEST(Random, Deterministic) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Random, DoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Random, NextBelowRespectsBound) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Random, NextInRange) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.next_in(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, EmptySummary) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, SingleElement) {
  const Summary s = summarize({5.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 25.0), 2.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
}

TEST(Table, FormatsAndPrints) {
  AsciiTable t({"name", "n", "nnz"});
  t.add_row({"Flan_1565", AsciiTable::fmt_int(1564794),
             AsciiTable::fmt_int(114165372)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("1,564,794"), std::string::npos);
  EXPECT_NE(s.find("114,165,372"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FmtBytes) {
  EXPECT_EQ(AsciiTable::fmt_bytes(512), "512 B");
  EXPECT_EQ(AsciiTable::fmt_bytes(2048), "2.0 KiB");
  EXPECT_EQ(AsciiTable::fmt_bytes(3u << 20), "3.0 MiB");
}

TEST(Table, FmtDouble) {
  EXPECT_EQ(AsciiTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(AsciiTable::fmt(-0.5, 1), "-0.5");
}

TEST(Env, ReadsTypedValues) {
  ::setenv("SYMPACK_TEST_INT", "41", 1);
  ::setenv("SYMPACK_TEST_DBL", "2.5", 1);
  ::setenv("SYMPACK_TEST_BOOL", "false", 1);
  EXPECT_EQ(env_int("SYMPACK_TEST_INT", 0), 41);
  EXPECT_DOUBLE_EQ(env_double("SYMPACK_TEST_DBL", 0.0), 2.5);
  EXPECT_FALSE(env_bool("SYMPACK_TEST_BOOL", true));
  EXPECT_EQ(env_int("SYMPACK_TEST_ABSENT", 7), 7);
  ::unsetenv("SYMPACK_TEST_INT");
  ::unsetenv("SYMPACK_TEST_DBL");
  ::unsetenv("SYMPACK_TEST_BOOL");
}

// A value that does not parse in full is an error naming the variable and
// its value, so SYMPACK_EAGER_BYTES=4k cannot silently turn eager sends
// off.
TEST(Env, MalformedThrows) {
  const auto message = [](auto read) {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  ::setenv("SYMPACK_TEST_BAD", "4k", 1);
  const std::string m = message([] { env_int("SYMPACK_TEST_BAD", 3); });
  EXPECT_NE(m.find("SYMPACK_TEST_BAD"), std::string::npos) << m;
  EXPECT_NE(m.find("4k"), std::string::npos) << m;
  EXPECT_THROW(env_double("SYMPACK_TEST_BAD", 0.5), std::invalid_argument);
  ::setenv("SYMPACK_TEST_BAD", "", 1);
  EXPECT_THROW(env_int("SYMPACK_TEST_BAD", 3), std::invalid_argument);
  EXPECT_THROW(env_double("SYMPACK_TEST_BAD", 0.5), std::invalid_argument);
  EXPECT_THROW(env_bool("SYMPACK_TEST_BAD", true), std::invalid_argument);
  ::setenv("SYMPACK_TEST_BAD", "99999999999999999999", 1);
  EXPECT_THROW(env_int("SYMPACK_TEST_BAD", 3), std::invalid_argument);
  ::unsetenv("SYMPACK_TEST_BAD");
}

// A misspelled boolean is an error, so SYMPACK_COALESCE=fasle cannot turn
// coalescing on.
TEST(Env, MisspelledBoolThrows) {
  ::setenv("SYMPACK_TEST_BOOL", "fasle", 1);
  try {
    (void)env_bool("SYMPACK_TEST_BOOL", false);
    ADD_FAILURE() << "env_bool accepted \"fasle\"";
  } catch (const std::invalid_argument& e) {
    const std::string m = e.what();
    EXPECT_NE(m.find("SYMPACK_TEST_BOOL"), std::string::npos) << m;
    EXPECT_NE(m.find("fasle"), std::string::npos) << m;
  }
  ::setenv("SYMPACK_TEST_BOOL", "OFF", 1);
  EXPECT_FALSE(env_bool("SYMPACK_TEST_BOOL", true));
  ::setenv("SYMPACK_TEST_BOOL", "Yes", 1);
  EXPECT_TRUE(env_bool("SYMPACK_TEST_BOOL", false));
  ::unsetenv("SYMPACK_TEST_BOOL");
}

}  // namespace
}  // namespace sympack::support

namespace sympack::support {
namespace {

// ------------------------------------------------------------------
// Environment-knob documentation: the "SYMPACK_*" string literals under
// src/ are the knobs the library reads, and every one must have a row in
// one of README.md's knob tables (a table line opening with the name in
// backticks) — no undocumented knob, no row for a knob that is gone.

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::set<std::string> knobs_read_in_src() {
  const std::regex literal("\"(SYMPACK_[A-Z0-9_]+)\"");
  std::set<std::string> knobs;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           std::filesystem::path(SYMPACK_SOURCE_DIR) / "src")) {
    const auto ext = entry.path().extension();
    if (ext != ".cpp" && ext != ".hpp") continue;
    const std::string text = read_file(entry.path());
    for (std::sregex_iterator it(text.begin(), text.end(), literal), end;
         it != end; ++it) {
      knobs.insert((*it)[1]);
    }
  }
  return knobs;
}

std::set<std::string> knobs_in_readme_tables() {
  const std::regex row("^\\|\\s*`(SYMPACK_[A-Z0-9_]+)`\\s*\\|");
  std::set<std::string> knobs;
  std::istringstream in(
      read_file(std::filesystem::path(SYMPACK_SOURCE_DIR) / "README.md"));
  std::smatch m;
  for (std::string line; std::getline(in, line);) {
    if (std::regex_search(line, m, row)) knobs.insert(m[1]);
  }
  return knobs;
}

std::string missing_from(const std::set<std::string>& from,
                         const std::set<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (from.count(name) == 0) out += " " + name;
  }
  return out;
}

TEST(EnvKnobs, ReadmeTablesListExactlyTheKnobsSrcReads) {
  const auto src = knobs_read_in_src();
  const auto readme = knobs_in_readme_tables();
  EXPECT_EQ(missing_from(readme, src), "") << "read in src/, no README row";
  EXPECT_EQ(missing_from(src, readme), "") << "README row, not read in src/";
  // Pinned so that adding or removing a knob is a deliberate change.
  EXPECT_EQ(src.size(), 28u);
}

TEST(Options, SingleDashFlagsLikeThePaperDriver) {
  // The AD/AE command lines use single-dash flags: -in, -nrhs, -ordering.
  const char* argv[] = {"prog", "-in", "m.rb", "-nrhs", "2", "-gpu_v"};
  Options o(6, argv);
  EXPECT_EQ(o.get_string("in", ""), "m.rb");
  EXPECT_EQ(o.get_int("nrhs", 0), 2);
  EXPECT_TRUE(o.get_bool("gpu_v", false));
}

TEST(Options, NegativeNumberIsValueNotOption) {
  const char* argv[] = {"prog", "--shift", "-2.5"};
  Options o(3, argv);
  EXPECT_DOUBLE_EQ(o.get_double("shift", 0.0), -2.5);
}

TEST(Options, MixedDashStyles) {
  const char* argv[] = {"prog", "-ordering", "SCOTCH", "--nodes=4"};
  Options o(4, argv);
  EXPECT_EQ(o.get_string("ordering", ""), "SCOTCH");
  EXPECT_EQ(o.get_int("nodes", 0), 4);
}

}  // namespace
}  // namespace sympack::support

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../bench/common.hpp"
#include "core/engine.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace rechord::util {
namespace {

// ---------------------------------------------------------------- CSV

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
}

TEST(Csv, EscapeComma) { EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\""); }

TEST(Csv, EscapeQuote) {
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, EscapeNewline) { EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\""); }

TEST(Csv, HeaderAndRows) {
  std::ostringstream out;
  {
    CsvWriter w(out);
    w.header({"n", "rounds"});
    w.row().cell(std::int64_t{5}).cell(12.5, 3);
    w.row().cell(std::int64_t{15}).cell(std::uint64_t{20});
  }
  EXPECT_EQ(out.str(), "n,rounds\n5,12.5\n15,20\n");
}

TEST(Csv, FinishIsIdempotent) {
  std::ostringstream out;
  CsvWriter w(out);
  w.row().cell("a");
  w.finish();
  w.finish();
  EXPECT_EQ(out.str(), "a\n");
}

// ---------------------------------------------------------------- Table

TEST(Table, RendersHeaderAndAlignment) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.00"});
  t.add_row({"b", "23.50"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  // numeric column right-aligned: "23.50" ends the line, " 1.00" is padded.
  EXPECT_NE(s.find(" 1.00"), std::string::npos);
}

TEST(Table, MissingCellsRenderEmpty) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  std::ostringstream out;
  t.print(out);
  EXPECT_EQ(t.rows(), 1U);
  EXPECT_NE(out.str().find('x'), std::string::npos);
}

TEST(Table, NumericRowHelper) {
  Table t({"x", "y"});
  t.add_row_numeric({1.234, 5.678}, 1);
  std::ostringstream out;
  t.print(out);
  EXPECT_NE(out.str().find("1.2"), std::string::npos);
  EXPECT_NE(out.str().find("5.7"), std::string::npos);
}

TEST(Table, WriteCsvMatchesRowsAndEscapes) {
  Table t({"n", "label"});
  t.add_row({"1", "plain"});
  t.add_row({"2", "needs,quoting"});
  std::ostringstream out;
  t.write_csv(out);
  EXPECT_EQ(out.str(), "n,label\n1,plain\n2,\"needs,quoting\"\n");
}

// ---------------------------------------------------------------- CLI

TEST(Cli, ScenarioAndCsvPlumbing) {
  const char* argv[] = {"prog", "--scenario", "flash-crowd", "--csv",
                        "series.csv"};
  const Cli cli(5, argv);
  EXPECT_EQ(cli.scenario(), "flash-crowd");
  EXPECT_EQ(cli.csv_path(), "series.csv");
  const char* bare[] = {"prog"};
  const Cli none(1, bare);
  EXPECT_TRUE(none.scenario().empty());
  EXPECT_TRUE(none.csv_path().empty());
}

TEST(Cli, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--n", "25", "--seed=7", "--flag"};
  const Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 25);
  EXPECT_EQ(cli.get_int("seed", 0), 7);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_EQ(cli.get("name", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cli.get_double("x", 1.5), 1.5);
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "input.txt", "--k", "3", "out.txt"};
  const Cli cli(5, argv);
  ASSERT_EQ(cli.positional().size(), 2U);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "out.txt");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, IntegerList) {
  const char* argv[] = {"prog", "--sizes", "5,15,25"};
  const Cli cli(3, argv);
  const auto v = cli.get_int_list("sizes", {});
  ASSERT_EQ(v.size(), 3U);
  EXPECT_EQ(v[0], 5);
  EXPECT_EQ(v[2], 25);
}

TEST(Cli, IntegerListFallback) {
  const char* argv[] = {"prog"};
  const Cli cli(1, argv);
  const auto v = cli.get_int_list("sizes", {1, 2});
  ASSERT_EQ(v.size(), 2U);
}

TEST(Cli, DoubleValues) {
  const char* argv[] = {"prog", "--p=0.25"};
  const Cli cli(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0.0), 0.25);
}

// Strict numeric parsing: a typo'd value must throw, not silently truncate
// to a prefix ("--n 10x00" used to parse as 10) or collapse to 0.

TEST(Cli, MalformedIntegerThrows) {
  const char* argv[] = {"prog", "--n", "10x00", "--seed", "abc"};
  const Cli cli(5, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int("seed", 0), std::invalid_argument);
  try {
    (void)cli.get_int("n", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message names the offending option and value.
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("10x00"), std::string::npos);
  }
}

TEST(Cli, MalformedDoubleThrows) {
  const char* argv[] = {"prog", "--p", "0.5q", "--q", "..1"};
  const Cli cli(5, argv);
  EXPECT_THROW((void)cli.get_double("p", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("q", 0.0), std::invalid_argument);
}

TEST(Cli, OutOfRangeIntegerThrows) {
  const char* argv[] = {"prog", "--n", "99999999999999999999999"};
  const Cli cli(3, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), std::invalid_argument);
}

TEST(Cli, MalformedListElementThrows) {
  const char* argv[] = {"prog", "--sizes", "5,1x5,25"};
  const Cli cli(3, argv);
  EXPECT_THROW((void)cli.get_int_list("sizes", {}), std::invalid_argument);
}

TEST(Cli, StrictParsingStillAcceptsValidForms) {
  const char* argv[] = {"prog", "--a", "-12", "--b", "+34",
                        "--c", "1e3", "--d", "-0.5"};
  const Cli cli(9, argv);
  EXPECT_EQ(cli.get_int("a", 0), -12);
  EXPECT_EQ(cli.get_int("b", 0), 34);
  EXPECT_DOUBLE_EQ(cli.get_double("c", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(cli.get_double("d", 0.0), -0.5);
  // Empty values (bare `--key` before another option) still fall back.
  const char* bare[] = {"prog", "--n", "--full-scan"};
  const Cli none(3, bare);
  EXPECT_EQ(none.get_int("n", 42), 42);
}

// --threads is bounded on both sides at parse time, by the one parse the
// engine options and the bench configs share: a negative value must not
// wrap to 2^32 - 1 and a typo must not ask for thousands of OS threads.
// Parse level only -- no Engine is built and no thread is started.
TEST(Cli, ThreadsOutsideOneTo256Throws) {
  for (const char* bad : {"0", "-1", "257"}) {
    const char* argv[] = {"prog", "--threads", bad};
    const Cli cli(3, argv);
    EXPECT_THROW((void)core::engine_options_from_cli(cli),
                 std::invalid_argument)
        << "--threads " << bad;
    EXPECT_THROW((void)bench::BenchConfig::from_cli(cli),
                 std::invalid_argument)
        << "--threads " << bad;
  }
  const char* argv[] = {"prog", "--threads", "8"};
  const Cli cli(3, argv);
  EXPECT_EQ(core::engine_options_from_cli(cli).threads, 8U);
  EXPECT_EQ(bench::BenchConfig::from_cli(cli).threads, 8U);
  const char* none[] = {"prog"};
  EXPECT_EQ(bench::BenchConfig::from_cli(Cli(1, none)).threads, 1U);
}

// --trials and every --sizes element are counts: a value below 1 is a named
// option error at parse time, not a std::size_t wrap that later aborts in a
// vector reserve. Parse level only.
TEST(Cli, TrialsAndSizesBelowOneThrow) {
  const std::pair<const char*, const char*> bad[] = {
      {"--trials", "-1"}, {"--trials", "0"}, {"--sizes", "-5"},
      {"--sizes", "5,0"}};
  for (const auto& [opt, value] : bad) {
    const char* argv[] = {"prog", opt, value};
    const Cli cli(3, argv);
    try {
      (void)bench::BenchConfig::from_cli(cli);
      ADD_FAILURE() << opt << " " << value << " did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(opt), std::string::npos)
          << e.what();
    }
  }
  const char* argv[] = {"prog", "--sizes", "5,15", "--trials", "1"};
  const auto cfg = bench::BenchConfig::from_cli(Cli(5, argv));
  EXPECT_EQ(cfg.sizes, (std::vector<std::size_t>{5, 15}));
  EXPECT_EQ(cfg.trials, 1U);
}

}  // namespace
}  // namespace rechord::util

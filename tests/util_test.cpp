// Utility tests: table rendering/CSV escaping, CLI flag parsing, logging
// levels, timers, the plug-in registry and its parameter parsers.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/logging.h"
#include "util/registry.h"
#include "util/table.h"

namespace pt {
namespace {

TEST(Table, RendersAlignedText) {
  Table t({"model", "flops"});
  t.add_row({"resnet50", "123.4"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("model"), std::string::npos);
  EXPECT_NE(text.find("resnet50"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, ArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumericRows) {
  Table t({"x", "y"});
  t.add_row_numeric({1.23456, 2.0}, 2);
  EXPECT_EQ(t.rows()[0][0], "1.23");
  EXPECT_EQ(t.rows()[0][1], "2.00");
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name"});
  t.add_row({"a,b"});
  t.add_row({"q\"uote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"q\"\"uote\""), std::string::npos);
}

TEST(Table, WritesCsvFile) {
  Table t({"k", "v"});
  t.add_row({"x", "1"});
  const std::string path = "/tmp/pt_table_test.csv";
  t.print(path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "k,v");
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(-1.0, 0), "-1");
}

TEST(Cli, ParsesAllForms) {
  CliFlags flags;
  flags.define("alpha", "1.0", "");
  flags.define("name", "x", "");
  flags.define("quick", "false", "");
  flags.define("count", "3", "");
  const char* argv[] = {"prog", "--alpha=2.5", "--name", "model", "--quick"};
  flags.parse(5, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("alpha"), 2.5);
  EXPECT_EQ(flags.get("name"), "model");
  EXPECT_TRUE(flags.get_bool("quick"));
  EXPECT_EQ(flags.get_int("count"), 3);  // default preserved
}

TEST(Cli, RejectsUnknownFlag) {
  CliFlags flags;
  flags.define("a", "1", "");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(flags.parse(3, argv), std::invalid_argument);
}

TEST(Cli, HelpRequested) {
  CliFlags flags;
  flags.define("a", "1", "doc for a");
  const char* argv[] = {"prog", "--help"};
  flags.parse(2, argv);
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.usage("prog").find("doc for a"), std::string::npos);
}

TEST(Cli, UndefinedGetThrows) {
  CliFlags flags;
  EXPECT_THROW(flags.get("nope"), std::invalid_argument);
}

TEST(Cli, ListFlagAccumulatesInOrder) {
  CliFlags flags;
  flags.define_list("param", "repeatable key=value");
  flags.define("other", "x", "");
  const char* argv[] = {"prog", "--param", "a=1", "--param=b=2", "--other", "y",
                        "--param", "c=3"};
  flags.parse(8, argv);
  const std::vector<std::string> got = flags.get_list("param");
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "a=1");
  EXPECT_EQ(got[1], "b=2");
  EXPECT_EQ(got[2], "c=3");
  EXPECT_EQ(flags.get("other"), "y");
}

TEST(Cli, ListFlagMisuseThrows) {
  CliFlags flags;
  flags.define_list("param", "");
  flags.define("plain", "1", "");
  EXPECT_THROW(flags.get("param"), std::invalid_argument);     // is a list
  EXPECT_THROW(flags.get_list("plain"), std::invalid_argument);  // is not
  const char* argv[] = {"prog", "--param"};
  EXPECT_THROW(flags.parse(2, argv), std::invalid_argument);  // needs a value
  EXPECT_TRUE(flags.get_list("param").empty());  // default is empty
}

TEST(Logging, LevelFilters) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  log_info("should not crash (filtered)");
  set_log_level(before);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

// Expects `fn` to throw std::invalid_argument whose message contains every
// one of `needles`.
template <class Fn>
void expect_invalid(Fn&& fn, std::initializer_list<std::string> needles) {
  try {
    fn();
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const std::string& n : needles) {
      EXPECT_NE(what.find(n), std::string::npos) << n << " not in: " << what;
    }
  }
}

TEST(ParamParse, FloatAcceptsFiniteAndRejectsNonFiniteNamingTheKey) {
  EXPECT_FLOAT_EQ(param_float({{"k", "0.25"}}, "k"), 0.25f);
  EXPECT_FLOAT_EQ(param_float({{"k", "-3"}}, "k"), -3.0f);
  EXPECT_FLOAT_EQ(param_float({{"k", "1e-4"}}, "k"), 1e-4f);
  for (const char* v : {"nan", "NaN", "inf", "-inf", "infinity", "1e99", "",
                        "abc", "0.5x"}) {
    SCOPED_TRACE(v);
    expect_invalid([&] { param_float({{"scale", v}}, "scale"); },
                   {"'scale'", "finite number", std::string("'") + v + "'"});
  }
}

TEST(ParamParse, IntRejectsFractionsAndTrailingText) {
  EXPECT_EQ(param_int({{"n", "42"}}, "n"), 42);
  EXPECT_EQ(param_int({{"n", "-7"}}, "n"), -7);
  EXPECT_EQ(param_int({{"n", "9000000000"}}, "n"), 9000000000LL);
  for (const char* v : {"1.5", "3x", "", "ten", "99999999999999999999"}) {
    SCOPED_TRACE(v);
    expect_invalid([&] { param_int({{"window", v}}, "window"); },
                   {"'window'", "integer"});
  }
}

TEST(ParamParse, BoolAcceptsThreeSpellingsEachWayAndNamesMissingKeys) {
  for (const char* v : {"true", "1", "yes"}) {
    EXPECT_TRUE(param_bool({{"b", v}}, "b")) << v;
  }
  for (const char* v : {"false", "0", "no"}) {
    EXPECT_FALSE(param_bool({{"b", v}}, "b")) << v;
  }
  for (const char* v : {"True", "on", "2", ""}) {
    SCOPED_TRACE(v);
    expect_invalid([&] { param_bool({{"flag", v}}, "flag"); },
                   {"'flag'", "boolean"});
  }
  const ParamMap other = {{"present", "1"}};
  expect_invalid([&] { param_float(other, "absent"); },
                 {"'absent'", "missing"});
  expect_invalid([&] { param_int(other, "absent"); }, {"'absent'", "missing"});
  expect_invalid([&] { param_bool(other, "absent"); },
                 {"'absent'", "missing"});
}

// A registry of a toy plug-in type, built the way StrategyRegistry and
// CodecRegistry are, with `add` opened up.
struct Widget {
  float scale;
  std::int64_t count;
};

class WidgetRegistry : public Registry<Widget> {
 public:
  WidgetRegistry() : Registry("widget type", "widget") {}
  using Registry::add;
};

WidgetRegistry::Factory widget_factory(const std::string& name) {
  WidgetRegistry::Factory f;
  f.name = name;
  f.description = name + " widget";
  f.params = {{"scale", "0.5", "how big"}, {"count", "3", "how many"}};
  f.make = [](const ParamMap& p) {
    return std::make_unique<Widget>(
        Widget{param_float(p, "scale"), param_int(p, "count")});
  };
  return f;
}

TEST(Registry, ResolveOverlaysDefaultsAndCreateUsesTheResolvedMap) {
  WidgetRegistry reg;
  reg.add(widget_factory("round"));
  const ParamMap defaults = {{"count", "3"}, {"scale", "0.5"}};
  EXPECT_EQ(reg.resolve("round", {}), defaults);
  const ParamMap resolved = reg.resolve("round", {{"count", "8"}});
  EXPECT_EQ(resolved, (ParamMap{{"count", "8"}, {"scale", "0.5"}}));

  const auto w = reg.create("round", {{"scale", "2"}});
  EXPECT_FLOAT_EQ(w->scale, 2.0f);
  EXPECT_EQ(w->count, 3);
  EXPECT_EQ(reg.make("round", resolved)->count, 8);

  // Parameter errors name the kind, the plug-in, the key and the known keys
  // in declaration order.
  expect_invalid([&] { reg.resolve("round", {{"size", "1"}}); },
                 {"widget 'round' has no parameter 'size'", "(known: scale, count)"});
  expect_invalid([&] { reg.create("round", {{"scale", "inf"}}); },
                 {"'scale'", "finite"});
}

TEST(Registry, NameErrorsUseTheNounAndRegistrationOrderIsKept) {
  WidgetRegistry reg;
  reg.add(widget_factory("square"));
  reg.add(widget_factory("round"));
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"square", "round"}));
  ASSERT_NE(reg.find("round"), nullptr);
  EXPECT_EQ(reg.find("round")->description, "round widget");
  EXPECT_EQ(reg.find("oval"), nullptr);

  expect_invalid([&] { reg.create("oval"); },
                 {"unknown widget type 'oval'", "known: square, round"});
  expect_invalid([&] { reg.resolve("oval", {}); }, {"'oval'"});
  expect_invalid([&] { reg.add(widget_factory("round")); },
                 {"widget type 'round' is already registered"});
  EXPECT_EQ(reg.names().size(), 2u);
}

TEST(Registry, HelpListsEachPluginAboveItsParams) {
  WidgetRegistry reg;
  reg.add(widget_factory("square"));
  reg.add(widget_factory("round"));
  const std::string help = reg.help();
  const std::size_t header = help.find("widget");
  const std::size_t square = help.find("square widget");
  const std::size_t round = help.find("round widget");
  ASSERT_NE(header, std::string::npos);
  ASSERT_NE(square, std::string::npos);
  ASSERT_NE(round, std::string::npos);
  EXPECT_LT(header, square);
  EXPECT_LT(square, round);
  // Each plug-in's parameters sit between its row and the next plug-in's.
  for (const char* token : {"scale", "0.5", "how big", "count", "how many"}) {
    SCOPED_TRACE(token);
    const std::size_t first = help.find(token, square);
    EXPECT_LT(first, round);
    EXPECT_NE(help.find(token, round), std::string::npos);
  }
  EXPECT_NE(help.find("param"), std::string::npos);
  EXPECT_NE(help.find("default"), std::string::npos);
}

}  // namespace
}  // namespace pt

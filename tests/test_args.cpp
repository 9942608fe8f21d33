#include "util/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace ffp {
namespace {

ArgParser make_parser() {
  ArgParser p;
  p.flag("k", "32", "number of parts")
      .flag("name", "default", "a string")
      .flag("ratio", "0.5", "a number")
      .toggle("verbose", "noise level");
  return p;
}

void parse(ArgParser& p, std::initializer_list<const char*> argv) {
  std::vector<const char*> args = {"prog"};
  args.insert(args.end(), argv);
  p.parse(static_cast<int>(args.size()), args.data());
}

TEST(Args, DefaultsApplyWhenUnset) {
  auto p = make_parser();
  parse(p, {});
  EXPECT_EQ(p.get("name"), "default");
  EXPECT_EQ(p.get_int("k"), 32);
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 0.5);
  EXPECT_FALSE(p.get_bool("verbose"));
  EXPECT_FALSE(p.was_set("k"));
}

TEST(Args, ValuesOverrideDefaults) {
  auto p = make_parser();
  parse(p, {"--k", "8", "--name", "atc", "--ratio", "1.25", "--verbose"});
  EXPECT_EQ(p.get_int("k"), 8);
  EXPECT_EQ(p.get("name"), "atc");
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 1.25);
  EXPECT_TRUE(p.get_bool("verbose"));
  EXPECT_TRUE(p.was_set("k"));
}

TEST(Args, PositionalArgumentsCollected) {
  auto p = make_parser();
  parse(p, {"input.graph", "--k", "4", "output.part"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.graph");
  EXPECT_EQ(p.positional()[1], "output.part");
}

/// The message of the ffp::Error `fn` throws ("" when it throws none).
/// The tools print it as-is, so it names the flag and carries no
/// FFP_CHECK expression or source path.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Args, UnknownFlagThrows) {
  auto p = make_parser();
  const std::string message = error_of([&] { parse(p, {"--bogus", "1"}); });
  EXPECT_EQ(message.rfind("unknown flag --bogus\n", 0), 0u) << message;
  EXPECT_EQ(message.find("FFP_CHECK"), std::string::npos) << message;
}

TEST(Args, MissingValueThrows) {
  auto p = make_parser();
  EXPECT_EQ(error_of([&] { parse(p, {"--k"}); }), "missing value for --k");
}

TEST(Args, BadTypeThrowsOnAccess) {
  auto p = make_parser();
  parse(p, {"--k", "eight", "--ratio", "half"});
  EXPECT_EQ(error_of([&] { p.get_int("k"); }),
            "--k expects an integer, got 'eight'");
  EXPECT_EQ(error_of([&] { p.get_double("ratio"); }),
            "--ratio expects a number, got 'half'");
}

TEST(Args, RangeGetterThrowsNamingTheFlagAndRange) {
  struct Case {
    const char* value;
    std::int64_t lo, hi;
    std::string message;  ///< "" = accepted
  };
  const std::vector<Case> cases = {
      {"8", 1, 8, ""},
      {"8", 8, 8, ""},
      {"8", 0, INT64_MAX, ""},
      {"0", 1, 64, "--k must be in [1, 64]"},
      {"65", 1, 64, "--k must be in [1, 64]"},
      {"4294967298", 1, INT32_MAX, "--k must be in [1, 2147483647]"},
      {"-1", 0, INT64_MAX, "--k must be >= 0"},
      {"-9223372036854775808", 0, INT64_MAX, "--k must be >= 0"},
      {"99999999999999999999", 0, 9,
       "--k expects an integer, got '99999999999999999999'"},
      {"", 0, 9, "--k expects an integer, got ''"},
  };
  for (const Case& c : cases) {
    auto p = make_parser();
    parse(p, {"--k", c.value});
    EXPECT_EQ(error_of([&] { p.get_int("k", c.lo, c.hi); }), c.message)
        << c.value;
  }
}

TEST(Args, UnregisteredAccessThrows) {
  auto p = make_parser();
  parse(p, {});
  EXPECT_THROW(p.get("nonexistent"), Error);
}

TEST(Args, DuplicateRegistrationThrows) {
  ArgParser p;
  p.flag("x", "1", "first");
  EXPECT_THROW(p.flag("x", "2", "again"), Error);
}

TEST(Args, UsageMentionsFlagsAndHelp) {
  auto p = make_parser();
  const auto usage = p.usage();
  EXPECT_NE(usage.find("--k"), std::string::npos);
  EXPECT_NE(usage.find("number of parts"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
}

}  // namespace
}  // namespace ffp

#include "solver/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "benchlib/methods.hpp"
#include "test_support.hpp"

namespace ffp {
namespace {

const Graph& grid() {
  static const Graph g = make_grid2d(8, 8);
  return g;
}

SolverRequest small_request(int k = 4, std::uint64_t seed = 5) {
  SolverRequest request;
  request.k = k;
  request.objective = ObjectiveKind::MinMaxCut;
  request.stop = StopCondition::after_steps(300);
  request.seed = seed;
  return request;
}

TEST(SolverOptions, ParsesKeyValuePairs) {
  const auto o = SolverOptions::parse("alpha=1.5, beta = x ,gamma=true");
  EXPECT_TRUE(o.has("alpha"));
  EXPECT_DOUBLE_EQ(o.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(o.get_string("beta", ""), "x");
  EXPECT_TRUE(o.get_bool("gamma", false));
  EXPECT_FALSE(o.has("delta"));
  EXPECT_EQ(o.get_int("delta", 42), 42);
}

TEST(SolverOptions, EmptyStringMeansNoOptions) {
  const auto o = SolverOptions::parse("");
  EXPECT_TRUE(o.empty());
  EXPECT_TRUE(o.unread_keys().empty());
}

TEST(SolverOptions, RejectsMalformedPairs) {
  EXPECT_THROW(SolverOptions::parse("noequals"), Error);
  EXPECT_THROW(SolverOptions::parse("=value"), Error);
  EXPECT_THROW(SolverOptions::parse("a=1,a=2"), Error);
}

TEST(SolverOptions, WhitespaceSeparatedPairsAndCanonicalText) {
  const auto o = SolverOptions::parse("nbt=800 tmax=2");
  EXPECT_EQ(o.get_int("nbt", 0), 800);
  EXPECT_EQ(o.get_int("tmax", 0), 2);
  // Duplicates are rejected across separator styles too.
  EXPECT_THROW(SolverOptions::parse("a=1 a=2"), Error);
  EXPECT_THROW(SolverOptions::parse("a=1, a=2"), Error);
  // canonical_text: sorted keys, no whitespace, one separator style.
  EXPECT_EQ(SolverOptions::parse(" b = 2 , a = 1 ").canonical_text(),
            "a=1,b=2");
  EXPECT_EQ(SolverOptions::parse("").canonical_text(), "");
}

TEST(SolverOptions, TypedGettersValidate) {
  const auto o = SolverOptions::parse("n=abc,b=maybe");
  EXPECT_THROW(o.get_int("n", 0), Error);
  EXPECT_THROW(o.get_double("n", 0.0), Error);
  EXPECT_THROW(o.get_bool("b", false), Error);
}

TEST(SolverOptions, TracksUnreadKeys) {
  const auto o = SolverOptions::parse("read=1,unread=2");
  (void)o.get_int("read", 0);
  const auto unread = o.unread_keys();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "unread");
}

TEST(Registry, BuiltinHasAllFamilies) {
  const auto names = SolverRegistry::builtin().names();
  for (const char* expected :
       {"fusion_fission", "annealing", "ant_colony", "multilevel", "spectral",
        "linear", "percolation"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << expected;
  }
}

TEST(Registry, UnknownNameThrowsListingAvailable) {
  try {
    (void)make_solver("does_not_exist");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fusion_fission"), std::string::npos);
  }
}

TEST(Registry, UnknownOptionKeyThrows) {
  EXPECT_THROW(make_solver("fusion_fission:not_an_option=1"), Error);
  EXPECT_THROW(make_solver("linear:typo=2"), Error);
}

TEST(Registry, UnknownKeyDetectionSurvivesOptionsReuse) {
  // 'cooling' is an annealing option; trying the same SolverOptions against
  // fusion_fission afterwards must still reject it.
  const auto o = SolverOptions::parse("cooling=0.9");
  const auto& reg = SolverRegistry::builtin();
  EXPECT_NO_THROW(reg.create("annealing", o));
  EXPECT_THROW(reg.create("fusion_fission", o), Error);
  EXPECT_NO_THROW(reg.create("annealing", o));
}

TEST(Registry, LinearRejectsUnsupportedArity) {
  EXPECT_THROW(make_solver("linear:arity=3"), Error);
  EXPECT_THROW(make_solver("linear:arity=0,kl=true"), Error);
  EXPECT_NO_THROW(make_solver("linear:arity=4,kl=true"));
}

TEST(Registry, BadEnumValueThrowsListingChoices) {
  try {
    (void)make_solver("spectral:engine=cg");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("lanczos"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("rqi"), std::string::npos);
  }
}

TEST(Registry, SpecWithoutOptionsUsesDefaults) {
  const auto solver = make_solver("multilevel");
  EXPECT_EQ(solver->name(), "multilevel");
  EXPECT_FALSE(solver->is_metaheuristic());
}

TEST(Registry, MetaheuristicFlagMatchesFamily) {
  EXPECT_TRUE(make_solver("fusion_fission")->is_metaheuristic());
  EXPECT_TRUE(make_solver("annealing")->is_metaheuristic());
  EXPECT_TRUE(make_solver("ant_colony")->is_metaheuristic());
  EXPECT_FALSE(make_solver("spectral")->is_metaheuristic());
  EXPECT_FALSE(make_solver("linear")->is_metaheuristic());
  EXPECT_FALSE(make_solver("percolation")->is_metaheuristic());
}

TEST(Registry, EverySolverProducesValidKPartition) {
  for (const auto& name : SolverRegistry::builtin().names()) {
    const auto solver = make_solver(name);
    const auto res = solver->run(grid(), small_request());
    testing::expect_valid_partition(res.best, 4);
    EXPECT_DOUBLE_EQ(
        res.best_value,
        objective(ObjectiveKind::MinMaxCut).evaluate(res.best))
        << name;
  }
}

TEST(Registry, OptionsChangeBehavior) {
  // KL-refined linear should be at least as good on Cut as plain linear.
  SolverRequest request = small_request();
  request.objective = ObjectiveKind::Cut;
  const auto plain = make_solver("linear")->run(grid(), request);
  const auto kl = make_solver("linear:arity=2,kl=true")->run(grid(), request);
  EXPECT_LE(kl.best_value, plain.best_value);
}

TEST(Registry, SameSeedSameResult) {
  for (const char* spec : {"fusion_fission", "annealing", "multilevel"}) {
    const auto solver = make_solver(spec);
    const auto a = solver->run(grid(), small_request(4, 99));
    const auto b = solver->run(grid(), small_request(4, 99));
    EXPECT_TRUE(std::equal(a.best.assignment().begin(),
                           a.best.assignment().end(),
                           b.best.assignment().begin()))
        << spec;
  }
}

TEST(Registry, Table1RowsAreRegistryBuilt) {
  const auto methods = table1_methods();
  ASSERT_EQ(methods.size(), 17u);
  for (const auto& m : methods) {
    EXPECT_FALSE(m.solver_spec.empty()) << m.name;
    ASSERT_NE(m.solver, nullptr) << m.name;
    EXPECT_EQ(m.is_metaheuristic, m.solver->is_metaheuristic()) << m.name;
    // The spec reconstructs an equivalent solver.
    const auto rebuilt = make_solver(m.solver_spec);
    EXPECT_EQ(rebuilt->name(), m.solver->name()) << m.name;
  }
  EXPECT_EQ(table1_spec("Fusion Fission"), "fusion_fission");
  EXPECT_THROW(table1_spec("Does Not Exist"), Error);
}

TEST(Registry, MethodRowAndRawSpecAgree) {
  // A Table-1 row run through benchlib must equal the registry solver run
  // with the same request — no duplicated construction logic.
  const auto methods = table1_methods();
  const auto& row = method_by_name(methods, "Multilevel (Oct)");
  MethodContext ctx;
  ctx.k = 4;
  ctx.seed = 31;
  const auto via_row = row.run(grid(), ctx);

  SolverRequest request = small_request(4, 31);
  const auto via_registry = make_solver(row.solver_spec)->run(grid(), request);
  EXPECT_TRUE(std::equal(via_row.assignment().begin(),
                         via_row.assignment().end(),
                         via_registry.best.assignment().begin()));
}

TEST(Registry, CanonicalSpecNormalizesEquivalentForms) {
  const auto& reg = SolverRegistry::builtin();
  EXPECT_EQ(reg.canonical_spec("fusion_fission"), "fusion_fission");
  EXPECT_EQ(reg.canonical_spec("  fusion_fission  "), "fusion_fission");
  EXPECT_EQ(reg.canonical_spec("fusion_fission:"), "fusion_fission");
  // Key order, cosmetic whitespace, trailing commas, and the whitespace
  // name/options separator all collapse to one canonical string.
  const std::string canonical = "fusion_fission:nbt=800,tmax=2";
  EXPECT_EQ(reg.canonical_spec("fusion_fission:tmax=2,nbt=800"), canonical);
  EXPECT_EQ(reg.canonical_spec("fusion_fission: nbt=800 , tmax=2 ,"),
            canonical);
  EXPECT_EQ(reg.canonical_spec("fusion_fission tmax=2 nbt=800"), canonical);
  EXPECT_EQ(reg.canonical_spec("spectral:kl=true,engine=rqi"),
            "spectral:engine=rqi,kl=true");
}

TEST(Registry, CanonicalSpecValidatesEndToEnd) {
  const auto& reg = SolverRegistry::builtin();
  EXPECT_THROW(reg.canonical_spec("no_such_solver"), Error);
  EXPECT_THROW(reg.canonical_spec("fusion_fission:bogus_key=1"), Error);
  EXPECT_THROW(reg.canonical_spec("fusion_fission:threads=2"), Error);
  EXPECT_THROW(reg.canonical_spec("fusion_fission:batch=16"), Error);
  EXPECT_THROW(reg.canonical_spec("fusion_fission:nbt=1,nbt=2"), Error);
  EXPECT_THROW(reg.canonical_spec("spectral:engine=warp"), Error);  // bad value
  // A multi-word non-spec stays one (unknown) name, not a key=value error.
  EXPECT_THROW(reg.canonical_spec("Fusion Fission"), Error);
}

TEST(Registry, WhitespaceSpecFormResolves) {
  const auto solver = make_solver("fusion_fission nbt=800");
  EXPECT_EQ(solver->name(), "fusion_fission");
}

}  // namespace
}  // namespace ffp

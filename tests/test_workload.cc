/**
 * @file
 * Tests for profiles, the benchmark suite (including the paper's
 * Table 1 values) and the trace-to-profile matcher.
 */

#include <gtest/gtest.h>

#include "trace/synthetic.hh"
#include "workload/benchmark_suite.hh"
#include "workload/function_profile.hh"
#include "workload/profile_matcher.hh"

namespace
{

using namespace iceb;
using namespace iceb::workload;

// --------------------------------------------------------------- Profile

TEST(ProfileTest, Table1FunctionAValues)
{
    const FunctionProfile p = table1FunctionA();
    EXPECT_EQ(p.coldStartMs(Tier::LowEnd), 2630);
    EXPECT_EQ(p.execMs(Tier::LowEnd), 3130);
    EXPECT_EQ(p.coldStartMs(Tier::HighEnd), 2090);
    EXPECT_EQ(p.execMs(Tier::HighEnd), 2750);
    EXPECT_EQ(p.serviceTimeColdMs(Tier::HighEnd), 4840);
    EXPECT_EQ(p.serviceTimeWarmMs(Tier::LowEnd), 3130);
    // Table 1 metric: warm-on-low beats cold-on-high for F_A.
    EXPECT_TRUE(p.warmLowBeatsColdHigh());
}

TEST(ProfileTest, Table1FunctionBFailsMetric)
{
    const FunctionProfile p = table1FunctionB();
    // F_B: 3.01 s warm on low-end > 1.43 s cold on high-end.
    EXPECT_FALSE(p.warmLowBeatsColdHigh());
}

TEST(ProfileTest, Table1FunctionCPassesMetric)
{
    const FunctionProfile p = table1FunctionC();
    EXPECT_TRUE(p.warmLowBeatsColdHigh());
    EXPECT_EQ(p.serviceTimeColdMs(Tier::LowEnd), 3200);
}

TEST(ProfileTest, InterServerSpeedupDefinition)
{
    const FunctionProfile p = table1FunctionB();
    // (0.66 + 0.77) / (1.20 + 3.01) per the paper's definition.
    EXPECT_NEAR(p.interServerSpeedup(), 1430.0 / 4210.0, 1e-9);
    // F_B benefits hugely from high-end: ratio far below 1.
    EXPECT_LT(p.interServerSpeedup(), 0.5);
}

// ----------------------------------------------------------------- Suite

TEST(SuiteTest, StandardSuiteIsValid)
{
    const BenchmarkSuite suite = BenchmarkSuite::standard();
    EXPECT_GE(suite.size(), 20u);
    for (const auto &p : suite.profiles()) {
        EXPECT_GT(p.memory_mb, 0);
        for (int t = 0; t < kNumTiers; ++t) {
            const auto tier = static_cast<Tier>(t);
            EXPECT_GT(p.execMs(tier), 0) << p.name;
            EXPECT_GT(p.coldStartMs(tier), 0) << p.name;
            // Low-end never executes faster than high-end.
            EXPECT_GE(p.execMs(Tier::LowEnd), p.execMs(Tier::HighEnd))
                << p.name;
        }
    }
}

TEST(SuiteTest, MajorityPassTable1Metric)
{
    // Paper: true for more than 60% of ServerlessBench functions.
    const BenchmarkSuite suite = BenchmarkSuite::standard();
    EXPECT_GT(suite.fractionWarmLowBeatsColdHigh(), 0.6);
    EXPECT_LT(suite.fractionWarmLowBeatsColdHigh(), 1.0);
}

TEST(SuiteTest, LookupByName)
{
    const BenchmarkSuite suite = BenchmarkSuite::standard();
    const FunctionProfile &p =
        suite.profileByName("serverlessbench/F_A");
    EXPECT_EQ(p.execMs(Tier::HighEnd), 2750);
}

TEST(SuiteDeathTest, UnknownNameIsFatal)
{
    const BenchmarkSuite suite = BenchmarkSuite::standard();
    EXPECT_EXIT(suite.profileByName("nope"),
                ::testing::ExitedWithCode(1), "no benchmark profile");
}

TEST(SuiteDeathTest, IndexOutOfRangePanics)
{
    const BenchmarkSuite suite = BenchmarkSuite::standard();
    EXPECT_DEATH(suite.profile(suite.size()), "out of range");
}

// --------------------------------------------------------------- Matcher

TEST(MatcherTest, ExactHintsPickThatProfile)
{
    const BenchmarkSuite suite = BenchmarkSuite::standard();
    const ProfileMatcher matcher(suite);
    const FunctionProfile &target =
        suite.profileByName("web/auth-check");
    const std::size_t index = matcher.matchIndex(
        target.memory_mb, target.execMs(Tier::HighEnd));
    EXPECT_EQ(suite.profile(index).name, "web/auth-check");
}

TEST(MatcherTest, ScaleToTracePinsExecAndMemory)
{
    const BenchmarkSuite suite = BenchmarkSuite::standard();
    const ProfileMatcher matcher(suite);
    trace::FunctionSeries fn;
    fn.name = "synthetic";
    fn.memory_mb = 333;
    fn.avg_exec_ms = 2000;
    const FunctionProfile p = matcher.profileFor(fn);
    EXPECT_EQ(p.memory_mb, 333);
    EXPECT_EQ(p.execMs(Tier::HighEnd), 2000);
    // Tier execution ratio preserved from the matched benchmark.
    const std::size_t index = matcher.matchIndex(333, 2000);
    const FunctionProfile &base = suite.profile(index);
    const double base_ratio =
        static_cast<double>(base.execMs(Tier::LowEnd)) /
        static_cast<double>(base.execMs(Tier::HighEnd));
    const double scaled_ratio =
        static_cast<double>(p.execMs(Tier::LowEnd)) /
        static_cast<double>(p.execMs(Tier::HighEnd));
    EXPECT_NEAR(scaled_ratio, base_ratio, 0.01);
    // Cold starts stay at the benchmark's measured values.
    EXPECT_EQ(p.coldStartMs(Tier::HighEnd),
              base.coldStartMs(Tier::HighEnd));
}

TEST(MatcherTest, MissingHintsUseDefaults)
{
    const BenchmarkSuite suite = BenchmarkSuite::standard();
    const ProfileMatcher matcher(suite);
    trace::FunctionSeries fn;
    fn.name = "empty";
    fn.memory_mb = 0;
    fn.avg_exec_ms = 0;
    const FunctionProfile p = matcher.profileFor(fn);
    EXPECT_GT(p.memory_mb, 0);
    EXPECT_GT(p.execMs(Tier::HighEnd), 0);
}

TEST(MatcherTest, ProfilesForWholeTrace)
{
    trace::SyntheticConfig config;
    config.num_functions = 25;
    config.num_intervals = 50;
    const trace::Trace tr =
        trace::SyntheticTraceGenerator(config).generate();
    const BenchmarkSuite suite = BenchmarkSuite::standard();
    const ProfileMatcher matcher(suite);
    const std::vector<FunctionProfile> profiles = matcher.profilesFor(tr);
    ASSERT_EQ(profiles.size(), tr.numFunctions());
    for (FunctionId fn = 0; fn < tr.numFunctions(); ++fn)
        EXPECT_EQ(profiles[fn].memory_mb, tr.function(fn).memory_mb);
}

} // namespace

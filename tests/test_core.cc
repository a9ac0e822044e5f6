/**
 * @file
 * Tests for IceBreaker's core: the utility score (Eq. 1), the PDM
 * (cut-offs, dynamic adjustment, ping-pong and large-memory
 * safeguards) and the assembled IceBreaker policy.
 */

#include <gtest/gtest.h>

#include "core/icebreaker.hh"
#include "core/pdm.hh"
#include "core/utility_score.hh"
#include "harness/experiment.hh"

namespace
{

using namespace iceb;
using namespace iceb::core;

// ---------------------------------------------------------- UtilityScore

TEST(UtilityScoreTest, EmptyInput)
{
    EXPECT_TRUE(computeUtilityScores({}).empty());
}

TEST(UtilityScoreTest, SingleCandidateIsNeutral)
{
    UtilityComponents c;
    c.fn = 3;
    c.true_negative = 0.9;
    c.false_positive = 0.1;
    c.speedup = 0.5;
    c.memory = 0.2;
    const auto scores = computeUtilityScores({c});
    ASSERT_EQ(scores.size(), 1u);
    EXPECT_EQ(scores[0].fn, 3u);
    // All four constant columns normalise to 0.5 -> S_u = 0.5.
    EXPECT_DOUBLE_EQ(scores[0].score, 0.5);
}

TEST(UtilityScoreTest, Equation1Directionality)
{
    // Candidate A: many missed cold starts, few wasted warm-ups, big
    // high-end speedup, small memory -> must outrank candidate B with
    // the opposite profile.
    UtilityComponents a;
    a.fn = 0;
    a.true_negative = 0.8;
    a.false_positive = 0.1;
    a.speedup = 0.3; // high-end much faster
    a.memory = 0.05;
    UtilityComponents b;
    b.fn = 1;
    b.true_negative = 0.1;
    b.false_positive = 0.9;
    b.speedup = 0.95;
    b.memory = 0.8;
    const auto scores = computeUtilityScores({a, b});
    EXPECT_GT(scores[0].score, scores[1].score);
    // With full min-max spread the extremes hit 1 and 0.
    EXPECT_DOUBLE_EQ(scores[0].score, 1.0);
    EXPECT_DOUBLE_EQ(scores[1].score, 0.0);
}

TEST(UtilityScoreTest, ScoresStayInUnitInterval)
{
    std::vector<UtilityComponents> candidates;
    for (int i = 0; i < 20; ++i) {
        UtilityComponents c;
        c.fn = static_cast<FunctionId>(i);
        c.true_negative = 0.05 * i;
        c.false_positive = 2.0 - 0.1 * i; // exceeds 1 pre-normalise
        c.speedup = 0.3 + 0.03 * i;
        c.memory = 0.01 * i;
        candidates.push_back(c);
    }
    for (const auto &score : computeUtilityScores(candidates)) {
        EXPECT_GE(score.score, 0.0);
        EXPECT_LE(score.score, 1.0);
    }
}

TEST(UtilityScoreTest, OutputOrderMatchesInput)
{
    UtilityComponents a, b;
    a.fn = 7;
    b.fn = 2;
    const auto scores = computeUtilityScores({a, b});
    EXPECT_EQ(scores[0].fn, 7u);
    EXPECT_EQ(scores[1].fn, 2u);
}

// -------------------------------------------------------------------- PDM

PdmConfig
staticConfig()
{
    PdmConfig config;
    config.enable_dynamic_cutoffs = false;
    config.enable_ping_pong_guard = false;
    config.enable_large_memory_guard = false;
    return config;
}

TEST(PdmTest, BaseCutoffsSplitTargets)
{
    Pdm pdm(3, staticConfig());
    EXPECT_EQ(pdm.decide(0, {0, 0.9}), WarmTarget::HighEnd);
    EXPECT_EQ(pdm.decide(0, {1, 0.5}), WarmTarget::LowEnd);
    EXPECT_EQ(pdm.decide(0, {2, 0.1}), WarmTarget::None);
}

TEST(PdmTest, DynamicCutoffsFollowVacancy)
{
    PdmConfig config;
    config.enable_ping_pong_guard = false;
    config.enable_large_memory_guard = false;
    Pdm pdm(1, config);

    // Both tiers full: base cut-offs.
    pdm.updateCutoffs(0.0, 0.0);
    EXPECT_NEAR(pdm.highCutoff(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(pdm.lowCutoff(), 1.0 / 3.0, 1e-12);

    // Vacant high-end pulls its cut-off down so it attracts warm-ups.
    pdm.updateCutoffs(0.8, 0.0);
    EXPECT_LT(pdm.highCutoff(), 2.0 / 3.0);

    // Vacant low-end pulls the low cut-off down (fewer "no warm-up").
    pdm.updateCutoffs(0.0, 0.8);
    EXPECT_LT(pdm.lowCutoff(), 1.0 / 3.0);

    // Cut-offs never cross.
    pdm.updateCutoffs(1.0, 1.0);
    EXPECT_LT(pdm.lowCutoff(), pdm.highCutoff());
}

TEST(PdmTest, PingPongGuardFreezesSmallChanges)
{
    PdmConfig config;
    config.enable_dynamic_cutoffs = false;
    config.enable_large_memory_guard = false;
    Pdm pdm(1, config);

    // Establish a high-end placement just above the cut-off.
    EXPECT_EQ(pdm.decide(0, {0, 0.68}), WarmTarget::HighEnd);
    // Drop just below the cut-off by < 10%: the flip is suppressed.
    EXPECT_EQ(pdm.decide(1, {0, 0.64}), WarmTarget::HighEnd);
    // A > 10% move is allowed through.
    EXPECT_EQ(pdm.decide(2, {0, 0.40}), WarmTarget::LowEnd);
}

TEST(PdmTest, PingPongGuardDoesNotBlockNoneTransitions)
{
    PdmConfig config;
    config.enable_dynamic_cutoffs = false;
    config.enable_large_memory_guard = false;
    Pdm pdm(1, config);
    EXPECT_EQ(pdm.decide(0, {0, 0.35}), WarmTarget::LowEnd);
    // Dropping below the low cut-off is not a High<->Low flip.
    EXPECT_EQ(pdm.decide(1, {0, 0.32}), WarmTarget::None);
}

TEST(PdmTest, PingPongAnchorReleasesAtWindowEnd)
{
    PdmConfig config;
    config.enable_dynamic_cutoffs = false;
    config.enable_large_memory_guard = false;
    config.window = 5;
    Pdm pdm(1, config);
    EXPECT_EQ(pdm.decide(0, {0, 0.68}), WarmTarget::HighEnd);
    EXPECT_EQ(pdm.decide(1, {0, 0.64}), WarmTarget::HighEnd);
    // After the window rolls, the same score places on its own merit.
    EXPECT_EQ(pdm.decide(6, {0, 0.64}), WarmTarget::LowEnd);
}

TEST(PdmTest, LargeMemoryGuardPromotesToHighEnd)
{
    PdmConfig config;
    config.enable_dynamic_cutoffs = false;
    config.enable_ping_pong_guard = false;
    config.window = 4;
    Pdm pdm(1, config);
    pdm.setMemoryRatios({0.8}); // above the 0.5 threshold

    // First window: warmed only on low-end.
    EXPECT_EQ(pdm.decide(0, {0, 0.5}), WarmTarget::LowEnd);
    pdm.noteWarmed(0, Tier::LowEnd);
    // Next window: the same mid score is promoted to high-end.
    EXPECT_EQ(pdm.decide(4, {0, 0.5}), WarmTarget::HighEnd);
}

TEST(PdmTest, LargeMemoryGuardSkipsSmallFunctions)
{
    PdmConfig config;
    config.enable_dynamic_cutoffs = false;
    config.enable_ping_pong_guard = false;
    config.window = 4;
    Pdm pdm(1, config);
    pdm.setMemoryRatios({0.1});
    EXPECT_EQ(pdm.decide(0, {0, 0.5}), WarmTarget::LowEnd);
    pdm.noteWarmed(0, Tier::LowEnd);
    EXPECT_EQ(pdm.decide(4, {0, 0.5}), WarmTarget::LowEnd);
}

TEST(PdmTest, LargeMemoryGuardClearsAfterHighEndWarm)
{
    PdmConfig config;
    config.enable_dynamic_cutoffs = false;
    config.enable_ping_pong_guard = false;
    config.window = 4;
    Pdm pdm(1, config);
    pdm.setMemoryRatios({0.8});
    pdm.decide(0, {0, 0.5});
    pdm.noteWarmed(0, Tier::LowEnd);
    pdm.noteWarmed(0, Tier::HighEnd); // it did reach high-end
    EXPECT_EQ(pdm.decide(4, {0, 0.5}), WarmTarget::LowEnd);
}

// ------------------------------------------------------------ IceBreaker

TEST(IceBreakerTest, EndToEndBeatsBaselineOnFriendlyTrace)
{
    trace::SyntheticConfig config;
    config.num_functions = 120;
    config.num_intervals = 600;
    const harness::Workload workload = harness::makeWorkload(config);
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();

    const auto base = harness::runScheme(harness::Scheme::OpenWhisk,
                                         workload, cluster);
    const auto ib = harness::runScheme(harness::Scheme::IceBreaker,
                                       workload, cluster);

    // The headline property: cheaper keep-alive AND faster service.
    EXPECT_LT(ib.metrics.totalKeepAliveCost(),
              base.metrics.totalKeepAliveCost());
    EXPECT_LT(ib.metrics.meanServiceMs(), base.metrics.meanServiceMs());
    EXPECT_GT(ib.metrics.warmStartFraction(),
              base.metrics.warmStartFraction());
}

TEST(IceBreakerTest, UsesBothTiers)
{
    trace::SyntheticConfig config;
    config.num_functions = 150;
    config.num_intervals = 400;
    const harness::Workload workload = harness::makeWorkload(config);
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();
    const auto result = harness::runScheme(harness::Scheme::IceBreaker,
                                           workload, cluster);
    EXPECT_GT(result.metrics.service_times_high_ms.size(), 0u);
    EXPECT_GT(result.metrics.service_times_low_ms.size(), 0u);
    // Keep-alive spend lands on both tiers too.
    EXPECT_GT(result.metrics.tierKeepAlive(Tier::HighEnd).totalCost(),
              0.0);
    EXPECT_GT(result.metrics.tierKeepAlive(Tier::LowEnd).totalCost(),
              0.0);
}

TEST(IceBreakerTest, KeepAliveExtensionsFollowPredictedGap)
{
    // White-box: with no prediction state the keep-alive runs to the
    // next boundary plus grace only.
    trace::Trace tr(10, 60'000);
    trace::FunctionSeries fn;
    fn.name = "f";
    fn.memory_mb = 128;
    fn.avg_exec_ms = 500;
    fn.concurrency.assign(10, 0);
    tr.addFunction(fn);
    workload::FunctionProfile profile;
    profile.name = "p";
    profile.memory_mb = 128;
    profile.cold_start_ms = {500, 500};
    profile.exec_ms = {400, 800};
    std::vector<workload::FunctionProfile> profiles{profile};
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();

    core::IceBreakerPolicy policy;
    sim::SimContext ctx;
    ctx.num_functions = tr.numFunctions();
    ctx.profiles = &profiles;
    ctx.cluster = &cluster;
    ctx.interval_ms = 60'000;
    policy.initialize(ctx);
    const TimeMs ka =
        policy.keepAliveAfterExecutionMs(0, Tier::HighEnd, 30'000);
    EXPECT_GE(ka, 30'000);
    EXPECT_LE(ka, 32'000);
}

} // namespace

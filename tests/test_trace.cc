/**
 * @file
 * Tests for the trace substrate: container types, the synthetic
 * generator's statistical properties, the Azure CSV loader, and the
 * trace characterisation used by Fig. 5.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "trace/azure_loader.hh"
#include "trace/synthetic.hh"
#include "trace/trace.hh"
#include "trace/trace_stats.hh"

namespace
{

using namespace iceb;
using namespace iceb::trace;

FunctionSeries
makeSeries(std::vector<std::uint32_t> counts)
{
    FunctionSeries series;
    series.name = "t";
    series.memory_mb = 128;
    series.avg_exec_ms = 500;
    series.concurrency = std::move(counts);
    return series;
}

// ----------------------------------------------------------------- Trace

TEST(TraceTest, AddFunctionAssignsDenseIds)
{
    Trace trace(4, 60'000);
    const FunctionId a = trace.addFunction(makeSeries({0, 1, 2, 0}));
    const FunctionId b = trace.addFunction(makeSeries({1, 0, 0, 1}));
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(trace.numFunctions(), 2u);
    EXPECT_EQ(trace.function(a).id, a);
}

TEST(TraceTest, TotalsAndHorizon)
{
    Trace trace(4, 60'000);
    trace.addFunction(makeSeries({0, 1, 2, 0}));
    trace.addFunction(makeSeries({1, 0, 0, 1}));
    EXPECT_EQ(trace.totalInvocations(), 5u);
    EXPECT_EQ(trace.horizonMs(), 240'000);
    EXPECT_EQ(trace.intervalMs(), 60'000);
}

TEST(TraceTest, SeriesAccessors)
{
    const FunctionSeries s = makeSeries({0, 3, 0, 2});
    EXPECT_EQ(s.totalInvocations(), 5u);
    EXPECT_EQ(s.activeIntervals(), 2u);
    EXPECT_EQ(s.at(1), 3u);
    EXPECT_EQ(s.at(-1), 0u);
    EXPECT_EQ(s.at(99), 0u);
}

TEST(TraceDeathTest, MismatchedSeriesLengthPanics)
{
    Trace trace(4, 60'000);
    EXPECT_DEATH(trace.addFunction(makeSeries({1, 2})), "length");
}

TEST(TraceTest, ClassNames)
{
    EXPECT_STREQ(functionClassName(FunctionClass::Periodic), "periodic");
    EXPECT_STREQ(functionClassName(FunctionClass::Infrequent),
                 "infrequent");
    EXPECT_STREQ(functionClassName(FunctionClass::Random), "random");
}

// ------------------------------------------------------------- Synthetic

TEST(SyntheticTest, GeneratesRequestedGeometry)
{
    SyntheticConfig config;
    config.num_functions = 30;
    config.num_intervals = 200;
    const Trace trace = SyntheticTraceGenerator(config).generate();
    EXPECT_EQ(trace.numFunctions(), 30u);
    EXPECT_EQ(trace.numIntervals(), 200u);
    for (const auto &fn : trace.functions()) {
        EXPECT_EQ(fn.concurrency.size(), 200u);
        EXPECT_GT(fn.memory_mb, 0);
        EXPECT_GT(fn.avg_exec_ms, 0);
    }
}

TEST(SyntheticTest, DeterministicForSameSeed)
{
    SyntheticConfig config;
    config.num_functions = 20;
    config.num_intervals = 150;
    const Trace a = SyntheticTraceGenerator(config).generate();
    const Trace b = SyntheticTraceGenerator(config).generate();
    ASSERT_EQ(a.numFunctions(), b.numFunctions());
    for (FunctionId fn = 0; fn < a.numFunctions(); ++fn)
        EXPECT_EQ(a.function(fn).concurrency,
                  b.function(fn).concurrency);
}

TEST(SyntheticTest, DifferentSeedsDiffer)
{
    SyntheticConfig config;
    config.num_functions = 10;
    config.num_intervals = 100;
    const Trace a = SyntheticTraceGenerator(config).generate();
    config.seed += 1;
    const Trace b = SyntheticTraceGenerator(config).generate();
    bool any_diff = false;
    for (FunctionId fn = 0; fn < a.numFunctions(); ++fn)
        if (a.function(fn).concurrency != b.function(fn).concurrency)
            any_diff = true;
    EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, ClassMixMatchesConfig)
{
    SyntheticConfig config;
    config.num_functions = 200;
    config.num_intervals = 100;
    const Trace trace = SyntheticTraceGenerator(config).generate();
    std::size_t infrequent = 0;
    std::size_t random = 0;
    for (const auto &fn : trace.functions()) {
        if (fn.cls == FunctionClass::Infrequent)
            ++infrequent;
        if (fn.cls == FunctionClass::Random)
            ++random;
    }
    EXPECT_EQ(infrequent,
              static_cast<std::size_t>(200 * config.frac_infrequent + 0.5));
    EXPECT_EQ(random,
              static_cast<std::size_t>(200 * config.frac_random + 0.5));
}

TEST(SyntheticTest, InfrequentFunctionsAreSparse)
{
    SyntheticConfig config;
    config.num_functions = 60;
    config.num_intervals = 2880; // two days
    const Trace trace = SyntheticTraceGenerator(config).generate();
    for (const auto &fn : trace.functions()) {
        if (fn.cls != FunctionClass::Infrequent)
            continue;
        EXPECT_LE(fn.totalInvocations(), 4u);
        EXPECT_GE(fn.totalInvocations(), 1u);
    }
}

TEST(SyntheticTest, SingleSeriesGeneration)
{
    SyntheticConfig config;
    config.num_intervals = 300;
    const SyntheticTraceGenerator gen(config);
    const FunctionSeries s =
        gen.generateSeries(FunctionClass::PeriodShift, 7);
    EXPECT_EQ(s.cls, FunctionClass::PeriodShift);
    EXPECT_EQ(s.concurrency.size(), 300u);
    EXPECT_GT(s.totalInvocations(), 0u);
}

TEST(SyntheticTest, BurstTrainEvaluation)
{
    BurstTrain train;
    train.period = 10.0;
    train.phase = 0.0;
    train.burst_len = 1;
    train.amplitude = 4.0;
    train.mod_depth = 0.0;
    // Active exactly at multiples of the period.
    EXPECT_GT(evaluateBurstTrain(train, 0.0), 3.9);
    EXPECT_DOUBLE_EQ(evaluateBurstTrain(train, 5.0), 0.0);
    EXPECT_GT(evaluateBurstTrain(train, 20.0), 3.9);
}

TEST(SyntheticTest, BurstTrainHumpShape)
{
    BurstTrain train;
    train.period = 20.0;
    train.phase = 0.0;
    train.burst_len = 6;
    train.amplitude = 10.0;
    train.mod_depth = 0.0;
    // Rises toward the middle of the burst, falls at the edges.
    const double edge = evaluateBurstTrain(train, 0.0);
    const double mid = evaluateBurstTrain(train, 2.5);
    EXPECT_GT(mid, edge);
    EXPECT_GT(mid, 8.0);
    EXPECT_DOUBLE_EQ(evaluateBurstTrain(train, 7.0), 0.0);
}

TEST(SyntheticTest, PeriodSwitchSignalChangesPeriod)
{
    const std::vector<double> signal =
        makePeriodSwitchSignal(200, 10.0, 20.0, 100, 5.0, 3.0);
    ASSERT_EQ(signal.size(), 200u);
    // All values within [level - amp, level + amp].
    for (double v : signal) {
        EXPECT_GE(v, 2.0 - 1e-9);
        EXPECT_LE(v, 8.0 + 1e-9);
    }
}

TEST(SyntheticDeathTest, OverfullClassMixIsFatal)
{
    SyntheticConfig config;
    config.frac_multi_harmonic = 0.9;
    config.frac_infrequent = 0.9;
    EXPECT_EXIT(SyntheticTraceGenerator{config},
                ::testing::ExitedWithCode(1), "fractions");
}

// Byte-identity lockdown for batched generation: an FNV-1a digest of
// every generated function's name, class, hints and counts. The
// constant was captured from the serial generator that preceded
// batching; the series evaluate exp/log/cos/sin, so it assumes glibc's
// libm.

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value, int bytes)
{
    for (int byte = 0; byte < bytes; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
hashSeries(std::uint64_t hash, const FunctionSeries &fn)
{
    for (const char c : fn.name)
        hash = fnv1a(hash, static_cast<unsigned char>(c), 1);
    hash = fnv1a(hash, static_cast<std::uint64_t>(fn.cls), 1);
    hash = fnv1a(hash, static_cast<std::uint64_t>(fn.memory_mb), 8);
    hash = fnv1a(hash, static_cast<std::uint64_t>(fn.avg_exec_ms), 8);
    for (const std::uint32_t count : fn.concurrency)
        hash = fnv1a(hash, count, 4);
    return hash;
}

/** Azure-scale day sized to three full generation batches plus a
 * remainder. */
SyntheticConfig
multiBatchConfig()
{
    return azureScaleConfig(7000, 1440);
}

TEST(SyntheticTest, BatchedGenerationMatchesPinnedDigest)
{
    const SyntheticTraceGenerator gen(multiBatchConfig());
    const std::size_t batch = gen.batchFunctions();
    EXPECT_EQ(batch, 2048u);
    EXPECT_GT(gen.config().num_functions, 3 * batch);
    EXPECT_NE(gen.config().num_functions % batch, 0u);

    const Trace trace = gen.generate();
    ASSERT_EQ(trace.numFunctions(), gen.config().num_functions);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const FunctionSeries &fn : trace.functions())
        hash = hashSeries(hash, fn);
    EXPECT_EQ(hash, 0xd3ad8bbef1429464ull);
}

TEST(SyntheticTest, RowStreamMatchesGenerateAcrossBatches)
{
    const SyntheticConfig config = multiBatchConfig();
    const Trace trace = SyntheticTraceGenerator(config).generate();
    SyntheticRowStream rows(config);
    EXPECT_EQ(rows.intervalMs(), trace.intervalMs());

    FunctionRow row;
    std::size_t seen = 0;
    while (rows.next(row)) {
        ASSERT_LT(seen, trace.numFunctions());
        const FunctionSeries &fn =
            trace.function(static_cast<FunctionId>(seen));
        ASSERT_EQ(row.id, seen);
        EXPECT_EQ(row.name, fn.name);
        EXPECT_EQ(row.cls, fn.cls);
        EXPECT_EQ(row.memory_mb, fn.memory_mb);
        EXPECT_EQ(row.avg_exec_ms, fn.avg_exec_ms);
        ASSERT_EQ(row.num_intervals, fn.concurrency.size());
        EXPECT_TRUE(std::equal(row.counts, row.counts + row.num_intervals,
                               fn.concurrency.begin()))
            << "function " << seen;
        ++seen;
    }
    EXPECT_EQ(seen, trace.numFunctions());
    EXPECT_FALSE(rows.next(row));
}

/** Every class generates non-degenerate series. */
class SyntheticClassTest
    : public ::testing::TestWithParam<FunctionClass>
{
};

TEST_P(SyntheticClassTest, SeriesHasInvocationsAndCorrectClass)
{
    SyntheticConfig config;
    config.num_intervals = 1440;
    const SyntheticTraceGenerator gen(config);
    const FunctionSeries s = gen.generateSeries(GetParam(), 11);
    EXPECT_EQ(s.cls, GetParam());
    EXPECT_GT(s.totalInvocations(), 0u);
    EXPECT_LT(s.activeIntervals(), s.concurrency.size());
}

INSTANTIATE_TEST_SUITE_P(
    Classes, SyntheticClassTest,
    ::testing::Values(FunctionClass::Periodic,
                      FunctionClass::MultiHarmonic,
                      FunctionClass::PeriodShift, FunctionClass::Spiky,
                      FunctionClass::Infrequent, FunctionClass::Random));

// ---------------------------------------------------------- Azure loader

TEST(AzureLoaderTest, ParsesSchema)
{
    std::istringstream in(
        "name,memory_mb,avg_exec_ms,m1,m2,m3\n"
        "fnA,256,700,0,2,1\n"
        "fnB,512,1200,3,0,0\n");
    const Trace trace = loadAzureCsv(in);
    ASSERT_EQ(trace.numFunctions(), 2u);
    EXPECT_EQ(trace.numIntervals(), 3u);
    EXPECT_EQ(trace.function(0).name, "fnA");
    EXPECT_EQ(trace.function(0).memory_mb, 256);
    EXPECT_EQ(trace.function(0).avg_exec_ms, 700);
    EXPECT_EQ(trace.function(0).concurrency,
              (std::vector<std::uint32_t>{0, 2, 1}));
    EXPECT_EQ(trace.function(1).at(0), 3u);
}

TEST(AzureLoaderTest, MaxFunctionsCap)
{
    std::istringstream in(
        "name,memory_mb,avg_exec_ms,m1\n"
        "a,1,1,1\nb,1,1,1\nc,1,1,1\n");
    AzureLoadOptions options;
    options.max_functions = 2;
    const Trace trace = loadAzureCsv(in, options);
    EXPECT_EQ(trace.numFunctions(), 2u);
}

TEST(AzureLoaderTest, RoundTripThroughWriter)
{
    SyntheticConfig config;
    config.num_functions = 8;
    config.num_intervals = 60;
    const Trace original = SyntheticTraceGenerator(config).generate();
    std::ostringstream out;
    writeAzureCsv(out, original);
    std::istringstream in(out.str());
    const Trace loaded = loadAzureCsv(in);
    ASSERT_EQ(loaded.numFunctions(), original.numFunctions());
    for (FunctionId fn = 0; fn < loaded.numFunctions(); ++fn) {
        EXPECT_EQ(loaded.function(fn).concurrency,
                  original.function(fn).concurrency);
        EXPECT_EQ(loaded.function(fn).memory_mb,
                  original.function(fn).memory_mb);
    }
}

TEST(AzureLoaderTest, ParsesQuotedFieldsCrlfAndEmptyMetadata)
{
    // The quoted name holds a comma and an escaped quote; empty
    // memory and exec columns take the loader's defaults.
    std::istringstream in(
        "name,memory_mb,avg_exec_ms,m1,m2\r\n"
        "\"fn, \"\"A\"\"\",,,4,0\r\n"
        "fnB,256,,1,2\r\n");
    const AzureLoadOptions options;
    const Trace trace = loadAzureCsv(in, options);
    ASSERT_EQ(trace.numFunctions(), 2u);
    EXPECT_EQ(trace.numIntervals(), 2u);
    EXPECT_EQ(trace.function(0).name, "fn, \"A\"");
    EXPECT_EQ(trace.function(0).memory_mb, options.default_memory_mb);
    EXPECT_EQ(trace.function(0).avg_exec_ms, options.default_exec_ms);
    EXPECT_EQ(trace.function(0).concurrency,
              (std::vector<std::uint32_t>{4, 0}));
    EXPECT_EQ(trace.function(1).name, "fnB");
    EXPECT_EQ(trace.function(1).memory_mb, 256);
    EXPECT_EQ(trace.function(1).avg_exec_ms, options.default_exec_ms);
    EXPECT_EQ(trace.function(1).concurrency,
              (std::vector<std::uint32_t>{1, 2}));
}

TEST(AzureLoaderTest, RoundTripsNameThatNeedsQuoting)
{
    Trace original(3, 60'000);
    FunctionSeries series = makeSeries({0, 3, 1});
    series.name = "app \"x\", handler";
    original.addFunction(std::move(series));
    std::ostringstream out;
    writeAzureCsv(out, original);
    std::istringstream in(out.str());
    const Trace loaded = loadAzureCsv(in);
    ASSERT_EQ(loaded.numFunctions(), 1u);
    EXPECT_EQ(loaded.function(0).name, "app \"x\", handler");
    EXPECT_EQ(loaded.function(0).memory_mb, 128);
    EXPECT_EQ(loaded.function(0).avg_exec_ms, 500);
    EXPECT_EQ(loaded.function(0).concurrency,
              original.function(0).concurrency);
}

TEST(AzureLoaderDeathTest, RejectsMalformedRows)
{
    std::istringstream in(
        "name,memory_mb,avg_exec_ms,m1,m2\n"
        "a,1,1,1,2\n"
        "b,1,1,1\n"); // second row is one minute column short
    EXPECT_EXIT(loadAzureCsv(in), ::testing::ExitedWithCode(1),
                "minute columns");
}

TEST(AzureLoaderDeathTest, RejectsNegativeCounts)
{
    std::istringstream in(
        "name,memory_mb,avg_exec_ms,m1\n"
        "a,1,1,-4\n");
    EXPECT_EXIT(loadAzureCsv(in), ::testing::ExitedWithCode(1),
                "negative");
    // Counts are 32-bit: one past the largest is refused rather than
    // wrapped to 0, and the largest itself loads.
    std::istringstream wide(
        "name,memory_mb,avg_exec_ms,m1\n"
        "a,1,1,4294967296\n");
    EXPECT_EXIT(loadAzureCsv(wide), ::testing::ExitedWithCode(1),
                "line 2, column 4: invocation count 4294967296 above");
    std::istringstream largest(
        "name,memory_mb,avg_exec_ms,m1\n"
        "a,1,1,4294967295\n");
    EXPECT_EQ(loadAzureCsv(largest).function(0).concurrency[0],
              4294967295u);
    // The memory and exec-time metadata are refused the same way; 0
    // still loads, meaning "unknown".
    std::istringstream memory(
        "name,memory_mb,avg_exec_ms,m1,m2\n"
        "a,-512,-3,1,2\n");
    EXPECT_EXIT(loadAzureCsv(memory), ::testing::ExitedWithCode(1),
                "line 2, column 2: negative memory column value");
    std::istringstream exec(
        "name,memory_mb,avg_exec_ms,m1\n"
        "a,128,-3,1\n");
    EXPECT_EXIT(loadAzureCsv(exec), ::testing::ExitedWithCode(1),
                "line 2, column 3: negative exec-time column value");
    std::istringstream unknown(
        "name,memory_mb,avg_exec_ms,m1\n"
        "a,0,0,1\n");
    const Trace trace = loadAzureCsv(unknown);
    EXPECT_EQ(trace.function(0).memory_mb, 0);
    EXPECT_EQ(trace.function(0).avg_exec_ms, 0);
}

// ------------------------------------------------------------ TraceStats

TEST(TraceStatsTest, PeriodicCensusFindsStructure)
{
    SyntheticConfig config;
    config.num_functions = 120;
    config.num_intervals = 720;
    const Trace trace = SyntheticTraceGenerator(config).generate();
    const TraceCharacter character = characterizeTrace(trace);
    // The generator plants ~88% structurally periodic functions; the
    // census should find most of them, and the bulk should have
    // fewer than ten significant harmonics (paper Fig. 5b; sharp
    // single-minute pulse trains legitimately exceed ten).
    EXPECT_GT(character.fraction_periodic, 0.6);
    EXPECT_GT(character.fraction_under_ten, 0.3);
    EXPECT_GT(character.fraction_multi_harmonic, 0.2);
    EXPECT_EQ(character.functions.size(), trace.numFunctions());
}

TEST(TraceStatsTest, InterArrivalGaps)
{
    const FunctionSeries s = makeSeries({1, 0, 0, 2, 1, 0, 1});
    const std::vector<double> gaps = interArrivalIntervals(s);
    EXPECT_EQ(gaps, (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST(TraceStatsTest, NoArrivalsNoGaps)
{
    const FunctionSeries s = makeSeries({0, 0, 0});
    EXPECT_TRUE(interArrivalIntervals(s).empty());
}

} // namespace

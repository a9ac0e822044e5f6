/**
 * @file
 * Tests for the common substrate: units, CSV, table printing,
 * logging levels, core types and the task executor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/csv.hh"
#include "common/executor.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace
{

using namespace iceb;

// ----------------------------------------------------------------- Types

TEST(TypesTest, TierHelpers)
{
    EXPECT_EQ(tierIndex(Tier::HighEnd), 0);
    EXPECT_EQ(tierIndex(Tier::LowEnd), 1);
    EXPECT_EQ(otherTier(Tier::HighEnd), Tier::LowEnd);
    EXPECT_EQ(otherTier(Tier::LowEnd), Tier::HighEnd);
    EXPECT_STREQ(tierName(Tier::HighEnd), "high-end");
    EXPECT_STREQ(tierName(Tier::LowEnd), "low-end");
}

// ----------------------------------------------------------------- Units

TEST(UnitsTest, TimeConversions)
{
    EXPECT_EQ(secondsToMs(2.5), 2500);
    EXPECT_EQ(secondsToMs(0.0015), 2); // rounds
    EXPECT_DOUBLE_EQ(msToSeconds(1500), 1.5);
    EXPECT_EQ(minutesToMs(10), 600'000);
    EXPECT_EQ(gbToMb(2.0), 2048);
}

TEST(UnitsTest, KeepAliveCostMatchesHandComputation)
{
    // 1 GB held for 1 hour at $0.01475/GB/h must cost $0.01475.
    const double rate = dollarsPerGbHourToMbMs(0.01475);
    const Dollars cost = keepAliveCost(kMbPerGb, kMsPerHour, rate);
    EXPECT_NEAR(cost, 0.01475, 1e-12);
}

TEST(UnitsTest, KeepAliveCostScalesLinearly)
{
    const double rate = dollarsPerGbHourToMbMs(0.0084);
    const Dollars one = keepAliveCost(512, 60'000, rate);
    EXPECT_NEAR(keepAliveCost(1024, 60'000, rate), 2.0 * one, 1e-15);
    EXPECT_NEAR(keepAliveCost(512, 120'000, rate), 2.0 * one, 1e-15);
}

// ------------------------------------------------------------------- CSV

TEST(CsvTest, WriterQuotesOnlyWhenNeeded)
{
    std::ostringstream out;
    CsvWriter writer(out);
    writer.writeRow({"plain", "with,comma", "with\"quote"});
    EXPECT_EQ(out.str(),
              "plain,\"with,comma\",\"with\"\"quote\"\n");
}

// ----------------------------------------------------------------- Table

TEST(TableTest, AlignsColumns)
{
    TextTable table("T");
    table.setHeader({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"long-name", "22"});
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("| name      | value |"), std::string::npos);
    EXPECT_NE(text.find("| long-name | 22    |"), std::string::npos);
    EXPECT_NE(text.find("T\n"), std::string::npos);
}

TEST(TableTest, PadsShortRows)
{
    TextTable table;
    table.setHeader({"a", "b", "c"});
    table.addRow({"1"});
    std::ostringstream out;
    table.print(out);
    EXPECT_NE(out.str().find("| 1 |   |   |"), std::string::npos);
}

TEST(TableTest, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
    EXPECT_EQ(TextTable::pct(0.4567), "45.7%");
    EXPECT_EQ(TextTable::pct(-0.05, 0), "-5%");
}

TEST(TableTest, EmptyTablePrintsNothing)
{
    TextTable table;
    std::ostringstream out;
    table.print(out);
    EXPECT_TRUE(out.str().empty());
}

// --------------------------------------------------------------- Logging

TEST(LoggingTest, LevelGate)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(before);
}

TEST(LoggingTest, AssertPassesOnTrue)
{
    EXPECT_NO_FATAL_FAILURE(ICEB_ASSERT(1 + 1 == 2, "fine"));
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(iceb::panic("boom ", 42), "panic: boom 42");
}

TEST(LoggingDeathTest, FatalExits)
{
    EXPECT_EXIT(iceb::fatal("bad config"),
                ::testing::ExitedWithCode(1), "fatal: bad config");
}

TEST(LoggingDeathTest, AssertAbortsOnFalse)
{
    EXPECT_DEATH(ICEB_ASSERT(false, "broken"), "assertion failed");
}

// -------------------------------------------------------------- Executor

TEST(TaskExecutorTest, ResultsIndependentOfWorkerCount)
{
    const auto run = [](std::size_t workers) {
        std::vector<std::uint64_t> out(37);
        TaskExecutor::shared().run(out.size(), workers, [&](std::size_t i) {
            std::uint64_t state = i;
            for (int step = 0; step < 1000; ++step)
                splitMix64(state);
            out[i] = splitMix64(state);
        });
        return out;
    };
    const std::vector<std::uint64_t> one = run(1);
    EXPECT_EQ(run(2), one);
    EXPECT_EQ(run(4), one);
}

TEST(TaskExecutorTest, TaskIRunsOnWorkerIModT)
{
    const std::size_t workers = 3;
    const auto threads_of = [](std::size_t width) {
        std::vector<std::thread::id> ids(10);
        TaskExecutor::shared().run(ids.size(), width, [&](std::size_t i) {
            ids[i] = std::this_thread::get_id();
        });
        return ids;
    };
    const std::vector<std::thread::id> first = threads_of(workers);
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i], first[i % workers]) << "task " << i;
    for (std::size_t a = 0; a < workers; ++a) {
        EXPECT_NE(first[a], std::this_thread::get_id());
        for (std::size_t b = a + 1; b < workers; ++b)
            EXPECT_NE(first[a], first[b]);
    }
    // A narrower call runs on the first workers only, and the worker
    // it left out still takes part in the next wide call.
    const std::vector<std::thread::id> narrow = threads_of(2);
    for (std::size_t i = 0; i < narrow.size(); ++i)
        EXPECT_EQ(narrow[i], first[i % 2]) << "task " << i;
    // Workers persist: the next call replays on the same threads.
    EXPECT_EQ(threads_of(workers), first);
}

TEST(TaskExecutorTest, TaskExceptionReachesCaller)
{
    std::vector<int> ran(8, 0);
    EXPECT_THROW(TaskExecutor::shared().run(ran.size(), 4,
                                            [&](std::size_t i) {
                                                if (i == 5)
                                                    throw std::runtime_error(
                                                        "task failed");
                                                ran[i] = 1;
                                            }),
                 std::runtime_error);
    // Worker 1 stopped at task 5; every other task ran.
    EXPECT_EQ(ran, (std::vector<int>{1, 1, 1, 1, 1, 0, 1, 1}));
    // The executor stays usable.
    TaskExecutor::shared().run(ran.size(), 4,
                               [&](std::size_t i) { ran[i] = 2; });
    EXPECT_EQ(ran, std::vector<int>(8, 2));
}

/**
 * Spin until @p flag is set or ten seconds pass; returns the flag.
 * Bounded so a test that expects sharing fails instead of hanging
 * when nothing else is running the task that sets it.
 */
bool
awaitFlag(const std::atomic<bool> &flag)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    return flag.load();
}

TEST(TaskExecutorTest, NestedCallSharesIdleWorkers)
{
    // Outer task 1 returns at once, so its worker parks while outer
    // task 0 issues a nested call whose participant 0 waits for
    // participant 1 to start. Only a parked worker claiming
    // participant 1 can start it: run inline, participant 0 would
    // wait out its bound first.
    std::atomic<bool> started{false};
    bool saw_start = false;
    std::thread::id caller;
    std::thread::id first;
    std::thread::id second;
    TaskExecutor::shared().run(2, 2, [&](std::size_t i) {
        if (i == 1)
            return;
        caller = std::this_thread::get_id();
        TaskExecutor::shared().run(2, 2, [&](std::size_t j) {
            if (j == 1) {
                second = std::this_thread::get_id();
                started.store(true);
                return;
            }
            first = std::this_thread::get_id();
            saw_start = awaitFlag(started);
        });
    });
    EXPECT_TRUE(saw_start);
    EXPECT_EQ(first, caller);
    EXPECT_NE(second, caller);
}

TEST(TaskExecutorTest, NestedCallsFinishWhenEveryWorkerIsBusy)
{
    // Every task of a pool-wide outer call issues a nested call, so a
    // nested call may find no worker parked and run every participant
    // on its caller. Either way participant 0 runs on the caller and
    // each participant's tasks run on one thread, in ascending order.
    const std::size_t outer = std::max<std::size_t>(
        4, std::thread::hardware_concurrency());
    const std::size_t inner = 11;
    const std::size_t width = 3;
    struct Slot
    {
        std::thread::id thread;
        std::size_t order = 0; //!< position within its participant
        std::uint64_t value = 0;
    };
    std::vector<std::thread::id> caller(outer);
    std::vector<std::vector<Slot>> slots(outer, std::vector<Slot>(inner));
    TaskExecutor::shared().run(outer, outer, [&](std::size_t i) {
        caller[i] = std::this_thread::get_id();
        std::vector<std::size_t> next_order(width, 0);
        TaskExecutor::shared().run(inner, width, [&](std::size_t j) {
            std::uint64_t state = i * inner + j;
            for (int step = 0; step < 2000; ++step)
                splitMix64(state);
            Slot &slot = slots[i][j];
            slot.thread = std::this_thread::get_id();
            slot.order = next_order[j % width]++;
            slot.value = splitMix64(state);
        });
    });
    for (std::size_t i = 0; i < outer; ++i) {
        for (std::size_t j = 0; j < inner; ++j) {
            const Slot &slot = slots[i][j];
            std::uint64_t state = i * inner + j;
            for (int step = 0; step < 2000; ++step)
                splitMix64(state);
            EXPECT_EQ(slot.value, splitMix64(state))
                << "outer " << i << " inner " << j;
            EXPECT_EQ(slot.order, j / width)
                << "outer " << i << " inner " << j;
            EXPECT_EQ(slot.thread, slots[i][j % width].thread)
                << "outer " << i << " inner " << j;
        }
        EXPECT_EQ(slots[i][0].thread, caller[i]) << "outer " << i;
    }
}

TEST(TaskExecutorTest, NestedTaskExceptionReachesCaller)
{
    // Participant 1 throws on the worker that claimed it (participant
    // 0 waits until it has started there); the nested run() rethrows
    // in its caller once participant 0 is done.
    std::atomic<bool> started{false};
    bool caught = false;
    std::thread::id caller;
    std::thread::id thrower;
    std::vector<int> ran(6, 0);
    TaskExecutor::shared().run(2, 2, [&](std::size_t i) {
        if (i == 1)
            return;
        caller = std::this_thread::get_id();
        try {
            TaskExecutor::shared().run(
                ran.size(), 2, [&](std::size_t j) {
                    if (j == 1) {
                        thrower = std::this_thread::get_id();
                        started.store(true);
                        throw std::runtime_error("nested task failed");
                    }
                    if (j == 0)
                        awaitFlag(started);
                    ran[j] = 1;
                });
        } catch (const std::runtime_error &) {
            caught = true;
        }
    });
    EXPECT_TRUE(caught);
    EXPECT_NE(thrower, caller);
    // Participant 1 stopped at task 1; participant 0 ran all of its
    // tasks.
    EXPECT_EQ(ran, (std::vector<int>{1, 0, 1, 0, 1, 0}));

    // The executor stays usable, nested and outside.
    std::vector<std::vector<int>> again(2, std::vector<int>(6, 0));
    TaskExecutor::shared().run(2, 2, [&](std::size_t i) {
        TaskExecutor::shared().run(6, 2,
                                   [&](std::size_t j) { again[i][j] = 2; });
    });
    EXPECT_EQ(again, std::vector<std::vector<int>>(2, std::vector<int>(6, 2)));
}

} // namespace

/**
 * @file
 * Tests for the common substrate: units, CSV, table printing,
 * logging levels, core types and the task executor.
 */

#include <gtest/gtest.h>

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

TEST(CsvTest, ParsesSimpleRows)
{
    std::istringstream in("a,b,c\n1,2,3\n");
    CsvReader reader(in);
    auto header = reader.nextRow();
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ((*header)[0], "a");
    auto row = reader.nextRow();
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ((*row)[2], "3");
    EXPECT_FALSE(reader.nextRow().has_value());
    EXPECT_EQ(reader.rowsRead(), 2u);
}

TEST(CsvTest, HandlesQuotedFields)
{
    std::istringstream in("\"hello, world\",\"say \"\"hi\"\"\"\n");
    CsvReader reader(in);
    auto row = reader.nextRow();
    ASSERT_TRUE(row.has_value());
    ASSERT_EQ(row->size(), 2u);
    EXPECT_EQ((*row)[0], "hello, world");
    EXPECT_EQ((*row)[1], "say \"hi\"");
}

TEST(CsvTest, HandlesCrlfAndEmptyFields)
{
    std::istringstream in("a,,c\r\n");
    CsvReader reader(in);
    auto row = reader.nextRow();
    ASSERT_TRUE(row.has_value());
    ASSERT_EQ(row->size(), 3u);
    EXPECT_EQ((*row)[1], "");
    EXPECT_EQ((*row)[2], "c");
}

TEST(CsvTest, WriterQuotesOnlyWhenNeeded)
{
    std::ostringstream out;
    CsvWriter writer(out);
    writer.writeRow({"plain", "with,comma", "with\"quote"});
    EXPECT_EQ(out.str(),
              "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(CsvTest, RoundTrip)
{
    std::ostringstream out;
    CsvWriter writer(out);
    writer.writeRow({"x,y", "z", "\"q\""});
    std::istringstream in(out.str());
    CsvReader reader(in);
    auto row = reader.nextRow();
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ((*row)[0], "x,y");
    EXPECT_EQ((*row)[1], "z");
    EXPECT_EQ((*row)[2], "\"q\"");
}

TEST(CsvTest, NumericParsers)
{
    EXPECT_DOUBLE_EQ(csvToDouble("3.25", "test"), 3.25);
    EXPECT_EQ(csvToInt("-17", "test"), -17);
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
    const auto threads_of = [&] {
        std::vector<std::thread::id> ids(10);
        TaskExecutor::shared().run(ids.size(), workers, [&](std::size_t i) {
            ids[i] = std::this_thread::get_id();
        });
        return ids;
    };
    const std::vector<std::thread::id> first = threads_of();
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i], first[i % workers]) << "task " << i;
    for (std::size_t a = 0; a < workers; ++a) {
        EXPECT_NE(first[a], std::this_thread::get_id());
        for (std::size_t b = a + 1; b < workers; ++b)
            EXPECT_NE(first[a], first[b]);
    }
    // Workers persist: the next call replays on the same threads.
    EXPECT_EQ(threads_of(), first);
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

TEST(TaskExecutorTest, NestedCallRunsInline)
{
    const std::size_t outer = 4;
    const std::size_t inner = 5;
    std::vector<std::thread::id> outer_thread(outer);
    std::vector<std::vector<std::thread::id>> inner_thread(outer);
    std::vector<std::vector<std::size_t>> inner_order(outer);
    TaskExecutor::shared().run(outer, 4, [&](std::size_t i) {
        outer_thread[i] = std::this_thread::get_id();
        TaskExecutor::shared().run(inner, 4, [&](std::size_t j) {
            inner_thread[i].push_back(std::this_thread::get_id());
            inner_order[i].push_back(j);
        });
    });
    for (std::size_t i = 0; i < outer; ++i) {
        EXPECT_EQ(inner_order[i], (std::vector<std::size_t>{0, 1, 2, 3, 4}));
        for (const std::thread::id id : inner_thread[i])
            EXPECT_EQ(id, outer_thread[i]);
    }
}

} // namespace

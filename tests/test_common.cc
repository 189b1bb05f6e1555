/**
 * @file
 * Unit tests for the common substrate: RNG, stats, table printer,
 * BoundedQueue counter invariants.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "common/bounded_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table_printer.h"

namespace hgpcn
{
namespace
{

// ---------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(7);
    const auto first = a();
    a.reseed(7);
    EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const float v = rng.uniform(-2.5f, 4.0f);
        EXPECT_GE(v, -2.5f);
        EXPECT_LT(v, 4.0f);
    }
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng rng(13);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NormalHasZeroishMeanUnitishVariance)
{
    Rng rng(17);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / n;
    const double var = sum_sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

// ------------------------------------------------------------- StatSet

TEST(StatSet, MissingKeyReadsZero)
{
    StatSet s;
    EXPECT_EQ(s.get("nope"), 0u);
    EXPECT_FALSE(s.has("nope"));
}

TEST(StatSet, AddAccumulates)
{
    StatSet s;
    s.add("x");
    s.add("x", 4);
    EXPECT_EQ(s.get("x"), 5u);
    EXPECT_TRUE(s.has("x"));
}

TEST(StatSet, SetOverwrites)
{
    StatSet s;
    s.add("x", 10);
    s.set("x", 3);
    EXPECT_EQ(s.get("x"), 3u);
}

TEST(StatSet, MergeSumsCounterwise)
{
    StatSet a, b;
    a.add("x", 1);
    a.add("y", 2);
    b.add("y", 3);
    b.add("z", 4);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 1u);
    EXPECT_EQ(a.get("y"), 5u);
    EXPECT_EQ(a.get("z"), 4u);
}

TEST(StatSet, ClearDropsEverything)
{
    StatSet s;
    s.add("x", 2);
    s.clear();
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.get("x"), 0u);
}

TEST(StatSet, ToStringListsSortedCounters)
{
    StatSet s;
    s.add("b", 2);
    s.add("a", 1);
    EXPECT_EQ(s.toString(), "a=1\nb=2\n");
}

// ---------------------------------------------- ConcurrentStatSet

TEST(ConcurrentStatSet, ParallelMergesSum)
{
    // The streaming runtime's down-sample workers merge per-frame
    // StatSets concurrently; counter-wise sums must survive the
    // contention (also exercised under TSan in CI).
    ConcurrentStatSet shared;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&shared] {
            for (int i = 0; i < 100; ++i) {
                StatSet local;
                local.add("work", 2);
                shared.merge(local);
                shared.add("frames");
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(shared.snapshot().get("work"), 800u);
    EXPECT_EQ(shared.snapshot().get("frames"), 400u);
    shared.clear();
    EXPECT_EQ(shared.snapshot().size(), 0u);
}

// -------------------------------------------------------- TablePrinter

TEST(TablePrinter, RendersHeaderAndRows)
{
    TablePrinter t({"name", "value"});
    t.addRow({"x", "1"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("| x"), std::string::npos);
}

TEST(TablePrinter, AlignsColumnsToWidestCell)
{
    TablePrinter t({"a"});
    t.addRow({"wide-cell"});
    t.addRow({"x"});
    const std::string out = t.render();
    // Every line has identical length.
    std::size_t prev = std::string::npos;
    std::size_t pos = 0;
    while (pos < out.size()) {
        const auto eol = out.find('\n', pos);
        if (eol == std::string::npos)
            break;
        const std::size_t len = eol - pos;
        if (prev != std::string::npos) {
            EXPECT_EQ(len, prev);
        }
        prev = len;
        pos = eol + 1;
    }
}

TEST(TablePrinter, FmtRatioAppendsX)
{
    EXPECT_EQ(TablePrinter::fmtRatio(2.5), "2.50x");
    EXPECT_EQ(TablePrinter::fmtRatio(2.5, 1), "2.5x");
}

TEST(TablePrinter, FmtCountInsertsSeparators)
{
    EXPECT_EQ(TablePrinter::fmtCount(1234567), "1,234,567");
    EXPECT_EQ(TablePrinter::fmtCount(999), "999");
    EXPECT_EQ(TablePrinter::fmtCount(0), "0");
}

TEST(TablePrinter, FmtTimePicksUnits)
{
    EXPECT_EQ(TablePrinter::fmtTime(2.0e-9), "2.0 ns");
    EXPECT_EQ(TablePrinter::fmtTime(3.5e-6), "3.50 us");
    EXPECT_EQ(TablePrinter::fmtTime(4.2e-3), "4.200 ms");
    EXPECT_EQ(TablePrinter::fmtTime(1.5), "1.500 s");
}

TEST(TablePrinter, FmtBytesPicksUnits)
{
    EXPECT_EQ(TablePrinter::fmtBytes(512), "512 B");
    EXPECT_EQ(TablePrinter::fmtBytes(2048), "2.0 KiB");
    EXPECT_EQ(TablePrinter::fmtBytes(3.0 * 1024 * 1024), "3.0 MiB");
}

// ------------------------------------- BoundedQueue counter invariants

/** Every-state invariants of BoundedQueue::Counters. */
void
expectCounterInvariants(const BoundedQueue<int>::Counters &c,
                        std::size_t size)
{
    // Every admitted element is consumed or still queued.
    EXPECT_EQ(c.pushed, c.popped + size);
    // Only admitted pushes count as blocked.
    EXPECT_LE(c.blockedPushes, c.pushed);
    EXPECT_LE(c.peakSize, c.pushed);
}

TEST(BoundedQueueCounters, CloseWhileBlockedCountsClosedNotBlocked)
{
    // Regression: a push woken by close() destroys its value
    // without enqueueing it — shutdown, not back-pressure. The seed
    // counted it in blockedPushes, so every pipeline shutdown read
    // as queue congestion.
    BoundedQueue<int> q(1);
    ASSERT_EQ(q.push(1), PushOutcome::Pushed);

    std::atomic<bool> refused{false};
    std::thread producer([&] {
        refused.store(q.push(2) == PushOutcome::Closed);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
    producer.join();
    EXPECT_TRUE(refused.load());

    const auto c = q.counters();
    EXPECT_EQ(c.pushed, 1u);
    EXPECT_EQ(c.blockedPushes, 0u);
    EXPECT_EQ(c.closedPushes, 1u);
    expectCounterInvariants(c, q.size());
}

TEST(BoundedQueueCounters, BlockedThenAdmittedCountsBlockedPush)
{
    // Whether the producer actually reaches the full-queue wait
    // before the consumer frees space is a scheduling race, so
    // retry the scenario until the blocked path is observed
    // (attempt 1 in practice) instead of trusting a fixed sleep.
    for (int attempt = 0; attempt < 50; ++attempt) {
        BoundedQueue<int> q(1);
        ASSERT_EQ(q.push(1), PushOutcome::Pushed);
        std::atomic<bool> started{false};
        std::thread producer([&] {
            started.store(true);
            EXPECT_EQ(q.push(2), PushOutcome::Pushed);
        });
        while (!started.load())
            std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_EQ(q.pop().value(), 1);
        producer.join();

        const auto c = q.counters();
        EXPECT_EQ(c.pushed, 2u);
        EXPECT_EQ(c.closedPushes, 0u);
        expectCounterInvariants(c, q.size());
        if (c.blockedPushes == 1u)
            return; // blocked-then-admitted path observed
    }
    FAIL() << "producer never blocked in 50 attempts";
}

TEST(BoundedQueueCounters, EveryPushAfterCloseCountsClosed)
{
    BoundedQueue<int> q(2);
    q.push(1);
    q.close();
    EXPECT_EQ(q.push(2), PushOutcome::Closed);
    EXPECT_EQ(q.push(3), PushOutcome::Closed);

    const auto c = q.counters();
    EXPECT_EQ(c.pushed, 1u);
    EXPECT_EQ(c.closedPushes, 2u);
    EXPECT_EQ(c.blockedPushes, 0u);
    expectCounterInvariants(c, q.size());
}

} // namespace
} // namespace hgpcn

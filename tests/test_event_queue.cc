/** @file Unit tests for the event queue and clock domains. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"

using namespace mondrian;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EventsScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 5)
            eq.scheduleIn(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ExecutedCount)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

// --- Calendar-queue specifics: the bucketed front-end must preserve the
// exact (tick, insertion-seq) total order of the plain priority queue. ---

TEST(EventQueue, RandomizedOrderMatchesReference)
{
    // Pseudo-random ticks spanning buckets, bucket boundaries, ties and
    // far-future overflow territory; compare execution order against a
    // stable sort by (tick, insertion index).
    EventQueue eq;
    std::uint64_t lcg = 12345;
    std::vector<Tick> when;
    std::vector<int> order;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        Tick t;
        switch ((lcg >> 33) % 4) {
          case 0: // near now, heavy ties
            t = (lcg >> 40) % 64;
            break;
          case 1: // within the calendar window
            t = (lcg >> 35) % 100000;
            break;
          case 2: // bucket-width multiples (boundary ticks)
            t = ((lcg >> 40) % 128) * 2048;
            break;
          default: // far future: overflow heap
            t = 10'000'000 + (lcg >> 35) % 100'000'000;
            break;
        }
        when.push_back(t);
        eq.schedule(t, [&order, i] { order.push_back(i); });
    }
    std::vector<int> expect(n);
    for (int i = 0; i < n; ++i)
        expect[i] = i;
    std::stable_sort(expect.begin(), expect.end(),
                     [&](int a, int b) { return when[a] < when[b]; });
    eq.run();
    EXPECT_EQ(order, expect);
    EXPECT_EQ(eq.executed(), static_cast<std::uint64_t>(n));
}

TEST(EventQueue, EventsScheduledDuringDrainKeepOrder)
{
    // Callbacks scheduling at the current tick and slightly ahead, into
    // the bucket currently being drained.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(0);
        eq.schedule(10, [&] { order.push_back(2); }); // same tick: after 1
        eq.schedule(11, [&] { order.push_back(3); });
    });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(12, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, FarFutureEventsMigrateFromOverflow)
{
    // Events far beyond the calendar window must still run in order, and
    // scheduling near-now events after a far jump must work.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1, [&] { order.push_back(0); });
    eq.schedule(100'000'000, [&] {
        order.push_back(2);
        eq.scheduleIn(5, [&] { order.push_back(3); });
    });
    eq.schedule(50'000'000, [&] { order.push_back(1); });
    eq.schedule(200'000'000, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 200'000'000u);
}

TEST(EventQueue, RunUntilAcrossEmptyBucketsAndOverflow)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.schedule(90'000'000, [&] { ++fired; }); // far beyond the window
    eq.runUntil(1000);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.now(), 1000u);
    // Scheduling behind the peeked-ahead window but >= now must be legal.
    eq.schedule(2000, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, MoveOnlyCallbacks)
{
    // InlineFunction carries move-only captures (std::function could not).
    EventQueue eq;
    auto payload = std::make_unique<int>(7);
    int seen = 0;
    eq.schedule(1, [p = std::move(payload), &seen] { seen = *p; });
    eq.run();
    EXPECT_EQ(seen, 7);
}

TEST(EventQueue, LargeCapturesFallBackToHeap)
{
    // Captures beyond the inline buffer still work (transparent heap
    // fallback).
    EventQueue eq;
    struct Big
    {
        char data[512];
    };
    Big big{};
    big.data[0] = 42;
    char seen = 0;
    eq.schedule(1, [big, &seen] { seen = big.data[0]; });
    eq.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, ResetAfterMixedScheduling)
{
    EventQueue eq;
    for (int i = 0; i < 100; ++i)
        eq.schedule(static_cast<Tick>(i) * 4096, [] {});
    eq.schedule(500'000'000, [] {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 0u);
    // Queue is fully usable after reset.
    int fired = 0;
    eq.schedule(3, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
}

// --- Order oracle over adversarial window shapes. Every event goes
// through OrderOracle, which numbers schedule calls in call order; since
// every call targets a tick >= now(), the queue's (tick, insertion seq)
// contract means the events must run in a stable sort of that call order
// by tick. ---

namespace {

/** Schedules through @p eq and checks the resulting pop order. */
class OrderOracle
{
  public:
    explicit OrderOracle(EventQueue &eq) : eq_(eq) {}

    /** Schedule @p f at @p t (coalescing when @p coalesce is set). */
    template <typename F>
    void
    schedule(Tick t, F f, bool coalesce = false)
    {
        const auto id = static_cast<std::uint32_t>(when_.size());
        when_.push_back(t);
        auto cb = [this, id, f]() {
            ran_.push_back(id);
            f();
        };
        if (coalesce)
            eq_.scheduleCoalesced(t, cb);
        else
            eq_.schedule(t, cb);
    }

    std::size_t scheduled() const { return when_.size(); }

    /** The order the (tick, call order) contract demands. */
    std::vector<std::uint32_t>
    expected() const
    {
        std::vector<std::uint32_t> ids(when_.size());
        for (std::uint32_t i = 0; i < ids.size(); ++i)
            ids[i] = i;
        std::stable_sort(ids.begin(), ids.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return when_[a] < when_[b];
                         });
        return ids;
    }

    const std::vector<std::uint32_t> &ran() const { return ran_; }

  private:
    EventQueue &eq_;
    std::vector<Tick> when_;
    std::vector<std::uint32_t> ran_;
};

/** One LCG step; the high bits are the usable output. */
std::uint64_t
nextLcg(std::uint64_t &s)
{
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
}

/**
 * Self-rescheduling chains through an OrderOracle: each step draws a
 * delta in [1, maxDelta] and schedules the next step, @p steps times.
 */
struct ChainSet
{
    OrderOracle *oracle;
    EventQueue *eq;
    Tick maxDelta;
    std::uint64_t seed;
    std::vector<std::uint32_t> left;

    void
    start(std::size_t chains, std::uint32_t steps, Tick first, Tick spread)
    {
        left.assign(chains, steps);
        for (std::size_t c = 0; c < chains; ++c)
            stepAt(c, first + static_cast<Tick>(c) * spread);
    }

    void
    stepAt(std::size_t c, Tick t)
    {
        oracle->schedule(t, [this, c]() {
            if (--left[c] > 0)
                stepAt(c, eq->now() + 1 + nextLcg(seed) % maxDelta);
        });
    }
};

} // namespace

TEST(EventQueue, OrderOracleFarFutureFirstOnEmptyQueue)
{
    // Served-traffic shape: an arrival pops on a now-empty queue, chains
    // the next arrival far ahead *first*, then schedules its query's
    // events before it: near-now, inside the window, across bucket
    // boundaries and beyond the horizon but before the next arrival.
    EventQueue eq;
    OrderOracle oracle(eq);
    std::uint64_t lcg = 99;
    int arrivals = 40;
    std::function<void()> arrive = [&] {
        if (--arrivals > 0)
            oracle.schedule(eq.now() + 50'000'000 + nextLcg(lcg) % 1000,
                            arrive);
        for (int i = 0; i < 60; ++i) {
            Tick d;
            switch (nextLcg(lcg) % 4) {
              case 0: d = nextLcg(lcg) % 64; break;
              case 1: d = nextLcg(lcg) % 600'000; break;
              case 2: d = (nextLcg(lcg) % 64) * 128; break;
              default: d = 1'000'000 + nextLcg(lcg) % 40'000'000; break;
            }
            oracle.schedule(eq.now() + d, [] {});
        }
    };
    oracle.schedule(7, arrive);
    eq.run();
    EXPECT_EQ(oracle.ran(), oracle.expected());
    EXPECT_EQ(eq.executed(), oracle.scheduled());
}

TEST(EventQueue, OrderOracleSchedulesBehindPeekedWindow)
{
    // runUntil peeks the head; when it lies past the limit the window
    // has moved ahead of now(), and the next schedules land in
    // [now, base): before, among and after the keys already pending.
    EventQueue eq;
    OrderOracle oracle(eq);
    std::uint64_t lcg = 4242;
    for (int i = 0; i < 20; ++i)
        oracle.schedule(1'000 + nextLcg(lcg) % 2'000'000, [] {});
    for (int round = 0; round < 200; ++round) {
        eq.runUntil(eq.now() + nextLcg(lcg) % 300'000);
        for (int i = 0; i < 10; ++i) {
            const Tick d = (nextLcg(lcg) % 2) ? nextLcg(lcg) % 256
                                              : nextLcg(lcg) % 1'000'000;
            oracle.schedule(eq.now() + d, [] {});
        }
    }
    eq.run();
    EXPECT_EQ(oracle.ran(), oracle.expected());
    EXPECT_EQ(eq.executed(), oracle.scheduled());
}

TEST(EventQueue, OrderOracleLateKeysIntoDrainingBucketWithCoalescing)
{
    // Events in the bucket being drained append keys to it that land
    // before, among and after its pending keys (ticks now+0 .. now+127),
    // half of them through scheduleCoalesced so follower chains form on
    // same-tick runs.
    EventQueue eq;
    eq.setCoalescing(true);
    OrderOracle oracle(eq);
    std::uint64_t lcg = 7;
    int budget = 20'000;
    std::function<void()> spawn = [&] {
        const int fan = static_cast<int>(nextLcg(lcg) % 4);
        for (int i = 0; i < fan && budget > 0; ++i, --budget) {
            const std::uint64_t r = nextLcg(lcg);
            const Tick d = (r & 1) ? 0 : (r >> 1) % 128;
            oracle.schedule(eq.now() + d, spawn, (r >> 8) & 1);
        }
    };
    for (int i = 0; i < 64; ++i)
        oracle.schedule(nextLcg(lcg) % 128, spawn, i & 1);
    eq.run();
    EXPECT_EQ(oracle.ran(), oracle.expected());
    EXPECT_EQ(eq.executed() + eq.coalesced(), oracle.scheduled());
    EXPECT_GT(eq.coalesced(), 0u);
}

// --- Cost regressions. Each shape below makes a calendar queue that
// re-sorts a bucket's whole pending run on every pop do ~n log n work
// per event (minutes in total); the queue does it in milliseconds. The
// ctest TIMEOUT on this binary (CMakeLists.txt) is the gate. ---

TEST(EventQueueCost, IdleGapReanchorThenBurstAcrossBuckets)
{
    // A far-future event scheduled first on an empty queue must not drag
    // the window ahead of now(): the burst that follows spreads over
    // ~500 buckets and must stay spread.
    EventQueue eq;
    OrderOracle oracle(eq);
    oracle.schedule(Tick{1} << 40, [] {});
    ChainSet chains{&oracle, &eq, 65'536, 1, {}};
    chains.start(16'384, 16, 1, 37);
    eq.run();
    EXPECT_EQ(oracle.ran(), oracle.expected());
    EXPECT_EQ(eq.now(), Tick{1} << 40);
}

TEST(EventQueueCost, DenseBurstInsideOneBucket)
{
    // perfbench's sparse-queue burst: many chains with deltas of at most
    // 32 ticks share one 128-tick bucket, and every pop appends a late
    // key among the pending ones.
    EventQueue eq;
    OrderOracle oracle(eq);
    ChainSet chains{&oracle, &eq, 32, 5, {}};
    chains.start(2'048, 800, 1, 0);
    eq.run();
    EXPECT_EQ(oracle.ran(), oracle.expected());
    EXPECT_EQ(eq.executed(), oracle.scheduled());
}

TEST(ClockDomain, Conversions)
{
    ClockDomain cd(1000); // 1 GHz
    EXPECT_EQ(cd.cyclesToTicks(5), 5000u);
    EXPECT_EQ(cd.ticksToCycles(5999), 5u);
    EXPECT_EQ(cd.nextEdge(0), 0u);
    EXPECT_EQ(cd.nextEdge(1), 1000u);
    EXPECT_EQ(cd.nextEdge(1000), 1000u);
}

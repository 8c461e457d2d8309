/** @file Unit and property tests for the cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "core/cache.hh"

using namespace mondrian;

namespace {

CacheConfig
smallCache(unsigned prefetch = 0)
{
    CacheConfig c;
    c.sizeBytes = 1 * kKiB;
    c.associativity = 2;
    c.lineBytes = 64;
    c.hitLatency = 2;
    c.prefetchDepth = prefetch;
    return c;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(63, false).hit);  // same line
    EXPECT_FALSE(c.access(64, false).hit); // next line
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(smallCache());
    // 8 sets, 2 ways: lines 0, 8, 16 map to set 0.
    c.access(0 * 64, false);
    c.access(8 * 64, false);
    c.access(0 * 64, false);       // refresh line 0
    c.access(16 * 64, false);      // evicts line 8
    EXPECT_TRUE(c.access(0 * 64, false).hit);
    EXPECT_FALSE(c.access(8 * 64, false).hit);
}

TEST(Cache, DirtyEvictionWritesBack)
{
    Cache c(smallCache());
    c.access(0, true); // dirty line 0
    c.access(8 * 64, false);
    auto r = c.access(16 * 64, false); // evicts dirty line 0
    ASSERT_TRUE(r.writebackAddr.has_value());
    EXPECT_EQ(*r.writebackAddr, 0u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionSilent)
{
    Cache c(smallCache());
    c.access(0, false);
    c.access(8 * 64, false);
    auto r = c.access(16 * 64, false);
    EXPECT_FALSE(r.writebackAddr.has_value());
}

TEST(Cache, PrefetcherIssuesNextLines)
{
    Cache c(smallCache(3));
    auto r = c.access(0, false);
    ASSERT_EQ(r.prefetchFills.size(), 3u);
    EXPECT_EQ(r.prefetchFills[0], 64u);
    EXPECT_EQ(r.prefetchFills[2], 192u);
}

TEST(Cache, PrefetchHitRearms)
{
    Cache c(smallCache(2));
    auto miss = c.access(0, false);
    for (Addr pf : miss.prefetchFills)
        c.insertPrefetch(pf);
    auto hit = c.access(64, false);
    EXPECT_TRUE(hit.hit);
    EXPECT_TRUE(hit.prefetchHit);
    EXPECT_EQ(hit.prefetchFills.size(), 2u); // stream keeps rolling
    // Second touch of the same line is a plain hit.
    auto hit2 = c.access(64, false);
    EXPECT_TRUE(hit2.hit);
    EXPECT_FALSE(hit2.prefetchHit);
}

TEST(Cache, InsertPrefetchIdempotent)
{
    Cache c(smallCache(1));
    EXPECT_TRUE(c.insertPrefetch(128));
    EXPECT_FALSE(c.insertPrefetch(128));
}

TEST(Cache, FlushInvalidatesAll)
{
    Cache c(smallCache());
    c.access(0, false);
    c.flush();
    EXPECT_FALSE(c.access(0, false).hit);
}

TEST(Cache, HitRateTracking)
{
    Cache c(smallCache());
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    EXPECT_NEAR(c.hitRate(), 2.0 / 3.0, 1e-9);
}

/** Property: working sets within capacity hit after warmup; beyond
 *  capacity they thrash. */
struct WsParam
{
    std::uint64_t workingSet;
    bool expectHits;
};

class WorkingSetTest : public ::testing::TestWithParam<WsParam> {};

TEST_P(WorkingSetTest, CapacityBehavior)
{
    auto p = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = 4 * kKiB;
    cfg.associativity = 4;
    cfg.lineBytes = 64;
    Cache c(cfg);
    // Two sweeps: warmup + measure.
    for (int pass = 0; pass < 2; ++pass)
        for (Addr a = 0; a < p.workingSet; a += 64)
            c.access(a, false);
    double hr = c.hitRate();
    if (p.expectHits)
        EXPECT_GT(hr, 0.45);
    else
        EXPECT_LT(hr, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    WorkingSets, WorkingSetTest,
    ::testing::Values(WsParam{1 * kKiB, true}, WsParam{2 * kKiB, true},
                      WsParam{4 * kKiB, true}, WsParam{16 * kKiB, false},
                      WsParam{64 * kKiB, false}));

namespace {

/**
 * Reference model: the original single-pass cache (division indexing,
 * tag match and victim choice in one scan over the set). The optimized
 * Cache must agree with it access for access.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &cfg)
        : cfg_(cfg),
          numSets_(cfg.sizeBytes / (std::uint64_t{cfg.lineBytes} *
                                    cfg.associativity)),
          ways_(numSets_ * cfg.associativity)
    {
    }

    CacheAccessResult
    access(Addr addr, bool is_write)
    {
        stats_.accesses++;
        CacheAccessResult res;
        const std::uint64_t line = addr / cfg_.lineBytes;
        const Probe p = probe(line);
        if (p.hit) {
            Way &w = *p.hit;
            res.hit = true;
            res.prefetchHit = w.prefetched;
            if (w.prefetched) {
                stats_.prefetchHits++;
                w.prefetched = false;
                prefetchAhead(line, res);
            } else {
                stats_.hits++;
            }
            w.dirty |= is_write;
            w.stamp = ++stamp_;
            return res;
        }
        stats_.misses++;
        res.writebackAddr = fill(*p.victim, line, is_write, false);
        prefetchAhead(line, res);
        return res;
    }

    std::uint32_t
    accessRun(Addr addr, std::uint32_t size, std::uint32_t n, bool is_write)
    {
        // The contract: the leading plain hits, each one access().
        std::uint32_t done = 0;
        for (; done < n; ++done) {
            const Addr a = addr + Addr{done} * size;
            const Probe p = probe(a / cfg_.lineBytes);
            if (!p.hit || p.hit->prefetched)
                break;
            access(a, is_write);
        }
        return done;
    }

    bool
    insertPrefetch(Addr addr)
    {
        const std::uint64_t line = addr / cfg_.lineBytes;
        const Probe p = probe(line);
        if (p.hit)
            return false;
        fill(*p.victim, line, false, true);
        return true;
    }

    void
    flush()
    {
        std::fill(ways_.begin(), ways_.end(), Way{});
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
        std::uint64_t line = 0;
        std::uint64_t stamp = 0;
    };

    struct Probe
    {
        Way *hit = nullptr;
        Way *victim = nullptr;
    };

    Probe
    probe(std::uint64_t line)
    {
        // First invalid way, else the first least-recently-used one.
        Way *set = &ways_[(line % numSets_) * cfg_.associativity];
        Probe p;
        for (unsigned w = 0; w < cfg_.associativity; ++w) {
            Way &way = set[w];
            if (way.valid && way.line == line) {
                p.hit = &way;
                return p;
            }
            if (p.victim && !p.victim->valid)
                continue;
            if (!way.valid || !p.victim || way.stamp < p.victim->stamp)
                p.victim = &way;
        }
        return p;
    }

    std::optional<Addr>
    fill(Way &w, std::uint64_t line, bool dirty, bool prefetched)
    {
        std::optional<Addr> writeback;
        if (w.valid && w.dirty) {
            writeback = w.line * cfg_.lineBytes;
            stats_.writebacks++;
        }
        w = Way{true, dirty, prefetched, line, ++stamp_};
        return writeback;
    }

    void
    prefetchAhead(std::uint64_t line, CacheAccessResult &res)
    {
        for (unsigned d = 1; d <= cfg_.prefetchDepth; ++d) {
            res.prefetchFills.push_back((line + d) * cfg_.lineBytes);
            stats_.prefetchIssued++;
        }
    }

    CacheConfig cfg_;
    std::uint64_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t stamp_ = 0;
    CacheStats stats_;
};

void
expectSameAccess(const CacheAccessResult &got, const CacheAccessResult &want,
                 std::size_t step)
{
    ASSERT_EQ(got.hit, want.hit) << "step " << step;
    ASSERT_EQ(got.prefetchHit, want.prefetchHit) << "step " << step;
    ASSERT_EQ(got.writebackAddr, want.writebackAddr) << "step " << step;
    ASSERT_EQ(std::vector<Addr>(got.prefetchFills.begin(),
                                got.prefetchFills.end()),
              std::vector<Addr>(want.prefetchFills.begin(),
                                want.prefetchFills.end()))
        << "step " << step;
}

} // namespace

TEST(Cache, RandomizedMatchesReferenceLru)
{
    for (unsigned assoc : {1u, 2u, 4u, 16u}) {
        SCOPED_TRACE("associativity " + std::to_string(assoc));
        CacheConfig cfg;
        cfg.associativity = assoc;
        cfg.lineBytes = 64;
        cfg.sizeBytes = std::uint64_t{8} * assoc * cfg.lineBytes; // 8 sets
        cfg.prefetchDepth = assoc % 4 == 0 ? 2 : 3;
        Cache cache(cfg);
        RefCache ref(cfg);
        // Footprint of 4x the capacity: plenty of conflict evictions,
        // yet enough reuse for hits, prefetch hits and runs.
        const std::uint64_t footprint = 4 * cfg.sizeBytes;
        Random rng(1000 + assoc);
        for (std::size_t step = 0; step < 20000; ++step) {
            const std::uint64_t op = rng.nextBounded(100);
            const Addr addr = rng.nextBounded(footprint);
            const bool write = rng.nextBounded(3) == 0;
            if (op < 70) {
                expectSameAccess(cache.access(addr, write),
                                 ref.access(addr, write), step);
            } else if (op < 85) {
                const auto size =
                    static_cast<std::uint32_t>(4 << rng.nextBounded(5));
                const auto n =
                    static_cast<std::uint32_t>(1 + rng.nextBounded(40));
                ASSERT_EQ(cache.accessRun(addr, size, n, write),
                          ref.accessRun(addr, size, n, write))
                    << "step " << step;
            } else if (op < 99) {
                ASSERT_EQ(cache.insertPrefetch(addr),
                          ref.insertPrefetch(addr))
                    << "step " << step;
            } else {
                cache.flush();
                ref.flush();
            }
        }
        const CacheStats &got = cache.stats();
        const CacheStats &want = ref.stats();
        EXPECT_EQ(got.accesses, want.accesses);
        EXPECT_EQ(got.hits, want.hits);
        EXPECT_EQ(got.prefetchHits, want.prefetchHits);
        EXPECT_EQ(got.misses, want.misses);
        EXPECT_EQ(got.writebacks, want.writebacks);
        EXPECT_EQ(got.prefetchIssued, want.prefetchIssued);
        EXPECT_GT(want.hits, 0u);
        EXPECT_GT(want.prefetchHits, 0u);
        EXPECT_GT(want.writebacks, 0u);
    }
}

TEST(CacheDeath, BadGeometryFatal)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1000; // not a multiple of line*assoc
    EXPECT_DEATH({ Cache c(cfg); }, "multiple");
}

TEST(CacheDeath, NonPowerOfTwoGeometryFatal)
{
    CacheConfig sets;
    sets.sizeBytes = 3 * kKiB; // 24 sets of 2 x 64 B
    sets.associativity = 2;
    sets.lineBytes = 64;
    EXPECT_DEATH({ Cache c(sets); }, "powers of two");

    CacheConfig line;
    line.sizeBytes = 96 * 16; // 16 sets of one 96 B line
    line.associativity = 1;
    line.lineBytes = 96;
    EXPECT_DEATH({ Cache c(line); }, "powers of two");
}

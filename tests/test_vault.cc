/** @file Unit and property tests for the vault controller. */

#include <gtest/gtest.h>

#include <vector>

#include "common/intmath.hh"
#include "common/random.hh"
#include "dram/vault.hh"
#include "sim/event_queue.hh"

using namespace mondrian;

namespace {

MemGeometry
vaultGeo()
{
    MemGeometry g;
    g.numStacks = 1;
    g.vaultsPerStack = 2;
    g.banksPerVault = 4;
    g.rowBytes = 256;
    g.vaultBytes = 256 * kKiB;
    return g;
}

/** Request token for slot @p i of a test's bookkeeping (never null). */
MemRequest::Token
tokenOf(std::size_t i)
{
    return reinterpret_cast<MemRequest::Token>(i + 1);
}

std::size_t
slotOf(MemRequest::Token token)
{
    return reinterpret_cast<std::size_t>(token) - 1;
}

struct VaultFixture : public ::testing::Test
{
    VaultFixture() : map(vaultGeo()), vault(eq, map, 0, DramTiming{}, 16)
    {
        vault.onComplete = [this](MemRequest::Token, Tick) { ++completed; };
    }

    void
    access(Addr addr, std::uint32_t size, bool write)
    {
        MemRequest r;
        r.addr = addr;
        r.size = size;
        r.isWrite = write;
        r.token = tokenOf(0);
        vault.enqueue(std::move(r));
    }

    EventQueue eq;
    AddressMap map;
    VaultController vault;
    unsigned completed = 0;
};

} // namespace

TEST_F(VaultFixture, SingleReadCompletes)
{
    access(0, 64, false);
    eq.run();
    EXPECT_EQ(completed, 1u);
    EXPECT_EQ(vault.stats().reads, 1u);
    EXPECT_EQ(vault.stats().bytesRead, 64u);
    EXPECT_EQ(vault.stats().rowActivations, 1u);
}

TEST_F(VaultFixture, SequentialStreamActivatesEachRowOnce)
{
    // Read 16 KiB sequentially in row-sized chunks: one activation per
    // 256 B row, no conflicts.
    const unsigned rows = 64;
    for (unsigned i = 0; i < rows; ++i)
        access(Addr{i} * 256, 256, false);
    eq.run();
    EXPECT_EQ(vault.stats().rowActivations, rows);
    EXPECT_EQ(vault.stats().rowHits, 0u);
    EXPECT_EQ(completed, rows);
}

TEST_F(VaultFixture, SequentialBandwidthApproachesPeak)
{
    const unsigned rows = 256;
    for (unsigned i = 0; i < rows; ++i)
        access(Addr{i} * 256, 256, false);
    Tick end = eq.run();
    double gbps = bytesPerTickToGBps(rows * 256.0, end);
    EXPECT_GT(gbps, 6.0); // 8 GB/s peak minus activation overheads
    EXPECT_LE(gbps, 8.01);
}

TEST_F(VaultFixture, RandomSmallAccessesThrashRows)
{
    Random rng(11);
    const unsigned n = 256;
    for (unsigned i = 0; i < n; ++i) {
        Addr a = roundDown(rng.nextBounded(256 * kKiB - 16), 16);
        access(a, 16, false);
    }
    eq.run();
    // Nearly every access activates a row (open rows rarely re-hit).
    EXPECT_GT(vault.stats().rowActivations, n * 3 / 4);
}

TEST_F(VaultFixture, FrFcfsPrefersOpenRows)
{
    // A narrow scheduling window forces queueing; FR-FCFS should batch
    // same-row requests (row hits) instead of ping-ponging two rows that
    // share a bank.
    VaultController narrow(eq, map, 0, DramTiming{}, 2);
    unsigned done = 0;
    narrow.onComplete = [&done](MemRequest::Token, Tick) { ++done; };
    for (int i = 0; i < 8; ++i) {
        for (Addr base : {Addr{0}, Addr{8192}}) { // same bank, rows 0 and 8
            MemRequest r;
            r.addr = base + static_cast<Addr>(i) * 16;
            r.size = 16;
            r.isWrite = false;
            r.token = tokenOf(0);
            narrow.enqueue(std::move(r));
        }
    }
    eq.run();
    EXPECT_EQ(done, 16u);
    EXPECT_GE(narrow.stats().rowHits, 9u); // 16 reqs, 2 rows: >= 9 batched hits
}

TEST_F(VaultFixture, AppendEngineCoalescesToRows)
{
    vault.armPermutable(PermutableRegion{0, 8 * kKiB, 16});
    // 256 appends of 16 B = 4 KiB = 16 rows; the append engine must
    // activate each row exactly once and never more.
    for (unsigned i = 0; i < 256; ++i)
        access(Addr{4 * kKiB} + (i % 64) * 16, 16, true); // scattered addrs
    eq.run();
    EXPECT_EQ(vault.permutableCursor(), 256u * 16);
    std::uint64_t appended = vault.disarmPermutable();
    eq.run();
    EXPECT_EQ(appended, 4 * kKiB);
    EXPECT_EQ(vault.stats().permutableWrites, 256u);
    EXPECT_EQ(vault.stats().rowActivations, 16u);
    EXPECT_EQ(completed, 256u); // fast-acked
}

TEST_F(VaultFixture, AppendIgnoresSourceAddresses)
{
    vault.armPermutable(PermutableRegion{0, 8 * kKiB, 16});
    Random rng(3);
    for (unsigned i = 0; i < 64; ++i)
        access(roundDown(rng.nextBounded(8 * kKiB - 16), 16), 16, true);
    eq.run();
    EXPECT_EQ(vault.permutableCursor(), 64u * 16);
    vault.disarmPermutable();
    eq.run();
    // 1 KiB appended = 4 rows exactly.
    EXPECT_EQ(vault.stats().rowActivations, 4u);
}

TEST_F(VaultFixture, WritesOutsideArmedRegionUntouched)
{
    vault.armPermutable(PermutableRegion{0, 4 * kKiB, 16});
    access(64 * kKiB, 16, true); // outside the region
    eq.run();
    EXPECT_EQ(vault.stats().permutableWrites, 0u);
    EXPECT_EQ(vault.permutableCursor(), 0u);
    vault.disarmPermutable();
}

TEST_F(VaultFixture, DisarmFlushesPartialRow)
{
    vault.armPermutable(PermutableRegion{0, 4 * kKiB, 16});
    for (unsigned i = 0; i < 3; ++i)
        access(Addr{i} * 16, 16, true);
    eq.run();
    EXPECT_EQ(vault.stats().bytesWritten, 0u); // staged, not yet in DRAM
    vault.disarmPermutable();
    eq.run();
    EXPECT_EQ(vault.stats().bytesWritten, 48u);
}

TEST_F(VaultFixture, RequestsSplitAtRowBoundaries)
{
    access(128, 256, false); // straddles two rows
    eq.run();
    EXPECT_EQ(vault.stats().rowActivations, 2u);
    EXPECT_EQ(completed, 1u);
}

TEST_F(VaultFixture, OutstandingTracksQueue)
{
    for (int i = 0; i < 4; ++i)
        access(Addr(i) * 4096, 16, false);
    EXPECT_GT(vault.outstanding(), 0u);
    eq.run();
    EXPECT_EQ(vault.outstanding(), 0u);
}

namespace {

/**
 * Conservation rig: a narrow-window vault fed by scheduled arrivals, with
 * one completion record per token.
 */
struct ConservationRig
{
    explicit ConservationRig(std::size_t n)
        : map(vaultGeo()), vault(eq, map, 0, DramTiming{}, 2),
          requests(n), enqueuedAt(n), completedAt(n), completions(n, 0)
    {
        vault.onComplete = [this](MemRequest::Token token, Tick t) {
            const std::size_t i = slotOf(token);
            ASSERT_LT(i, completions.size());
            EXPECT_EQ(t, eq.now()) << "sink ran off its completion tick";
            ++completions[i];
            completedAt[i] = t;
        };
    }

    void
    arrive(std::size_t i)
    {
        enqueuedAt[i] = eq.now();
        if (vault.outstanding() == 0)
            ++idleArrivals;
        else if (vault.outstanding() >= 2)
            ++backedUpArrivals;
        vault.enqueue(MemRequest(requests[i]));
    }

    EventQueue eq;
    AddressMap map;
    VaultController vault;
    std::vector<MemRequest> requests;
    std::vector<Tick> enqueuedAt;
    std::vector<Tick> completedAt;
    std::vector<unsigned> completions;
    unsigned idleArrivals = 0;
    unsigned backedUpArrivals = 0;
};

} // namespace

TEST(VaultConservation, EveryTokenCompletesOnceIdleAndBackedUp)
{
    // Bursts of same-tick arrivals back the 2-entry window up; long gaps
    // let it drain, so later arrivals find an idle vault and issue
    // without queueing. Some writes land in an armed permutable region
    // and are acknowledged by the append engine instead.
    const std::size_t n = 600;
    ConservationRig rig(n);
    rig.vault.armPermutable(PermutableRegion{0, 8 * kKiB, 16});
    Random rng(29);
    Tick at = 0;
    std::size_t next = 0;
    while (next < n) {
        const std::uint64_t burst = 1 + rng.nextBounded(8);
        for (std::uint64_t b = 0; b < burst && next < n; ++b, ++next) {
            MemRequest &r = rig.requests[next];
            r.isWrite = rng.nextBounded(2) == 1;
            r.token = tokenOf(next);
            if (r.isWrite && next % 4 == 0) {
                r.addr = roundDown(rng.nextBounded(8 * kKiB - 16), 16);
                r.size = 16; // append: <= 150 x 16 B fits the region
            } else {
                static constexpr std::uint32_t kSizes[] = {16, 64, 256};
                r.size = kSizes[rng.nextBounded(3)];
                r.addr = 8 * kKiB +
                         roundDown(rng.nextBounded(240 * kKiB), 16);
            }
            auto arrival = [&rig, i = next]() { rig.arrive(i); };
            rig.eq.schedule(at, std::move(arrival));
        }
        at += rng.nextBounded(2) == 1 ? 2 * kMicrosecond
                                      : rng.nextBounded(500);
    }
    rig.eq.run();
    rig.vault.disarmPermutable();
    rig.eq.run();

    EXPECT_GT(rig.idleArrivals, 20u);
    EXPECT_GT(rig.backedUpArrivals, 20u);
    EXPECT_EQ(rig.vault.outstanding(), 0u);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(rig.completions[i], 1u) << "token " << i;
        EXPECT_GE(rig.completedAt[i], rig.enqueuedAt[i]) << "token " << i;
    }
}

TEST(VaultDeath, AppendOverflowFatal)
{
    EventQueue eq;
    AddressMap map(vaultGeo());
    VaultController vault(eq, map, 0, DramTiming{}, 16);
    vault.armPermutable(PermutableRegion{0, 32, 16});
    MemRequest r;
    r.addr = 0;
    r.size = 16;
    r.isWrite = true;
    vault.enqueue(MemRequest{0, 16, true});
    vault.enqueue(MemRequest{0, 16, true});
    EXPECT_DEATH(vault.enqueue(MemRequest{0, 16, true}),
                 "overflow");
}

TEST(VaultDeath, WrongVaultPanics)
{
    EventQueue eq;
    AddressMap map(vaultGeo());
    VaultController vault(eq, map, 0, DramTiming{}, 16);
    EXPECT_DEATH(vault.enqueue(MemRequest{256 * kKiB, 16, false}),
                 "assert");
}

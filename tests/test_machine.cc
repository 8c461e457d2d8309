/**
 * @file
 * Machine-level timing tests: phases run to completion, and the headline
 * architectural properties hold (permutability slashes row activations,
 * bandwidth never exceeds the peak, NMP beats the star topology on
 * shuffles).
 */

#include <gtest/gtest.h>

#include "engine/ops.hh"
#include "engine/workload.hh"
#include "system/campaign.hh"
#include "system/machine.hh"
#include "system/runner.hh"

using namespace mondrian;

namespace {

MemGeometry
machineGeo()
{
    MemGeometry g;
    g.numStacks = 2;
    g.vaultsPerStack = 8;
    g.banksPerVault = 4;
    g.rowBytes = 256;
    g.vaultBytes = 1 * kMiB;
    return g;
}

SystemConfig
sys(SystemKind kind)
{
    return makeSystem(kind, machineGeo());
}

struct JoinRun
{
    std::vector<PhaseResult> phases;
    EnergyActivity activity;
    EnergyBreakdown energy;
    std::uint64_t matches;
};

JoinRun
runJoinOn(SystemKind kind, std::uint64_t tuples)
{
    SystemConfig cfg = sys(kind);
    MemoryPool pool(cfg.geo);
    WorkloadConfig wl;
    wl.tuples = tuples;
    WorkloadGenerator gen(wl);
    auto pair = gen.makeJoinPair(pool);
    auto exec = runJoin(pool, cfg.exec, pair.r, pair.s);
    Machine m(cfg, pool);
    JoinRun out;
    out.phases = m.run(exec);
    out.activity = m.energyActivity();
    out.energy = m.energy();
    out.matches = exec.joinMatches;
    return out;
}

} // namespace

TEST(Machine, PhasesCompleteWithPositiveTime)
{
    auto run = runJoinOn(SystemKind::kNmp, 4096);
    ASSERT_EQ(run.phases.size(), 3u);
    for (const auto &p : run.phases) {
        EXPECT_GT(p.time, 0u) << p.name;
        EXPECT_GT(p.dramBytes, 0u) << p.name;
        EXPECT_GE(p.coreUtilization, 0.0);
        EXPECT_LE(p.coreUtilization, 1.0);
    }
}

TEST(Machine, PermutabilityReducesActivations)
{
    auto exact = runJoinOn(SystemKind::kNmp, 4096);
    auto perm = runJoinOn(SystemKind::kNmpPerm, 4096);
    // Partition-phase activations must drop by at least 2x with the
    // append engine (the paper's entire §5.3 premise).
    std::uint64_t act_exact =
        exact.phases[0].activations + exact.phases[1].activations;
    std::uint64_t act_perm =
        perm.phases[0].activations + perm.phases[1].activations;
    EXPECT_LT(act_perm * 2, act_exact);
    EXPECT_EQ(exact.matches, perm.matches);
}

TEST(Machine, PermutabilityNotSlower)
{
    auto exact = runJoinOn(SystemKind::kNmp, 4096);
    auto perm = runJoinOn(SystemKind::kNmpPerm, 4096);
    Tick t_exact = exact.phases[0].time + exact.phases[1].time;
    Tick t_perm = perm.phases[0].time + perm.phases[1].time;
    EXPECT_LE(t_perm, t_exact);
}

TEST(Machine, VaultBandwidthBoundedByPeak)
{
    for (SystemKind k : {SystemKind::kCpu, SystemKind::kNmp,
                         SystemKind::kMondrian}) {
        auto run = runJoinOn(k, 4096);
        for (const auto &p : run.phases) {
            EXPECT_LE(p.avgVaultBWGBps, DramTiming{}.peakGBps() + 0.01)
                << systemKindName(k) << " " << p.name;
        }
    }
}

TEST(Machine, NmpShuffleFasterThanCpu)
{
    auto cpu = runJoinOn(SystemKind::kCpu, 4096);
    auto nmp = runJoinOn(SystemKind::kNmp, 4096);
    Tick t_cpu = cpu.phases[0].time + cpu.phases[1].time;
    Tick t_nmp = nmp.phases[0].time + nmp.phases[1].time;
    EXPECT_LT(t_nmp, t_cpu);
}

TEST(Machine, MondrianFastestPartition)
{
    auto nmp = runJoinOn(SystemKind::kNmp, 4096);
    auto mon = runJoinOn(SystemKind::kMondrian, 4096);
    EXPECT_LT(mon.phases[1].time, nmp.phases[1].time);
}

TEST(Machine, EnergyBreakdownConsistent)
{
    auto run = runJoinOn(SystemKind::kMondrian, 4096);
    EXPECT_GT(run.energy.dramDynamic, 0.0);
    EXPECT_GT(run.energy.dramStatic, 0.0);
    EXPECT_GT(run.energy.cores, 0.0);
    EXPECT_GT(run.energy.network, 0.0);
    EXPECT_NEAR(run.energy.total(),
                run.energy.dramDynamic + run.energy.dramStatic +
                    run.energy.cores + run.energy.network,
                1e-12);
}

TEST(Machine, ActivityCountsPopulated)
{
    auto run = runJoinOn(SystemKind::kCpu, 2048);
    EXPECT_GT(run.activity.elapsed, 0u);
    EXPECT_GT(run.activity.rowActivations, 0u);
    EXPECT_GT(run.activity.dramBitsMoved, 0u);
    EXPECT_GT(run.activity.serdesBusyBits, 0u); // star topology: all remote
    EXPECT_GT(run.activity.llcAccesses, 0u);
    EXPECT_TRUE(run.activity.hasLlc);
    EXPECT_GT(run.activity.coreUtilization, 0.0);
    EXPECT_LE(run.activity.coreUtilization, 1.0);
}

TEST(Machine, NmpHasNoLlc)
{
    auto run = runJoinOn(SystemKind::kNmp, 1024);
    EXPECT_FALSE(run.activity.hasLlc);
    EXPECT_EQ(run.activity.llcAccesses, 0u);
}

TEST(Machine, ScanSaturatesMondrianVaults)
{
    SystemConfig cfg = sys(SystemKind::kMondrian);
    MemoryPool pool(cfg.geo);
    WorkloadConfig wl;
    wl.tuples = 65536;
    Relation rel = WorkloadGenerator(wl).makeUniform(pool, wl.tuples);
    auto exec = runScan(pool, cfg.exec, rel, 1);
    Machine m(cfg, pool);
    auto phases = m.run(exec);
    // Streaming scan should push each vault well past half its peak
    // bandwidth (the paper reports 6.7 of 8 GB/s).
    EXPECT_GT(phases[0].avgVaultBWGBps, 4.0);
}

TEST(MachineConservation, SmokeAndPaperGridsCompleteEveryRequestOnce)
{
    // Replays every smoke and paper grid point at 2^12 the way Runner
    // does, then drains the queue (the last phase leaves its disarm
    // flushes pending) and checks the request-level books.
    CampaignGrid smoke = smokeGrid();
    smoke.log2Tuples = {12};
    for (const CampaignGrid &grid : {smoke, paperGrid(12)}) {
        for (const CampaignJob &job : expandGrid(grid)) {
            SCOPED_TRACE(std::string(systemKindName(job.system)) + " " +
                         job.scenario.name);
            const SystemConfig sys = job.systemConfig();
            MemoryPool pool(sys.geo);
            PreparedScenario ps =
                prepareScenario(pool, job.workload(), sys, job.scenario);
            Machine m(sys, pool);
            for (const OperatorExecution &exec : ps.execs)
                m.run(exec);
            m.eq().run();

            EXPECT_GT(m.dramRequests(), 0u);
            EXPECT_EQ(m.dramCompletions(), m.dramRequests());
            EXPECT_EQ(m.heapFallbacks(), 0u);
            for (unsigned v = 0; v < m.numVaults(); ++v)
                EXPECT_EQ(m.vault(v).outstanding(), 0u) << "vault " << v;
        }
    }
}

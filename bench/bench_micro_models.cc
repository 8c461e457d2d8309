/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates themselves:
 * event-queue throughput, DRAM bank/vault model, mesh routing, cache
 * lookups. These guard the simulator's own performance (a slow model
 * makes the paper-scale sweeps impractical).
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "core/cache.hh"
#include "dram/vault.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"

using namespace mondrian;

static void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(static_cast<Tick>((i * 37) % 911), [&] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueue);

static void
BM_BankAccess(benchmark::State &state)
{
    DramTiming t;
    Bank bank(t);
    std::uint64_t row = 0;
    Tick now = 0;
    for (auto _ : state) {
        auto r = bank.access(row++ % 64, now, false, 2000);
        now = r.readyAt;
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BankAccess);

static void
BM_VaultStream(benchmark::State &state)
{
    MemGeometry geo = defaultGeometry();
    AddressMap map(geo);
    for (auto _ : state) {
        EventQueue eq;
        VaultController vault(eq, map, 0, DramTiming{}, 16);
        for (unsigned i = 0; i < 256; ++i)
            vault.enqueue(MemRequest{Addr{i} * 256, 256, false});
        eq.run();
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_VaultStream);

static void
BM_MeshRoute(benchmark::State &state)
{
    Mesh mesh((MeshConfig()));
    Random rng(3);
    Tick now = 0;
    for (auto _ : state) {
        unsigned s = static_cast<unsigned>(rng.nextBounded(16));
        unsigned d = static_cast<unsigned>(rng.nextBounded(16));
        now += 10;
        benchmark::DoNotOptimize(mesh.route(s, d, 32, now));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeshRoute);

static void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.sizeBytes = 64 * kKiB;
    cfg.associativity = 16;
    Cache cache(cfg);
    Random rng(4);
    for (auto _ : state) {
        Addr a = rng.nextBounded(1 * kMiB);
        benchmark::DoNotOptimize(cache.access(a, false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

BENCHMARK_MAIN();

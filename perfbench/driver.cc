/**
 * @file
 * perfbench_driver: the C++ half of the repository benchmark (run.py is
 * the other half). It owns the workload definitions and everything that
 * has to call into the library directly:
 *
 *   perfbench_driver args  WORKLOAD SEED
 *       Print, as one JSON object, the mondrian_campaign arguments of the
 *       workload's grid, of its coordinator grid and of its profiled grid
 *       point. The C++ grids below and these arguments describe the same
 *       runs; the report byte-identity checks in run.py catch any drift.
 *
 *   perfbench_driver setup WORKLOAD SEED
 *       Time the set-up half of every grid point — prepareScenario plus
 *       Machine construction, on a fresh MemoryPool — summed over the
 *       grid, repeated; prints the per-repetition sums.
 *
 *   perfbench_driver trace WORKLOAD SEED REPORT_OUT SPANS_OUT
 *       The traced driver. Runs every grid point through the public calls
 *       Runner::run is made of, with a span around each call, checks the
 *       result JSON byte-for-byte against executeCampaignJob, runs the
 *       layer microbenches, writes the campaign report it assembled and
 *       the spans, and prints the per-layer metrics.
 *
 * Anything else, --help included, prints usage and exits 2 without
 * running or writing anything.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "core/core_model.hh"
#include "engine/trace_recorder.hh"
#include "net/transport.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "system/campaign.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/scenario.hh"
#include "system/traffic.hh"

using namespace mondrian;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- workloads

/** Traffic of the served workloads: open-loop Poisson at 2000 QPS. */
std::string
trafficSpec(unsigned queries, std::uint64_t seed)
{
    return "poisson,lambda=2000,queries=" + std::to_string(queries) +
           ",seed=" + std::to_string(seed);
}

/**
 * Queries per served grid point. At 2^10 tuples the host cost of a
 * query depends on its data seed (the filter's selectivity sizes every
 * later stage), so served-sessions sweeps several data seeds with few
 * queries each rather than one seed with many.
 */
constexpr unsigned kServedQueries = 2;
/** Data seeds served-sessions sweeps, starting at the workload seed. */
constexpr unsigned kServedSeeds = 4;
/** Seeds paper-fleet sweeps, starting at the workload seed. */
constexpr unsigned kFleetSeeds = 3;

/** @p n consecutive seeds from @p seed, as a grid axis and as CSV. */
std::vector<std::uint64_t>
seedRange(std::uint64_t seed, unsigned n, std::string &csv)
{
    std::vector<std::uint64_t> seeds;
    for (unsigned i = 0; i < n; ++i) {
        seeds.push_back(seed + i);
        csv += (i ? "," : "") + std::to_string(seed + i);
    }
    return seeds;
}

CampaignGrid
servedGrid(std::uint64_t seed, unsigned seeds, unsigned queries)
{
    std::string csv;
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kNmp,
                    SystemKind::kMondrian};
    Scenario sessions;
    std::string error;
    if (!scenarioFromSpec("sessions", sessions, error))
        fatal("sessions scenario: %s", error.c_str());
    grid.scenarios = {sessions};
    grid.log2Tuples = {10};
    grid.seeds = seedRange(seed, seeds, csv);
    TrafficSpec traffic;
    if (!parseTrafficSpec(trafficSpec(queries, seed), traffic, error))
        fatal("traffic spec: %s", error.c_str());
    grid.traffics = {traffic};
    return grid;
}

std::vector<std::string>
servedArgs(std::uint64_t seed, unsigned seeds, unsigned queries)
{
    std::string csv;
    seedRange(seed, seeds, csv);
    return {"--systems", "cpu,nmp,mondrian", "--scenario", "sessions",
            "--log2-tuples", "10", "--seeds", csv,
            "--traffic", trafficSpec(queries, seed)};
}

/** One benchmark workload: its grid and its command lines. */
struct Workload
{
    CampaignGrid grid;
    /** mondrian_campaign arguments of the measured run. */
    std::vector<std::string> campaign;
    /** Grid (without execution flags) run with --workers 3 and
     *  --jobs 3 to measure the coordinator. */
    std::vector<std::string> coordinator;
    /** The grid point the -pg build profiles, and its grid index. */
    std::vector<std::string> profile;
    std::size_t profileIndex = 0;

    /** The coordinator grid is the measured grid itself. */
    bool
    coordinatorIsGrid() const
    {
        return std::equal(coordinator.begin(), coordinator.end(),
                          campaign.begin(),
                          campaign.begin() + std::min(campaign.size(),
                                                      coordinator.size()));
    }
};

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    const std::string s = std::to_string(seed);
    if (name == "smoke20-serial") {
        w.grid = smokeGrid();
        w.grid.log2Tuples = {20};
        w.grid.seeds = {seed};
        w.campaign = {"--smoke", "--log2-tuples", "20", "--seeds", s,
                      "--jobs", "1"};
        // The 2^20 grid through the coordinator would double the traced
        // run; the same grid at 2^16 measures the dispatch path.
        w.coordinator = {"--smoke", "--log2-tuples", "16", "--seeds", s};
        w.profile = {"--systems", "cpu", "--ops", "join", "--log2-tuples",
                     "20", "--seeds", s};
        w.profileIndex = 3; // (join, cpu): scenarios outer, systems inner
        return true;
    }
    if (name == "paper-fleet") {
        w.grid = paperGrid(16);
        std::string seeds;
        w.grid.seeds = seedRange(seed, kFleetSeeds, seeds);
        w.coordinator = {"--paper", "--log2-tuples", "16", "--seeds",
                         seeds};
        w.campaign = w.coordinator;
        w.campaign.insert(w.campaign.end(), {"--workers", "3"});
        // cpu join, the grid's longest point, at the first seed.
        w.profile = {"--systems", "cpu", "--ops", "join", "--log2-tuples",
                     "16", "--seeds", s};
        w.profileIndex = 3 * allSystemKinds().size();
        return true;
    }
    if (name == "served-sessions") {
        w.grid = servedGrid(seed, kServedSeeds, kServedQueries);
        w.coordinator = servedArgs(seed, kServedSeeds, kServedQueries);
        w.campaign = w.coordinator;
        w.campaign.insert(w.campaign.end(), {"--jobs", "1"});
        w.profile = {"--systems", "mondrian", "--scenario", "sessions",
                     "--log2-tuples", "10", "--seeds", s, "--traffic",
                     trafficSpec(kServedQueries, seed)};
        w.profileIndex = 2; // (seed, mondrian): seeds outer, systems inner
        return true;
    }
    return false;
}

// ----------------------------------------------------------------- output

std::string
num(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
numArray(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + num(v[i]);
    return out + "]";
}

std::string
stringArray(const std::vector<std::string> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + quoted(v[i]);
    return out + "]";
}

/** Insertion-ordered flat JSON object of numbers. */
class Metrics
{
  public:
    void set(const std::string &k, double v) { kv_.emplace_back(k, v); }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < kv_.size(); ++i)
            out += (i ? ", " : "") + quoted(kv_[i].first) + ": " +
                   num(kv_[i].second);
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, double>> kv_;
};

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    return static_cast<bool>(out);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (0 < p <= 100). */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ------------------------------------------------------------------ setup

/**
 * Host time of one job's set-up: prepareScenario plus Machine
 * construction, which Runner and a mix-free ServedRunner both do first.
 */
double
timeSetup(const CampaignJob &job)
{
    const SystemConfig sys = job.systemConfig();
    MemoryPool pool(sys.geo);
    const auto t0 = Clock::now();
    PreparedScenario ps =
        prepareScenario(pool, job.workload(), sys, job.scenario);
    Machine machine(sys, pool);
    return since(t0);
}

int
cmdSetup(const Workload &w)
{
    const std::vector<CampaignJob> jobs = expandGrid(w.grid);
    // At least five repetitions and two seconds of set-up, so the
    // median is steady for millisecond grids too. The first repetition
    // pays the process's first touch of its memory and reads slow.
    std::vector<double> sums;
    const auto start = Clock::now();
    while (sums.size() < 5 || (since(start) < 2.0 && sums.size() < 400)) {
        double sum = 0.0;
        for (const CampaignJob &job : jobs)
            sum += timeSetup(job);
        sums.push_back(sum);
    }
    std::printf("{\"setup_s\": %s}\n", numArray(sums).c_str());
    return 0;
}

// ----------------------------------------------------------------- tracer

/** One boundary crossing: a call into a layer's public function. */
struct Span
{
    std::string name;
    int parent = -1;        ///< enclosing span, -1 for a grid point root
    std::size_t point = 0;  ///< grid index the span belongs to
    double start = 0.0;     ///< seconds since the tracer started
    double end = 0.0;
};

/** In-memory span recorder; written out once the run ends. */
class Tracer
{
  public:
    int
    begin(const std::string &name, int parent, std::size_t point)
    {
        spans_.push_back({name, parent, point, now(), 0.0});
        return static_cast<int>(spans_.size() - 1);
    }

    /** Close span @p id; returns its duration. */
    double
    end(int id)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.end = now();
        return s.end - s.start;
    }

    std::string
    json() const
    {
        std::string out = "{\"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += (i ? ",\n" : "") + std::string("{\"id\": ") +
                   std::to_string(i) + ", \"name\": " + quoted(s.name) +
                   ", \"parent\": " + std::to_string(s.parent) +
                   ", \"point\": " + std::to_string(s.point) +
                   ", \"start_s\": " + num(s.start) +
                   ", \"end_s\": " + num(s.end) + "}";
        }
        return out + "\n]}\n";
    }

  private:
    double now() const { return since(origin_); }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Layer sums the traced driver accumulates over grid points. */
struct LayerTotals
{
    double prepare = 0, build = 0, replay = 0, replayPartition = 0,
           replayProbe = 0;
    std::uint64_t recordedOps = 0, expandedOps = 0;
    std::uint64_t simEvents = 0, executed = 0, heapFallbacks = 0;
    std::uint64_t dramRequests = 0, activations = 0, rowHits = 0,
                  dramBytes = 0, nocPackets = 0, nocPayload = 0,
                  llcAccesses = 0;
    double phaseTicks = 0, utilTicks = 0, stallLoadTicks = 0;

    double served = 0;
    std::uint64_t offered = 0, admitted = 0, rejected = 0, completed = 0;
};

/**
 * Runner::run, call by call, with a span around each public call. The
 * body is the same sequence of calls runner.cc makes, so its result must
 * match executeCampaignJob byte-for-byte on degenerate-traffic points.
 */
RunResult
tracedRun(const CampaignJob &job, Tracer &tr, int root, LayerTotals &t)
{
    const SystemConfig sys = job.systemConfig();
    const std::size_t point = job.index;

    int s = tr.begin("MemoryPool", root, point);
    auto pool = std::make_unique<MemoryPool>(sys.geo);
    tr.end(s);

    s = tr.begin("prepareScenario", root, point);
    PreparedScenario ps =
        prepareScenario(*pool, job.workload(), sys, job.scenario);
    t.prepare += tr.end(s);

    s = tr.begin("Machine", root, point);
    auto machine = std::make_unique<Machine>(sys, *pool);
    t.build += tr.end(s);

    RunResult res;
    res.system = sys.name;
    res.op = job.scenario.name;
    const double vaults = static_cast<double>(sys.geo.totalVaults());
    EnergyBreakdown prev_energy;
    for (std::size_t i = 0; i < ps.execs.size(); ++i) {
        std::vector<PhaseResult> phases;
        for (const PhaseExec &phase : ps.execs[i].phases) {
            for (const KernelTrace &trace : phase.traces) {
                t.recordedOps += trace.size();
                t.expandedOps += trace.expandedSize();
            }
            const bool part = phase.kind == PhaseKind::kPartition;
            s = tr.begin(part ? "runPhase.partition" : "runPhase.probe",
                         root, point);
            phases.push_back(machine->runPhase(phase));
            const double dt = tr.end(s);
            t.replay += dt;
            (part ? t.replayPartition : t.replayProbe) += dt;

            const PhaseResult &pr = phases.back();
            const double ticks = static_cast<double>(pr.time);
            t.phaseTicks += ticks;
            t.utilTicks += pr.coreUtilization * ticks;
            t.stallLoadTicks += pr.stallLoad * ticks;
        }
        s = tr.begin("accumulateStage", root, point);
        accumulateStage(res, ps, i, std::move(phases), vaults,
                        machine->energy(), prev_energy);
        tr.end(s);
    }

    s = tr.begin("finishRunResult", root, point);
    finishRunResult(res, vaults, machine->energyActivity(),
                    machine->energy());
    res.simEvents = machine->simEvents();
    tr.end(s);

    t.simEvents += machine->simEvents();
    t.executed += machine->eventsExecuted();
    t.heapFallbacks += machine->heapFallbacks();
    for (unsigned v = 0; v < machine->numVaults(); ++v) {
        const VaultStats &vs = machine->vault(v).stats();
        t.dramRequests += vs.reads + vs.writes;
        t.activations += vs.rowActivations;
        t.rowHits += vs.rowHits;
        t.dramBytes += vs.bytesRead + vs.bytesWritten;
    }
    const NetworkStats ns = machine->network().stats();
    t.nocPackets += ns.packets;
    t.nocPayload += ns.payloadBytes;
    t.llcAccesses += machine->llcAccesses();

    s = tr.begin("~Machine", root, point);
    machine.reset();
    pool.reset();
    tr.end(s);
    return res;
}

/** ServedRunner::run under a span; folds its served metrics in. */
RunResult
tracedServed(const CampaignJob &job, Tracer &tr, int root, LayerTotals &t)
{
    const int s = tr.begin("ServedRunner::run", root, job.index);
    ServedRunner runner(job.workload(), job.traffic);
    RunResult res = runner.run(job.systemConfig(), job.scenario);
    t.served += tr.end(s);
    t.offered += res.served.offered;
    t.admitted += res.served.admitted;
    t.rejected += res.served.rejected;
    t.completed += res.served.completed;
    return res;
}

// --------------------------------------------------------- microbenches

/**
 * A self-rescheduling event chain: @p left events, each @p mask-bounded
 * pseudo-random delta (1 .. mask + 1 ticks) after the previous one.
 */
struct Chain
{
    EventQueue *eq;
    std::uint64_t left;
    std::uint64_t seed;
    Tick mask;

    static void
    step(Chain *ch)
    {
        if (--ch->left == 0)
            return;
        ch->seed = ch->seed * 6364136223846793005ull + 1442695040888963407ull;
        ch->eq->scheduleIn(1 + ((ch->seed >> 40) & ch->mask),
                           [ch]() { step(ch); });
    }
};

/**
 * Dense event-queue shape: 64 / 256 / 1024 chains with near-now deltas
 * up to 4096 ticks (the replay's in-flight population).
 */
double
denseQueueEventsPerSec()
{
    std::uint64_t events = 0;
    double seconds = 0.0;
    for (unsigned chains : {64u, 256u, 1024u}) {
        EventQueue eq;
        std::vector<Chain> state(chains);
        for (unsigned c = 0; c < chains; ++c) {
            state[c] = Chain{&eq, 4000000 / chains,
                             std::uint64_t{c} * 2654435761u, 4095};
            Chain *ch = &state[c];
            eq.schedule(Tick{c}, [ch]() { Chain::step(ch); });
        }
        const auto t0 = Clock::now();
        eq.run();
        seconds += since(t0);
        events += eq.executed();
    }
    return static_cast<double>(events) / seconds;
}

/**
 * Served event-queue shape: each arrival, far beyond the calendar
 * horizon from the previous one, starts a dense burst of near-now
 * chains (deltas up to 32 ticks) while the next arrival waits in the
 * overflow heap.
 */
double
sparseQueueEventsPerSec()
{
    constexpr unsigned kArrivals = 8, kBurst = 256, kSteps = 100;
    constexpr Tick kGap = Tick{1} << 28; // far beyond the horizon

    struct Source
    {
        EventQueue *eq;
        unsigned left;
        std::vector<Chain> chains;

        static void
        arrive(Source *src)
        {
            if (--src->left > 0)
                src->eq->scheduleIn(kGap, [src]() { arrive(src); });
            for (unsigned c = 0; c < kBurst; ++c) {
                Chain *ch = &src->chains[c];
                *ch = Chain{src->eq, kSteps,
                            (std::uint64_t{src->left} << 16) + c, 31};
                src->eq->scheduleIn(1 + c % 7, [ch]() { Chain::step(ch); });
            }
        }
    };
    EventQueue eq;
    Source src{&eq, kArrivals, std::vector<Chain>(kBurst)};
    Source *p = &src;
    eq.schedule(0, [p]() { Source::arrive(p); });
    const auto t0 = Clock::now();
    eq.run();
    return static_cast<double>(eq.executed()) / since(t0);
}

/** Fixed-latency memory for the trace-core microbench. */
class FixedPath : public MemoryPath
{
  public:
    FixedPath(EventQueue &eq, Tick latency) : eq_(eq), latency_(latency) {}

    Result
    request(Tick when, Addr, std::uint32_t, bool, bool, bool,
            DoneFn done) override
    {
        const Tick t = when + latency_;
        eq_.schedule(t, [done = std::move(done), t]() { done(t); });
        return Result{false, 0};
    }

  private:
    EventQueue &eq_;
    Tick latency_;
};

/** Trace core: a 2^22-tuple RLE streaming scan replayed. */
double
traceReplayOpsPerSec()
{
    TraceRecorder rec;
    rec.scanFixed(0, std::uint64_t{1} << 22, 16, 256, true, 1.25);
    rec.fence();
    const KernelTrace trace = rec.take();

    EventQueue eq;
    FixedPath path(eq, 50000);
    CoreConfig cfg;
    cfg.period = 1000;
    cfg.streamDepth = 8;
    TraceCore core(eq, cfg, path, 0);
    core.setTrace(&trace);
    const auto t0 = Clock::now();
    core.start();
    eq.run();
    const double dt = since(t0);
    if (!core.finished())
        fatal("trace replay microbench deadlocked");
    return static_cast<double>(trace.expandedSize()) / dt;
}

/** encodeFrame + decodeFrame over @p payloads; MB of payload per s. */
double
frameMBPerSec(const std::vector<std::string> &payloads, bool crc,
              bool &ok)
{
    std::uint64_t bytes = 0;
    std::string buf, out;
    const auto t0 = Clock::now();
    do {
        for (const std::string &p : payloads) {
            buf += encodeFrame(p, crc);
            if (decodeFrame(buf, out, crc) != 1 || out != p)
                ok = false;
            bytes += p.size();
        }
    } while (since(t0) < 0.25);
    return static_cast<double>(bytes) / 1e6 / since(t0);
}

// ------------------------------------------------------------------ trace

int
cmdTrace(const std::string &name, std::uint64_t seed, const Workload &w,
         const std::string &report_out, const std::string &spans_out)
{
    Tracer tr;
    LayerTotals t;
    const std::vector<CampaignJob> jobs = expandGrid(w.grid);

    CampaignReport report;
    report.grid = w.grid;
    report.runs.resize(jobs.size());

    std::size_t mismatches = 0;
    std::vector<double> untraced(jobs.size());
    std::vector<std::string> payloads;
    double traced_wall = 0.0;
    bool served_workload = false;
    for (const CampaignJob &job : jobs) {
        const int root = tr.begin("point", -1, job.index);
        RunResult traced;
        const double served_before = t.served;
        if (job.traffic.degenerate()) {
            traced = tracedRun(job, tr, root, t);
        } else {
            // The machine layer of a served point: its single-query
            // form, replayed call by call. The served event loop itself
            // is internal to ServedRunner::run, timed as one span.
            served_workload = true;
            CampaignJob single = job;
            single.traffic = TrafficSpec{};
            const RunResult probe = tracedRun(single, tr, root, t);
            if (runResultJson(probe) !=
                runResultJson(executeCampaignJob(single))) {
                std::fprintf(stderr, "point %zu: single-query replay "
                                     "differs from executeCampaignJob\n",
                             job.index);
                ++mismatches;
            }
            traced = tracedServed(job, tr, root, t);
        }
        int s = tr.begin("runResultJson", root, job.index);
        const std::string traced_json = runResultJson(traced);
        tr.end(s);
        const double root_wall = tr.end(root);
        traced_wall += job.traffic.degenerate() ? root_wall
                                                : t.served - served_before;

        // The untraced reference: the one call every campaign path
        // (in-process, worker, coordinator fallback) makes.
        s = tr.begin("executeCampaignJob", -1, job.index);
        RunResult ref = executeCampaignJob(job);
        untraced[job.index] = tr.end(s);
        std::string ref_json = runResultJson(ref);
        if (ref_json != traced_json) {
            std::fprintf(stderr, "point %zu (%s %s): traced result "
                                 "differs from executeCampaignJob\n",
                         job.index, systemKindName(job.system),
                         job.scenario.name.c_str());
            ++mismatches;
        }
        payloads.push_back(std::move(ref_json));
        report.runs[job.index].job = job;
        report.runs[job.index].result = std::move(ref);
    }

    // Workloads without traffic still measure the served layer, on a
    // small served probe grid at the same seed.
    if (!served_workload) {
        for (const CampaignJob &job :
             expandGrid(servedGrid(seed, 1, kServedQueries))) {
            const int root = tr.begin("served-probe", -1, job.index);
            tracedServed(job, tr, root, t);
            tr.end(root);
        }
    }

    for (SystemKind k : w.grid.systems) {
        if (k == SystemKind::kCpu) {
            report.baseline = systemKindName(k);
            report.summaries = summarizeRuns(w.grid, report.runs, k);
            break;
        }
    }
    std::string report_json;
    std::vector<double> serialize;
    const auto ser0 = Clock::now();
    while (serialize.size() < 5 || since(ser0) < 0.2) {
        const auto t0 = Clock::now();
        report_json = campaignReportJson(report);
        serialize.push_back(since(t0));
    }

    bool frames_ok = true;
    const double frame_plain = frameMBPerSec(payloads, false, frames_ok);
    const double frame_crc = frameMBPerSec(payloads, true, frames_ok);

    const double dense = denseQueueEventsPerSec();
    const double sparse = sparseQueueEventsPerSec();
    const double replay_ops = traceReplayOpsPerSec();

    if (!writeFile(report_out, report_json + '\n') ||
        !writeFile(spans_out, tr.json()))
        fatal("cannot write %s / %s", report_out.c_str(),
              spans_out.c_str());

    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    double untraced_wall = 0.0;
    for (double u : untraced)
        untraced_wall += u;

    Metrics m;
    m.set("engine.prepare_s", t.prepare);
    m.set("engine.rle_ratio", ratio(double(t.expandedOps),
                                    double(t.recordedOps)));
    m.set("machine.build_s", t.build);
    m.set("machine.replay_s", t.replay);
    m.set("machine.replay_partition_s", t.replayPartition);
    m.set("machine.replay_probe_s", t.replayProbe);
    m.set("machine.replay_events_per_s", ratio(double(t.simEvents),
                                               t.replay));
    m.set("machine.pop_ratio", ratio(double(t.executed),
                                     double(t.simEvents)));
    m.set("machine.heap_fallbacks", double(t.heapFallbacks));
    m.set("event_queue.dense_events_per_s", dense);
    m.set("event_queue.sparse_events_per_s", sparse);
    m.set("trace_core.replay_ops_per_s", replay_ops);
    m.set("served.run_s", t.served);
    m.set("served.host_ms_per_query", ratio(t.served * 1e3,
                                            double(t.offered)));
    m.set("served.admit_ratio", ratio(double(t.admitted),
                                      double(t.offered)));
    m.set("campaign.run_s_p50", percentile(untraced, 50));
    m.set("campaign.run_s_p90", percentile(untraced, 90));
    m.set("campaign.longest_run_s", percentile(untraced, 100));
    m.set("net.frame_mb_per_s", frame_plain);
    m.set("net.frame_crc_mb_per_s", frame_crc);
    m.set("report.serialize_s", median(serialize));
    m.set("report.bytes", double(report_json.size() + 1));
    m.set("trace.overhead_s", traced_wall - untraced_wall);
    m.set("dram.requests", double(t.dramRequests));
    m.set("dram.activations", double(t.activations));
    m.set("dram.row_hit_ratio", ratio(double(t.rowHits),
                                      double(t.rowHits + t.activations)));
    m.set("dram.bytes", double(t.dramBytes));
    m.set("noc.packets", double(t.nocPackets));
    m.set("noc.payload_bytes", double(t.nocPayload));
    m.set("cache.llc_accesses", double(t.llcAccesses));
    m.set("core.utilization", ratio(t.utilTicks, t.phaseTicks));
    m.set("core.stall_load", ratio(t.stallLoadTicks, t.phaseTicks));

    std::printf("{\"workload\": %s, \"points\": %zu, \"mismatches\": %zu, "
                "\"frames_ok\": %s, \"served_incomplete\": %llu, "
                "\"served_rejected\": %llu, \"untraced_point_s\": %s, "
                "\"metrics\": %s}\n",
                quoted(name).c_str(), jobs.size(), mismatches,
                frames_ok ? "true" : "false",
                static_cast<unsigned long long>(t.admitted - t.completed),
                static_cast<unsigned long long>(t.rejected),
                numArray(untraced).c_str(), m.json().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver args  WORKLOAD SEED\n"
                 "       perfbench_driver setup WORKLOAD SEED\n"
                 "       perfbench_driver trace WORKLOAD SEED REPORT_OUT "
                 "SPANS_OUT\n"
                 "workloads: smoke20-serial paper-fleet served-sessions\n");
    return 2;
}

bool
parseSeed(const char *text, std::uint64_t &seed)
{
    const char *end = text + std::strlen(text);
    auto res = std::from_chars(text, end, seed);
    return res.ec == std::errc() && res.ptr == end && end != text;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    const std::string cmd = argv[1];
    Workload w;
    std::uint64_t seed = 0;
    if (!parseSeed(argv[3], seed) || !makeWorkload(argv[2], seed, w))
        return usage();
    setVerbose(false);

    if (cmd == "args" && argc == 4) {
        std::printf("{\"campaign\": %s, \"coordinator\": %s, "
                    "\"profile\": %s, \"profile_index\": %zu, "
                    "\"points\": %zu, \"coordinator_is_grid\": %s}\n",
                    stringArray(w.campaign).c_str(),
                    stringArray(w.coordinator).c_str(),
                    stringArray(w.profile).c_str(), w.profileIndex,
                    w.grid.size(),
                    w.coordinatorIsGrid() ? "true" : "false");
        return 0;
    }
    if (cmd == "setup" && argc == 4)
        return cmdSetup(w);
    if (cmd == "trace" && argc == 6)
        return cmdTrace(argv[2], seed, w, argv[4], argv[5]);
    return usage();
}

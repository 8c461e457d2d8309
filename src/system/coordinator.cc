#include "system/coordinator.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "common/logging.hh"
#include "net/transport.hh"
#include "system/campaign_spec.hh"
#include "system/report.hh"

namespace mondrian {

const char *
faultKindName(FaultInjection::Kind kind)
{
    switch (kind) {
      case FaultInjection::Kind::kCrash: return "crash";
      case FaultInjection::Kind::kHang: return "hang";
      case FaultInjection::Kind::kCorrupt: return "corrupt";
      case FaultInjection::Kind::kDisconnect: return "disconnect";
    }
    return "crash";
}

bool
parseFaultInject(const std::string &spec, std::vector<FaultInjection> &out,
                 std::string &error)
{
    out.clear();
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        const std::size_t at = item.find('@');
        if (at == std::string::npos) {
            error = "fault '" + item + "': expected kind@index";
            return false;
        }
        FaultInjection f;
        const std::string kind = item.substr(0, at);
        if (kind == "crash") {
            f.kind = FaultInjection::Kind::kCrash;
        } else if (kind == "hang") {
            f.kind = FaultInjection::Kind::kHang;
        } else if (kind == "corrupt") {
            f.kind = FaultInjection::Kind::kCorrupt;
        } else if (kind == "disconnect") {
            f.kind = FaultInjection::Kind::kDisconnect;
        } else {
            error = "fault '" + item + "': unknown kind '" + kind +
                    "' (crash, hang, corrupt, disconnect)";
            return false;
        }
        std::string idx = item.substr(at + 1);
        if (!idx.empty() && idx.back() == '!') {
            f.sticky = true;
            idx.pop_back();
        }
        if (idx.empty() ||
            idx.find_first_not_of("0123456789") != std::string::npos) {
            error = "fault '" + item + "': '" + idx +
                    "' is not a job index";
            return false;
        }
        f.index = static_cast<std::size_t>(
            std::strtoull(idx.c_str(), nullptr, 10));
        out.push_back(f);
    }
    if (out.empty()) {
        error = "empty fault-injection spec";
        return false;
    }
    return true;
}

std::vector<std::vector<std::size_t>>
planShards(const std::vector<std::size_t> &indices, unsigned workers)
{
    if (workers == 0)
        workers = 1;
    std::vector<std::vector<std::size_t>> shards(workers);
    for (std::size_t i = 0; i < indices.size(); ++i)
        shards[i % workers].push_back(indices[i]);
    return shards;
}

std::string
shardPlanListing(const CampaignGrid &grid, unsigned workers,
                 const ResumeCache *resume)
{
    const std::vector<CampaignJob> jobs = expandGrid(grid);
    std::vector<std::size_t> pending;
    for (const CampaignJob &job : jobs) {
        if (resume && resume->find(campaignJobKey(job)))
            continue;
        pending.push_back(job.index);
    }
    auto shards = planShards(pending, workers);

    std::string out = "shard plan: " + std::to_string(workers) +
                      " workers, round-robin over " +
                      std::to_string(pending.size()) + " pending jobs\n";
    for (std::size_t w = 0; w < shards.size(); ++w) {
        out += "  worker " + std::to_string(w) + " (" +
               std::to_string(shards[w].size()) + " jobs):";
        for (std::size_t idx : shards[w])
            out += " [" + std::to_string(idx) + "]";
        out += "\n";
    }
    out += "(runtime assignment is dynamic pull-based; a failed worker's "
           "jobs are reassigned)\n";
    return out;
}

namespace {

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
selfExecutable()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0)
        return std::string(buf, static_cast<std::size_t>(n));
    return "/proc/self/exe";
}

/** Find a fault for @p index that has not fired yet (or is sticky). */
const FaultInjection *
pickFault(std::vector<FaultInjection> &faults, std::vector<bool> &fired,
          std::size_t index)
{
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (faults[i].index != index)
            continue;
        if (faults[i].sticky || !fired[i]) {
            fired[i] = true;
            return &faults[i];
        }
    }
    return nullptr;
}

} // namespace

// ------------------------------------------------- worker-side result cache

namespace {

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

/**
 * Cache entry path: the filename is a hash of the injective grid-point
 * key (keys embed scenario structure and can be long); the key itself
 * is stored INSIDE the entry and verified on read, so a hash collision
 * degrades to a miss, never a wrong result.
 */
std::string
workerCachePath(const std::string &dir, const std::string &key)
{
    return dir + "/" + hex16(fnv1a64(key)) + ".json";
}

bool
ensureWorkerCacheDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST)
        return true;
    std::fprintf(stderr,
                 "worker: cannot create cache dir '%s' (%s); caching "
                 "disabled\n",
                 dir.c_str(), std::strerror(errno));
    return false;
}

/**
 * Look @p key up in the cache at @p dir. On a hit, @p raw_result gets
 * the stored result subtree VERBATIM — exact-double JSON written by
 * workerCacheStore — so forwarding it upstream is byte-equivalent to
 * re-running the simulation. Unreadable, corrupt, or mismatched entries
 * are misses.
 */
bool
workerCacheLookup(const std::string &dir, const std::string &key,
                  std::string &raw_result)
{
    const std::string path = workerCachePath(dir, key);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();

    JournalEntry entry;
    std::string error;
    if (!decodeJournalLine(ss.str(), entry, error)) {
        std::fprintf(stderr, "worker: ignoring unusable cache entry %s: "
                     "%s\n", path.c_str(), error.c_str());
        return false;
    }
    if (entry.key != key)
        return false; // filename-hash collision or stale entry: a miss
    raw_result = std::move(entry.rawResultJson);
    return true;
}

/** Persist one finished job (atomically: tmp file + rename). The entry
 *  is exactly a campaign journal line, key and exact doubles included. */
void
workerCacheStore(const std::string &dir, const CampaignJob &job,
                 const RunResult &result)
{
    const std::string path = workerCachePath(dir, campaignJobKey(job));
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out)
        out << campaignJournalLine(job, result);
    out.close();
    if (!out || ::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "worker: cannot write cache entry %s (%s)\n",
                     path.c_str(), std::strerror(errno));
        ::unlink(tmp.c_str());
    }
}

} // namespace

// ------------------------------------------------------------------ worker

namespace {

/** How serveCampaignJobs() ended. */
enum class ServeStatus
{
    kExit,           ///< coordinator sent an orderly exit message
    kEof,            ///< channel hit EOF or a read error
    kDesync,         ///< unparseable traffic from the coordinator
    kDisconnectFault ///< an injected disconnect fault fired
};

/** Everything a worker's serve loop needs besides the channel. */
struct ServeContext
{
    const std::vector<CampaignJob> *jobs = nullptr;
    double heartbeatIntervalSec = 1.0;
    std::string cacheDir; ///< empty = no result cache
    /** Env-var fault plan (standalone chaos path) and its fired state;
     *  owned by the caller so stickiness survives TCP reconnects. */
    std::vector<FaultInjection> *envFaults = nullptr;
    std::vector<bool> *envFired = nullptr;
};

/**
 * The worker serve loop, shared verbatim by pipe workers (--worker) and
 * TCP workers (--worker-connect): answer job messages with result
 * frames, beat a heartbeat from a dedicated thread, apply injected
 * faults, and serve repeats from the result cache when one is
 * configured.
 */
ServeStatus
serveCampaignJobs(Transport &t, ServeContext &ctx)
{
    const std::vector<CampaignJob> &jobs = *ctx.jobs;
    const bool cache_ok =
        !ctx.cacheDir.empty() && ensureWorkerCacheDir(ctx.cacheDir);

    // Heartbeats come from a dedicated thread so a long-running
    // simulation never reads as a hang; the "hang" fault suppresses
    // them to exercise exactly that coordinator path.
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::atomic<bool> hb_suppress{false};
    std::thread heartbeat([&] {
        std::unique_lock<std::mutex> lock(hb_mutex);
        while (!hb_stop) {
            hb_cv.wait_for(lock, std::chrono::duration<double>(
                                     ctx.heartbeatIntervalSec));
            if (hb_stop)
                break;
            if (hb_suppress.load())
                continue;
            t.send("{\"type\": \"heartbeat\"}");
        }
    });
    auto stop_heartbeat = [&] {
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            hb_stop = true;
        }
        hb_cv.notify_all();
        heartbeat.join();
    };

    ServeStatus status = ServeStatus::kEof;
    std::string payload;
    for (;;) {
        if (!t.await(payload)) {
            status = ServeStatus::kEof;
            break;
        }
        JsonValue msg;
        std::string parse_error;
        if (!parseJson(payload, msg, parse_error)) {
            std::fprintf(stderr, "worker: bad message: %s\n",
                         parse_error.c_str());
            status = ServeStatus::kDesync;
            break;
        }
        const JsonValue *type = msg.find("type");
        if (!type || type->asString() == "exit") {
            status = ServeStatus::kExit;
            break;
        }
        if (type->asString() != "job")
            continue;
        const JsonValue *idx = msg.find("index");
        if (!idx || idx->asU64() >= jobs.size()) {
            std::fprintf(stderr, "worker: job index out of range\n");
            status = ServeStatus::kDesync;
            break;
        }
        const std::size_t index = static_cast<std::size_t>(idx->asU64());

        // Fault to apply on this attempt: the coordinator's directive
        // wins; otherwise the env-var path.
        std::string fault;
        if (const JsonValue *f = msg.find("fault"))
            fault = f->asString();
        if (fault.empty() && ctx.envFaults) {
            if (const FaultInjection *f =
                    pickFault(*ctx.envFaults, *ctx.envFired, index))
                fault = faultKindName(f->kind);
        }
        if (fault == "crash") {
            // Die without a result or an exit frame — exactly what an
            // OOM kill or a segfault looks like from the coordinator.
            std::_Exit(70);
        }
        if (fault == "hang") {
            // Wedge: stop heartbeating and never answer. The
            // coordinator's heartbeat timeout must kill us.
            hb_suppress.store(true);
            for (;;)
                std::this_thread::sleep_for(std::chrono::hours(1));
        }
        if (fault == "disconnect") {
            // Drop the channel mid-job without a result — what a cable
            // pull looks like. A pipe worker just exits (the
            // coordinator sees EOF and respawns); a --worker-connect
            // worker reconnects and rejoins as a fresh worker.
            status = ServeStatus::kDisconnectFault;
            break;
        }
        if (fault == "corrupt") {
            // A well-formed frame whose result subtree fails
            // readRunResult validation.
            JsonWriter w;
            w.beginObject();
            w.member("type", "result");
            w.member("index", std::uint64_t{index});
            w.key("result").beginObject();
            w.member("corrupt", true);
            w.endObject();
            w.endObject();
            t.send(JsonWriter::compact(w.str()));
            continue;
        }

        if (cache_ok) {
            std::string raw;
            if (workerCacheLookup(ctx.cacheDir, campaignJobKey(jobs[index]),
                                  raw)) {
                // The stored subtree carries exact doubles, so splicing
                // it verbatim is byte-equivalent to re-simulating.
                std::fprintf(stderr, "worker: cache hit for job %zu\n",
                             index);
                t.send("{\"type\": \"result\", \"index\": " +
                       std::to_string(index) +
                       ", \"cached\": true, \"result\": " + raw + "}");
                continue;
            }
        }

        try {
            const RunResult result = executeCampaignJob(jobs[index]);
            JsonWriter w;
            // Exact doubles: the coordinator re-parses this into a
            // bit-identical RunResult, so the merged report matches an
            // in-process run byte-for-byte.
            w.setPreciseDoubles(true);
            w.beginObject();
            w.member("type", "result");
            w.member("index", std::uint64_t{index});
            w.key("result");
            writeRunResult(w, result);
            w.endObject();
            t.send(JsonWriter::compact(w.str()));
            if (cache_ok)
                workerCacheStore(ctx.cacheDir, jobs[index], result);
        } catch (const std::exception &e) {
            JsonWriter w;
            w.beginObject();
            w.member("type", "error");
            w.member("index", std::uint64_t{index});
            w.member("message", std::string(e.what()));
            w.endObject();
            t.send(JsonWriter::compact(w.str()));
        }
    }

    stop_heartbeat();
    return status;
}

/** Parse MONDRIAN_FAULT_INJECT; false (with a message) on bad grammar. */
bool
loadEnvFaults(std::vector<FaultInjection> &out)
{
    if (const char *env = std::getenv("MONDRIAN_FAULT_INJECT");
        env && *env) {
        std::string fault_error;
        if (!parseFaultInject(env, out, fault_error)) {
            std::fprintf(stderr, "worker: MONDRIAN_FAULT_INJECT: %s\n",
                         fault_error.c_str());
            return false;
        }
    }
    return true;
}

/**
 * Range of beat periods a worker accepts from the spec message; a
 * coordinator sends min(1, max(0.02, heartbeat timeout / 4)) seconds.
 */
constexpr double kMinHeartbeatIntervalSec = 0.01;
constexpr double kMaxHeartbeatIntervalSec = 60.0;

/** How joinCoordinator() ended. */
enum class JoinStatus
{
    kJoined,  ///< handshake complete: serve jobs
    kDropped, ///< the channel failed mid-handshake (worth a redial)
    kRefused  ///< rejected, or a bad spec or beat period (final)
};

/**
 * The worker side of the one handshake every worker goes through,
 * local or remote: hello(pid, token) -> spec(spec, heartbeat_interval)
 * -> ready(jobs). On kJoined, @p jobs is the expanded grid and
 * @p heartbeat_sec the validated beat period; otherwise @p why names
 * the failure.
 */
JoinStatus
joinCoordinator(Transport &t, const std::string &token,
                std::vector<CampaignJob> &jobs, double &heartbeat_sec,
                std::string &why)
{
    {
        JsonWriter w;
        w.beginObject();
        w.member("type", "hello");
        w.member("pid", std::uint64_t(::getpid()));
        w.member("token", token);
        w.endObject();
        if (!t.send(JsonWriter::compact(w.str()))) {
            why = "connection dropped during hello";
            return JoinStatus::kDropped;
        }
    }

    std::string payload;
    if (!t.await(payload)) {
        why = "connection dropped before the campaign spec arrived";
        return JoinStatus::kDropped;
    }
    JsonValue msg;
    std::string error;
    if (!parseJson(payload, msg, error)) {
        why = "bad handshake message: " + error;
        return JoinStatus::kRefused;
    }
    const JsonValue *type = msg.find("type");
    const std::string kind = type ? type->asString() : "";
    if (kind == "reject") {
        const JsonValue *reason = msg.find("reason");
        why = "coordinator rejected us: " +
              (reason ? reason->asString() : "no reason given");
        return JoinStatus::kRefused; // a retry would be rejected too
    }
    if (kind != "spec") {
        why = "expected a spec message, got '" + kind + "'";
        return JoinStatus::kRefused;
    }
    const JsonValue *spec_text = msg.find("spec");
    CampaignGrid grid;
    if (!spec_text || !spec_text->isString() ||
        !parseCampaignSpec(spec_text->asString(), grid, error) ||
        !validateGrid(grid, error)) {
        why = "bad campaign spec over the wire: " + error;
        return JoinStatus::kRefused;
    }
    // The beat period feeds a timed wait: zero, negative or non-finite
    // would spin the heartbeat thread and flood the channel, a huge
    // value would overflow the clock arithmetic.
    const JsonValue *hb = msg.find("heartbeat_interval");
    const double beat = hb && hb->isNumber() ? hb->asDouble() : 0.0;
    if (!std::isfinite(beat) || beat <= 0.0) {
        why = "bad heartbeat_interval in the spec message";
        return JoinStatus::kRefused;
    }
    heartbeat_sec = std::clamp(beat, kMinHeartbeatIntervalSec,
                               kMaxHeartbeatIntervalSec);
    jobs = expandGrid(grid);

    JsonWriter w;
    w.beginObject();
    w.member("type", "ready");
    w.member("jobs", std::uint64_t{jobs.size()});
    w.endObject();
    if (!t.send(JsonWriter::compact(w.str()))) {
        why = "connection dropped during the ready reply";
        return JoinStatus::kDropped;
    }
    return JoinStatus::kJoined;
}

} // namespace

int
runCampaignWorker(const std::string &cache_dir)
{
    std::vector<FaultInjection> env_faults;
    if (!loadEnvFaults(env_faults))
        return 2;
    std::vector<bool> env_fired(env_faults.size(), false);

    // The coordinator hands us our end of a socketpair on fd 0.
    Transport t{Socket(STDIN_FILENO)};
    std::vector<CampaignJob> jobs;
    ServeContext ctx;
    std::string why;
    if (joinCoordinator(t, "", jobs, ctx.heartbeatIntervalSec, why) !=
        JoinStatus::kJoined) {
        std::fprintf(stderr, "worker: %s\n", why.c_str());
        return kExitNetwork;
    }
    ctx.jobs = &jobs;
    ctx.cacheDir = cache_dir;
    ctx.envFaults = &env_faults;
    ctx.envFired = &env_fired;
    serveCampaignJobs(t, ctx);
    return 0;
}

int
runConnectWorker(const std::string &endpoint_spec,
                 const ConnectWorkerOptions &options)
{
    Endpoint ep;
    std::string error;
    if (!parseEndpoint(endpoint_spec, ep, error)) {
        std::fprintf(stderr, "worker: %s\n", error.c_str());
        return 2;
    }

    std::vector<FaultInjection> env_faults;
    if (!loadEnvFaults(env_faults))
        return 2;
    std::vector<bool> env_fired(env_faults.size(), false);

    // Consecutive connect/rejoin failures; reset by a successful join so
    // a long campaign tolerates any number of isolated drops.
    unsigned failures = 0;
    auto fail_retry = [&](const std::string &why) -> bool {
        ++failures;
        if (failures > options.reconnectAttempts) {
            std::fprintf(stderr, "worker: %s; giving up after %u "
                         "consecutive failures\n", why.c_str(), failures);
            return false;
        }
        const double backoff = failures * options.reconnectBackoffSec;
        std::fprintf(stderr, "worker: %s; retrying in %.1fs (%u/%u)\n",
                     why.c_str(), backoff, failures,
                     options.reconnectAttempts);
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        return true;
    };

    std::vector<CampaignJob> jobs;
    for (;;) {
        Socket conn = Socket::connect(ep, error);
        if (!conn.valid()) {
            if (!fail_retry(error))
                return kExitNetwork;
            continue;
        }
        Transport t(std::move(conn));
        ServeContext ctx;
        std::string why;
        const JoinStatus joined = joinCoordinator(
            t, options.helloToken, jobs, ctx.heartbeatIntervalSec, why);
        if (joined == JoinStatus::kRefused) {
            std::fprintf(stderr, "worker: %s\n", why.c_str());
            return kExitNetwork;
        }
        if (joined == JoinStatus::kDropped) {
            if (!fail_retry(why))
                return kExitNetwork;
            continue;
        }
        std::fprintf(stderr, "worker: joined %s (%zu jobs in the grid)\n",
                     ep.name().c_str(), jobs.size());
        failures = 0;

        ctx.jobs = &jobs;
        ctx.cacheDir = options.cacheDir;
        ctx.envFaults = &env_faults;
        ctx.envFired = &env_fired;
        const ServeStatus st = serveCampaignJobs(t, ctx);
        t.close();
        if (st == ServeStatus::kExit)
            return 0; // orderly campaign end
        const char *why_lost = st == ServeStatus::kDisconnectFault
                                   ? "injected disconnect fault"
                                   : "connection to the coordinator lost";
        if (!fail_retry(why_lost))
            return kExitNetwork;
    }
}

// ------------------------------------------------------------- coordinator

namespace {

/** One worker channel — a local subprocess over a socketpair or a
 *  remote TCP connection; the event loop treats them uniformly. */
struct WorkerChan
{
    unsigned id = 0;
    std::unique_ptr<Transport> transport;
    pid_t pid = -1; ///< local subprocess pid; -1 for remote workers
    bool remote = false;
    bool alive = false;
    bool hello = false;
    /** Assignable: the hello/spec/ready handshake completed. */
    bool ready = false;
    double lastSeen = 0.0;
    double jobStart = 0.0;
    std::ptrdiff_t job = -1; ///< assigned grid index, -1 when idle
};

} // namespace

bool
CampaignCoordinator::listen(std::string &error)
{
    if (config_.listenEndpoint.empty() || listenSocket_.valid())
        return true;
    Endpoint ep;
    if (!parseEndpoint(config_.listenEndpoint, ep, error))
        return false;
    Socket s = Socket::listen(ep, error);
    if (!s.valid() || !s.setNonBlocking(error))
        return false;
    listenSocket_ = std::move(s);
    inform("coordinator: listening for remote workers on %s (port %u)",
           ep.name().c_str(), unsigned{listenSocket_.localPort()});
    return true;
}

std::uint16_t
CampaignCoordinator::listenPort() const
{
    return listenSocket_.valid() ? listenSocket_.localPort() : 0;
}

CampaignReport
CampaignCoordinator::run()
{
    std::string grid_error;
    if (!validateGrid(grid_, grid_error))
        throw std::invalid_argument("invalid campaign grid: " + grid_error);

    if (!config_.listenEndpoint.empty() && !listenSocket_.valid()) {
        std::string listen_error;
        if (!listen(listen_error))
            throw std::runtime_error(listen_error);
    }
    const bool listening = listenSocket_.valid();

    CampaignReport report;
    std::deque<std::pair<std::size_t, double>> pending; // (index, readyAt)
    for (std::size_t index : startCampaignReport(grid_, resume_, report))
        pending.push_back({index, 0.0});
    const std::size_t job_count = report.runs.size();

    const std::size_t target = pending.size();
    std::size_t completed = 0, failed = 0;
    std::vector<bool> done(job_count, false); ///< a worker delivered it
    std::vector<unsigned> attempts(job_count, 0);
    std::vector<FaultInjection> faults = config_.faults;
    std::vector<bool> fault_fired(faults.size(), false);

    // Degraded in-process execution of every job the workers did not
    // resolve (spawn failure fallback); also reused when the worker
    // population proves unusable mid-campaign.
    auto run_in_process = [&] {
        std::vector<std::size_t> todo;
        for (std::size_t i = 0; i < job_count; ++i)
            if (!done[i] && !report.runs[i].cached &&
                !report.runs[i].failed)
                todo.push_back(i);
        executeCampaignSlots(report, todo, std::max(1u, config_.workers),
                             abort_, progress_);
    };
    if (target == 0) {
        finishCampaignReport(report);
        return report;
    }
    // Nothing to run workers with and nobody to wait for: execute
    // in-process rather than spinning forever.
    if (!listening && config_.workers == 0) {
        run_in_process();
        finishCampaignReport(report);
        return report;
    }

    // --------------------------------------------------- spawn machinery
    std::vector<std::string> argv = config_.workerCommand;
    if (argv.empty())
        argv = {selfExecutable()};
    argv.push_back("--worker");
    if (!config_.workerCacheDir.empty()) {
        argv.push_back("--worker-cache");
        argv.push_back(config_.workerCacheDir);
    }
    // The handshake's spec message, the same for every worker.
    JsonWriter spec_writer;
    spec_writer.beginObject();
    spec_writer.member("type", "spec");
    spec_writer.member("spec", campaignSpecJson(grid_));
    spec_writer.member(
        "heartbeat_interval",
        std::min(1.0, std::max(0.02, config_.heartbeatTimeoutSec / 4.0)));
    spec_writer.endObject();
    const std::string spec_msg = JsonWriter::compact(spec_writer.str());

    std::vector<WorkerChan> workers;
    unsigned next_worker_id = 0;
    bool any_hello_ever = false;
    unsigned no_hello_deaths = 0;
    unsigned consecutive_failures = 0;
    bool degraded = false;

    auto spawn_worker = [&]() -> bool {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) < 0)
            return false;
        Socket chan(sv[0]), child_end(sv[1]);
        std::string nb_error;
        if (!chan.setNonBlocking(nb_error))
            return false;
        const pid_t pid = ::fork();
        if (pid < 0)
            return false;
        if (pid == 0) {
            // The channel becomes fd 0 (dup2 clears close-on-exec; both
            // socketpair ends close at exec). Stdout goes to stderr: the
            // coordinator's stdout may be carrying the report.
            if (child_end.fd() == STDIN_FILENO)
                ::fcntl(STDIN_FILENO, F_SETFD, 0);
            else
                ::dup2(child_end.fd(), STDIN_FILENO);
            ::dup2(STDERR_FILENO, STDOUT_FILENO);
            // Faults are the coordinator's to deliver (one-shot, via
            // job messages); a user-level env fault must not also
            // re-fire inside every respawned worker.
            ::unsetenv("MONDRIAN_FAULT_INJECT");
            std::vector<char *> args;
            for (std::string &a : argv)
                args.push_back(a.data());
            args.push_back(nullptr);
            ::execv(args[0], args.data());
            std::_Exit(127);
        }
        child_end.close();
        WorkerChan w;
        w.id = next_worker_id++;
        w.pid = pid;
        w.transport = std::make_unique<Transport>(std::move(chan));
        w.alive = true;
        w.lastSeen = monotonicSeconds();
        workers.push_back(std::move(w));
        return true;
    };

    auto reap_worker = [&](WorkerChan &w) {
        if (w.pid > 0) {
            ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, nullptr, 0);
            w.pid = -1;
        }
        if (w.transport)
            w.transport->close();
        w.alive = false;
        w.ready = false;
    };

    auto attempt_failed = [&](std::size_t index, const std::string &why) {
        ++attempts[index];
        if (attempts[index] > config_.maxRetries) {
            report.runs[index].failed = true;
            report.failedRuns.push_back({index, attempts[index], why});
            ++failed;
            warn("coordinator: job %zu failed permanently after %u "
                 "attempts: %s", index, attempts[index], why.c_str());
        } else {
            const double backoff =
                attempts[index] * config_.retryBackoffSec;
            pending.push_back({index, monotonicSeconds() + backoff});
            inform("coordinator: job %zu attempt %u failed (%s); "
                   "retrying in %.1fs", index, attempts[index],
                   why.c_str(), backoff);
        }
    };

    auto worker_lost = [&](WorkerChan &w, const std::string &why) {
        // Only local subprocess deaths feed the degradation counters: a
        // remote worker dropping off the network says nothing about
        // whether THIS host can run workers.
        const bool local = !w.remote;
        const bool had_hello = w.hello;
        reap_worker(w);
        if (local) {
            ++consecutive_failures;
            if (!had_hello)
                ++no_hello_deaths;
        }
        if (w.job >= 0) {
            attempt_failed(static_cast<std::size_t>(w.job),
                           "worker " + std::to_string(w.id) + " " + why);
            w.job = -1;
        }
    };

    // ------------------------------------------------------- event loop
    while (completed + failed < target) {
        if (abort_ && abort_->load()) {
            report.aborted = true;
            break;
        }
        const double t = monotonicSeconds();

        // Kill wedged or overrunning workers.
        for (WorkerChan &w : workers) {
            if (!w.alive)
                continue;
            if (w.job >= 0 && t - w.jobStart > config_.jobTimeoutSec) {
                warn("coordinator: worker %u exceeded the %.1fs job "
                     "timeout on job %td; killing it", w.id,
                     config_.jobTimeoutSec, w.job);
                worker_lost(w, "hit the job timeout");
            } else if (t - w.lastSeen > config_.heartbeatTimeoutSec) {
                warn("coordinator: worker %u silent for %.1fs "
                     "(heartbeat timeout); killing it", w.id,
                     t - w.lastSeen);
                worker_lost(w, "stopped heartbeating");
            }
        }

        // Unusable-population safety nets -> degrade to in-process.
        // Disabled while listening: with remote workers expected, the
        // right behavior is to keep waiting for them, not to silently
        // run the campaign on the coordinator host.
        if (!listening) {
            if (!any_hello_ever && config_.workers > 0 &&
                no_hello_deaths >= config_.workers) {
                warn("coordinator: workers cannot spawn (%u died before "
                     "hello); degrading to in-process execution",
                     no_hello_deaths);
                degraded = true;
            }
            if (consecutive_failures >
                config_.workers * (config_.maxRetries + 1) + 4) {
                warn("coordinator: %u consecutive worker failures; "
                     "degrading to in-process execution",
                     consecutive_failures);
                degraded = true;
            }
            if (degraded)
                break;
        }

        // Keep the LOCAL population at min(workers, outstanding jobs);
        // remote workers add capacity beyond that.
        const std::size_t outstanding = target - completed - failed;
        std::size_t local_alive = 0;
        for (const WorkerChan &w : workers)
            local_alive += (w.alive && !w.remote) ? 1 : 0;
        while (local_alive <
               std::min<std::size_t>(config_.workers, outstanding)) {
            if (!spawn_worker()) {
                if (listening) {
                    warn("coordinator: cannot spawn local worker (%s); "
                         "relying on remote workers",
                         std::strerror(errno));
                    break;
                }
                warn("coordinator: cannot spawn worker (%s); degrading "
                     "to in-process execution", std::strerror(errno));
                degraded = true;
                break;
            }
            ++local_alive;
        }
        if (degraded)
            break;

        // Assign ready pending jobs to idle workers.
        for (WorkerChan &w : workers) {
            if (!w.alive || !w.ready || w.job >= 0 || pending.empty())
                continue;
            // Jobs in backoff stay queued until their readyAt passes.
            auto ready = pending.end();
            for (auto it = pending.begin(); it != pending.end(); ++it) {
                if (it->second <= t) {
                    ready = it;
                    break;
                }
            }
            if (ready == pending.end())
                continue;
            const std::size_t index = ready->first;
            pending.erase(ready);

            JsonWriter msg;
            msg.beginObject();
            msg.member("type", "job");
            msg.member("index", std::uint64_t{index});
            if (const FaultInjection *f =
                    pickFault(faults, fault_fired, index))
                msg.member("fault", faultKindName(f->kind));
            msg.endObject();
            w.job = static_cast<std::ptrdiff_t>(index);
            w.jobStart = t;
            if (!w.transport->send(JsonWriter::compact(msg.str()))) {
                // Dead before the assignment landed: requeue with no
                // attempt penalty, recycle the worker.
                w.job = -1;
                pending.push_front({index, t});
                worker_lost(w, "rejected a job assignment");
            }
        }

        // Wait for worker traffic (bounded so timeouts/abort stay live).
        std::vector<pollfd> fds;
        std::vector<std::size_t> fd_worker; // SIZE_MAX = the listener
        if (listening) {
            fds.push_back({listenSocket_.fd(), POLLIN, 0});
            fd_worker.push_back(SIZE_MAX);
        }
        for (std::size_t i = 0; i < workers.size(); ++i) {
            if (!workers[i].alive)
                continue;
            fds.push_back({workers[i].transport->fd(), POLLIN, 0});
            fd_worker.push_back(i);
        }
        if (fds.empty())
            continue;
        ::poll(fds.data(), fds.size(), 100);

        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (fd_worker[i] == SIZE_MAX) {
                // Accept every pending remote connection; each is a new
                // worker that must still pass the hello handshake.
                for (;;) {
                    std::string accept_error;
                    Socket conn = listenSocket_.accept(accept_error);
                    if (!conn.valid()) {
                        if (!accept_error.empty())
                            warn("coordinator: %s", accept_error.c_str());
                        break;
                    }
                    std::string nb_error;
                    if (!conn.setNonBlocking(nb_error)) {
                        warn("coordinator: dropping connection: %s",
                             nb_error.c_str());
                        continue;
                    }
                    WorkerChan w;
                    w.id = next_worker_id++;
                    w.remote = true;
                    w.alive = true;
                    w.transport =
                        std::make_unique<Transport>(std::move(conn));
                    w.lastSeen = monotonicSeconds();
                    inform("coordinator: remote worker %u connected",
                           w.id);
                    workers.push_back(std::move(w));
                }
                continue;
            }
            WorkerChan &w = workers[fd_worker[i]];
            const Transport::Pump pumped = w.transport->pump();
            const bool gone = pumped == Transport::Pump::kEof ||
                              pumped == Transport::Pump::kError;

            // Parse every complete message.
            bool desync = false, rejected = false;
            std::string payload;
            int st;
            while ((st = w.transport->next(payload)) == 1) {
                JsonValue msg;
                std::string parse_error;
                if (!parseJson(payload, msg, parse_error)) {
                    desync = true;
                    break;
                }
                const JsonValue *type = msg.find("type");
                const std::string kind = type ? type->asString() : "";
                w.lastSeen = monotonicSeconds();
                if (kind == "hello") {
                    // Only an accepted TCP connection can be a third
                    // party; a socketpair peer is our own child.
                    const JsonValue *tok = msg.find("token");
                    if (w.remote &&
                        (tok && tok->isString() ? tok->asString() : "") !=
                            config_.helloToken) {
                        warn("coordinator: remote worker %u sent a bad "
                             "hello token; rejecting it", w.id);
                        w.transport->send("{\"type\": \"reject\", "
                                          "\"reason\": \"bad hello "
                                          "token\"}");
                        rejected = true;
                        break;
                    }
                    w.hello = true;
                    any_hello_ever = true;
                    if (!w.transport->send(spec_msg)) {
                        desync = true;
                        break;
                    }
                } else if (kind == "ready") {
                    // The worker expanded the spec we shipped; a job
                    // count mismatch means we would be assigning indices
                    // into a DIFFERENT grid — never assign to it.
                    const JsonValue *count = msg.find("jobs");
                    if (!w.hello || !count || count->asU64() != job_count) {
                        desync = true;
                        break;
                    }
                    w.ready = true;
                    if (w.remote)
                        inform("coordinator: remote worker %u ready", w.id);
                } else if (kind == "heartbeat") {
                    // lastSeen refresh above is the whole point
                } else if (kind == "result" || kind == "error") {
                    const JsonValue *idx = msg.find("index");
                    if (!idx ||
                        idx->asU64() >= job_count ||
                        w.job !=
                            static_cast<std::ptrdiff_t>(idx->asU64())) {
                        desync = true;
                        break;
                    }
                    const std::size_t index =
                        static_cast<std::size_t>(idx->asU64());
                    w.job = -1;
                    if (kind == "error") {
                        const JsonValue *m = msg.find("message");
                        attempt_failed(index,
                                       m ? m->asString()
                                         : "worker error");
                        continue;
                    }
                    const JsonValue *result = msg.find("result");
                    RunResult parsed;
                    if (!result || !readRunResult(*result, parsed)) {
                        attempt_failed(index, "corrupt result frame");
                        continue;
                    }
                    const JsonValue *cached = msg.find("cached");
                    if (cached && cached->kind == JsonValue::Kind::kBool &&
                        cached->boolean)
                        ++report.workerCacheHits;
                    report.runs[index].result = std::move(parsed);
                    consecutive_failures = 0;
                    done[index] = true;
                    ++completed;
                    if (progress_)
                        progress_(report.runs[index]);
                } else {
                    desync = true;
                    break;
                }
            }
            if (st < 0)
                desync = true;
            if (rejected) {
                // Not a worker failure: it never held a job, and its
                // death must not feed the degradation counters.
                reap_worker(w);
                continue;
            }
            if (desync) {
                warn("coordinator: worker %u broke the frame protocol; "
                     "dropping it", w.id);
                worker_lost(w, "broke the frame protocol");
                continue;
            }
            if (gone)
                worker_lost(w, w.remote ? "disconnected"
                                        : "exited unexpectedly");
        }
    }

    // ------------------------------------------------------- shutdown
    for (WorkerChan &w : workers) {
        if (!w.alive || !w.transport)
            continue;
        w.transport->send("{\"type\": \"exit\"}");
        w.transport->shutdownSend();
    }
    const double shutdown_start = monotonicSeconds();
    for (WorkerChan &w : workers) {
        if (w.remote) {
            if (w.alive) {
                w.transport->close();
                w.alive = false;
            }
            continue;
        }
        while (w.alive && w.pid > 0) {
            const pid_t r = ::waitpid(w.pid, nullptr, WNOHANG);
            if (r == w.pid || (r < 0 && errno == ECHILD)) {
                w.pid = -1;
                w.transport->close();
                w.alive = false;
                break;
            }
            if (monotonicSeconds() - shutdown_start > 2.0) {
                reap_worker(w);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    if (degraded)
        run_in_process();
    finishCampaignReport(report);
    return report;
}

} // namespace mondrian

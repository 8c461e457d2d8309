#!/usr/bin/env python3
"""The repository benchmark: three reference workloads run through
mondrian_campaign exactly as a user runs them, with their outputs checked.

    python3 perfbench/run.py --workload NAME --seed N \
        [--seconds S] [--trace 0|1]

Run it from the root of a checkout. The first run builds the simulator
(Release + LTO) and a -pg profiling tree under $CARGO_TARGET_DIR
(default .bench_build). With --trace 0 it prints the end-to-end metrics,
with --trace 1 the per-layer metrics of a separate traced run; either way
the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. A failed check prints
correct=false and exits 1. Unknown flags and --help exit 2 without running
or writing anything. perfbench/README.md describes every workload and
metric.
"""

import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("smoke20-serial", "paper-fleet", "served-sessions")

END_TO_END = {
    "wall_s": "s",
    "sim_events_per_s": "events/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "run_ok_ratio": "ratio",
}

PROF_LAYERS = ("cache", "dram", "noc", "event_queue", "machine",
               "trace_core", "engine", "other")

PER_LAYER = {
    "engine.prepare_s": "s",
    "engine.rle_ratio": "ratio",
    "machine.build_s": "s",
    "machine.replay_s": "s",
    "machine.replay_partition_s": "s",
    "machine.replay_probe_s": "s",
    "machine.replay_events_per_s": "events/s",
    "machine.pop_ratio": "ratio",
    "machine.heap_fallbacks": "count",
    "event_queue.dense_events_per_s": "events/s",
    "event_queue.sparse_events_per_s": "events/s",
    "trace_core.replay_ops_per_s": "ops/s",
    "served.run_s": "s",
    "served.host_ms_per_query": "ms",
    "served.admit_ratio": "ratio",
    "campaign.run_s_p50": "s",
    "campaign.run_s_p90": "s",
    "campaign.longest_run_s": "s",
    "coordinator.overhead_s": "s",
    "coordinator.retries": "count",
    "net.frame_mb_per_s": "MB/s",
    "net.frame_crc_mb_per_s": "MB/s",
    "report.serialize_s": "s",
    "report.bytes": "bytes",
    "trace.overhead_s": "s",
    **{f"prof.{layer}.share": "share" for layer in PROF_LAYERS},
    "prof.pg_slowdown": "ratio",
    "dram.requests": "count",
    "dram.activations": "count",
    "dram.row_hit_ratio": "ratio",
    "dram.bytes": "bytes",
    "noc.packets": "count",
    "noc.payload_bytes": "bytes",
    "cache.llc_accesses": "count",
    "core.utilization": "ratio",
    "core.stall_load": "ratio",
}

# Every process a workload starts: the coordinator plus three workers at
# most, so one machine of four hardware threads runs it uncontended.
FLEET_WORKERS = "3"
CAMPAIGN_TIMEOUT_S = 170

USAGE = ("usage: run.py --workload NAME --seed N [--seconds S] "
         "[--trace 0|1]\n  workloads: " + " ".join(WORKLOADS) + "\n")


class CheckFailed(Exception):
    """A run whose outputs failed a check."""


def usage_exit(msg=None):
    if msg:
        sys.stderr.write(f"run.py: {msg}\n")
    sys.stderr.write(USAGE)
    sys.exit(2)


def parse_args(argv):
    """Strict flag parsing: anything unexpected exits 2 before any work."""
    opts = {"seconds": 30, "trace": 0}
    seen = set()
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            usage_exit(None if flag in ("-h", "--help")
                       else f"unknown argument '{flag}'")
        if i + 1 >= len(argv):
            usage_exit(f"{flag} needs a value")
        if flag in seen:
            usage_exit(f"{flag} given twice")
        seen.add(flag)
        value = argv[i + 1]
        key = flag[2:]
        if key == "workload":
            if value not in WORKLOADS:
                usage_exit(f"unknown workload '{value}'")
            opts[key] = value
        else:
            if not value.isdigit():
                usage_exit(f"{flag} takes a non-negative integer")
            opts[key] = int(value)
        i += 2
    if "workload" not in opts or "seed" not in opts:
        usage_exit("--workload and --seed are required")
    if opts["trace"] not in (0, 1) or opts["seconds"] < 1:
        usage_exit("--trace is 0 or 1 and --seconds at least 1")
    return opts


# ------------------------------------------------------------------ build

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(cmd, log):
    with open(log, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=900).returncode


def build(bdir):
    """Build the release tree (Release + LTO) and the -pg tree (LTO off,
    -pg through cache flags). Returns {tree: binary dir}."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.stderr.write("run.py: no simulator sources in the checkout "
                         f"root {ROOT}; nothing to build\n")
        sys.exit(1)
    os.makedirs(bdir, exist_ok=True)
    trees = {
        "release": ([], ["mondrian_campaign", "perfbench_driver"]),
        "pg": (["-DMONDRIAN_NO_IPO=ON", "-DCMAKE_CXX_FLAGS=-pg",
                "-DCMAKE_EXE_LINKER_FLAGS=-pg"], ["mondrian_campaign"]),
    }
    out = {}
    for tree, (flags, targets) in trees.items():
        tdir = os.path.join(bdir, tree)
        log = os.path.join(bdir, f"build-{tree}.log")
        rc = 0
        if not os.path.isfile(os.path.join(tdir, "CMakeCache.txt")):
            rc = run_logged(["cmake", "-S", HERE, "-B", tdir,
                             "-DCMAKE_BUILD_TYPE=Release"] + flags, log)
        if rc == 0:
            rc = run_logged(["cmake", "--build", tdir, "-j",
                             str(os.cpu_count() or 1), "--target"]
                            + targets, log)
        if rc != 0:
            with open(log, errors="replace") as f:
                sys.stderr.write("".join(f.readlines()[-30:]))
            sys.stderr.write(f"run.py: {tree} build failed (log {log})\n")
            sys.exit(1)
        out[tree] = tdir
    return out


# -------------------------------------------------------------- processes

def run_tool(cmd, out_path, err_path, cwd=None, timeout=CAMPAIGN_TIMEOUT_S):
    """Run @cmd to completion in its own process group; returns
    (exit code, wall seconds, peak RSS in MiB of it and every descendant
    it waited for). A timeout kills the whole group and fails the run."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd,
                                start_new_session=True)
        # A blocking wait keeps this process off the CPUs the workload
        # uses; the timer only fires on a hung run.
        watchdog = threading.Timer(timeout, os.killpg,
                                   (proc.pid, signal.SIGKILL))
        watchdog.start()
        _, status, rusage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # reap stragglers of the group, if any survived their parent
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if wall >= timeout:
        raise CheckFailed(f"{os.path.basename(cmd[0])} timed out after "
                          f"{timeout}s")
    return proc.returncode, wall, rusage.ru_maxrss / 1024.0


def driver_json(tree, args, workdir):
    out = os.path.join(workdir, f"driver-{args[0]}.out")
    err = os.path.join(workdir, f"driver-{args[0]}.err")
    rc, _, _ = run_tool([os.path.join(tree, "perfbench_driver")] + args,
                        out, err)
    if rc != 0:
        with open(err, errors="replace") as f:
            sys.stderr.write(f.read()[-2000:])
        raise CheckFailed(f"perfbench_driver {args[0]} exited {rc}")
    with open(out) as f:
        return json.loads(f.read().strip().splitlines()[-1])


# ----------------------------------------------------------------- checks

def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_report(path, points):
    """Check one campaign report. Returns (runs, failed runs, simulated
    events, problems)."""
    with open(path) as f:
        report = json.load(f)
    problems = []
    runs = report.get("runs", [])
    if len(runs) != points:
        problems.append(f"{len(runs)} runs in the report, {points} "
                        "expected")
    if report.get("failed_runs"):
        problems.append(f"{len(report['failed_runs'])} failed runs")
    bad = set()
    groups = {}
    for run in runs:
        res = run["result"]
        if res.get("sim_events", 0) <= 0:
            bad.add(run["index"])
            problems.append(f"run {run['index']}: no simulated events")
        served = res.get("served")
        if served is not None:
            if served["completed"] != served["admitted"] or (
                    served["admitted"] + served["rejected"]
                    != served["offered"]) or served["rejected"]:
                bad.add(run["index"])
                problems.append(f"run {run['index']}: served {served}")
        key = tuple(json.dumps(run.get(k)) for k in sorted(run)
                    if k not in ("index", "system", "result"))
        groups.setdefault(key, []).append(run)
    # Every system computes the same functional answer at a grid point.
    for group in groups.values():
        ref = group[0]["result"]["functional"]
        for run in group[1:]:
            if run["result"]["functional"] != ref:
                bad.add(run["index"])
                problems.append(f"run {run['index']} ({run['system']}): "
                                "functional outputs differ from "
                                f"{group[0]['system']}")
    events = sum(r["result"].get("sim_events", 0) for r in runs)
    return max(len(runs), points), len(bad), events, problems


def check_digest(workload, seed, digest, problems):
    """Compare a report digest with the one digests.json pins, if any."""
    with open(os.path.join(HERE, "digests.json")) as f:
        pinned = json.load(f).get(workload, {}).get(str(seed))
    if pinned is not None and digest != pinned:
        problems.append(f"report digest {digest[:16]} differs from the "
                        f"pinned {pinned[:16]} for seed {seed}")


# ------------------------------------------------------------- end to end

def end_to_end(opts, trees, args, workdir):
    wl, seed = opts["workload"], opts["seed"]
    setup = driver_json(trees["release"], ["setup", wl, str(seed)],
                        workdir)["setup_s"]

    campaign = os.path.join(trees["release"], "mondrian",
                            "mondrian_campaign")
    walls, rates, rss, digests, problems = [], [], [], set(), []
    attempted = failed = 0
    start = time.perf_counter()
    # Repeat the campaign while another repetition fits the budget.
    while not walls or (time.perf_counter() - start
                        + statistics.mean(walls) <= opts["seconds"]):
        rep = len(walls)
        report = os.path.join(workdir, f"report-{rep}.json")
        rc, wall, peak = run_tool(
            [campaign] + args["campaign"] + ["--quiet", "--out", report],
            os.path.join(workdir, f"campaign-{rep}.out"),
            os.path.join(workdir, f"campaign-{rep}.err"))
        if rc != 0 or not os.path.isfile(report):
            problems.append(f"repetition {rep}: mondrian_campaign "
                            f"exited {rc}")
            attempted += args["points"]
            failed += args["points"]
            break
        runs, bad, events, rep_problems = check_report(report,
                                                       args["points"])
        problems += rep_problems
        attempted += runs
        failed += bad
        digests.add(sha256(report))
        walls.append(wall)
        rates.append(events / wall)
        rss.append(peak)
    if len(digests) > 1:
        problems.append("repetitions wrote different reports")
    for d in digests:
        check_digest(wl, seed, d, problems)

    print(f"{wl} seed {seed}: medians of {len(walls)} campaign "
          f"repetition(s) and {len(setup)} set-up repetition(s); report "
          f"sha256 {', '.join(d[:16] for d in sorted(digests))}")
    metrics = {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "sim_events_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mib": statistics.median(rss) if rss else 0.0,
        "setup_s": statistics.median(setup),
        "run_ok_ratio": (attempted - failed) / attempted,
    }
    return metrics, END_TO_END, attempted, failed, problems


# ------------------------------------------------------------- per layer

def layer_of_sources():
    """Map every class and free-function name defined under src/ to the
    layer of the file defining it, for folding the -pg flat profile."""
    def layer(rel):
        if rel.startswith(("core/cache", "core/stream_buffer")):
            return "cache"
        for prefix, name in (("core/", "trace_core"), ("dram/", "dram"),
                             ("noc/", "noc"), ("engine/", "engine"),
                             ("sim/event_queue", "event_queue"),
                             ("system/machine", "machine")):
            if rel.startswith(prefix):
                return name
        return "other"

    names = {}
    src = os.path.join(ROOT, "src")
    # Definitions only: a forward declaration ("class Machine;") must not
    # claim a name for the file that merely mentions it.
    decl = re.compile(r"^(?:class|struct)\s+(\w+)\s*(?:[:{]|$)"
                      r"|^(\w+)(?:::\w+)*\(", re.M)
    for dirpath, _, files in os.walk(src):
        for fname in sorted(files):
            rel = os.path.relpath(os.path.join(dirpath, fname), src)
            with open(os.path.join(dirpath, fname), errors="replace") as f:
                for m in decl.finditer(f.read()):
                    name = m.group(1) or m.group(2)
                    if names.get(name, "other") == "other":
                        names[name] = layer(rel)
    return names


def fold_profile(gprof_text, names):
    """Fold gprof's flat profile (self seconds per symbol) into layers by
    the first mondrian:: name in each symbol that maps to a layer."""
    self_s = {layer: 0.0 for layer in PROF_LAYERS}
    row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+"
                     r"\s+[\d.]+\s+)?(.+)$")
    for line in gprof_text.splitlines():
        m = row.match(line)
        if not m:
            continue
        layer = "other"
        for token in re.findall(r"mondrian::(\w+)", m.group(2)):
            if names.get(token, "other") != "other":
                layer = names[token]
                break
        self_s[layer] += float(m.group(1))
    total = sum(self_s.values())
    return {k: (v / total if total else 0.0) for k, v in self_s.items()}


def per_layer(opts, trees, args, workdir):
    wl, seed = opts["workload"], opts["seed"]
    problems = []
    report = os.path.join(workdir, "driver-report.json")
    spans = os.path.join(workdir, "spans.json")
    traced = driver_json(trees["release"],
                         ["trace", wl, str(seed), report, spans], workdir)
    metrics = dict(traced["metrics"])
    if traced["mismatches"]:
        problems.append(f"{traced['mismatches']} traced results differ "
                        "from executeCampaignJob")
    if not traced["frames_ok"]:
        problems.append("a frame did not round-trip")
    if traced["served_incomplete"] or traced["served_rejected"]:
        problems.append("served probe left queries rejected or "
                        "incomplete")
    if metrics["machine.heap_fallbacks"] != 0:
        problems.append("InlineFunction heap fallbacks on the hot path")
    runs, failed, _, report_problems = check_report(report,
                                                    args["points"])
    problems += report_problems
    digest = sha256(report)
    check_digest(wl, seed, digest, problems)

    # Coordinator: the same grid through three worker subprocesses and
    # in-process on three threads; the reports must be byte-identical.
    campaign = os.path.join(trees["release"], "mondrian",
                            "mondrian_campaign")
    walls, coord_digests, retries = {}, set(), 0
    for mode, flags in (("workers", ["--workers", FLEET_WORKERS]),
                        ("jobs", ["--jobs", FLEET_WORKERS])):
        out = os.path.join(workdir, f"coordinator-{mode}.json")
        err = os.path.join(workdir, f"coordinator-{mode}.err")
        rc, walls[mode], _ = run_tool(
            [campaign] + args["coordinator"] + flags
            + ["--quiet", "--out", out], out + ".stdout", err)
        if rc != 0:
            problems.append(f"coordinator run ({mode}) exited {rc}")
            continue
        coord_digests.add(sha256(out))
        with open(err, errors="replace") as f:
            retries += len(re.findall(r"attempt \d+ failed", f.read()))
    if len(coord_digests) != 1:
        problems.append("--workers and --jobs reports differ")
    elif args["coordinator_is_grid"] and digest not in coord_digests:
        problems.append("traced driver report differs from the "
                        "coordinator's")
    metrics["coordinator.overhead_s"] = (walls.get("workers", 0.0)
                                         - walls.get("jobs", 0.0))
    metrics["coordinator.retries"] = retries

    # Profile one named grid point with the -pg build.
    profdir = os.path.join(workdir, "prof")
    os.makedirs(profdir, exist_ok=True)
    pg_campaign = os.path.join(trees["pg"], "mondrian", "mondrian_campaign")
    rc, pg_wall, _ = run_tool(
        [pg_campaign] + args["profile"]
        + ["--jobs", "1", "--quiet", "--out", "profile.json"],
        os.path.join(profdir, "campaign.out"),
        os.path.join(profdir, "campaign.err"), cwd=profdir)
    if rc != 0:
        problems.append(f"profiled run exited {rc}")
    try:
        gprof = subprocess.run(
            ["gprof", "-b", "-p", pg_campaign, "gmon.out"], cwd=profdir,
            capture_output=True, text=True, timeout=120).stdout
    except (OSError, subprocess.TimeoutExpired) as e:
        gprof = ""
        problems.append(f"gprof failed: {e}")
    shares = fold_profile(gprof, layer_of_sources())
    if not any(shares.values()):
        problems.append("gprof produced no flat profile")
    for layer, share in shares.items():
        metrics[f"prof.{layer}.share"] = share
    point_s = traced["untraced_point_s"][args["profile_index"]]
    metrics["prof.pg_slowdown"] = pg_wall / point_s

    return metrics, PER_LAYER, runs, failed, problems


# ------------------------------------------------------------------- main

def main(argv):
    opts = parse_args(argv)
    bdir = build_dir()
    trees = build(bdir)
    wl, seed = opts["workload"], opts["seed"]
    workdir = os.path.join(bdir, "work", wl)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    try:
        args = driver_json(trees["release"], ["args", wl, str(seed)],
                           workdir)
        measure = per_layer if opts["trace"] else end_to_end
        metrics, units, attempted, failed, problems = measure(
            opts, trees, args, workdir)
    except CheckFailed as e:
        metrics, units = {}, {}
        attempted, failed, problems = 1, 1, [str(e)]

    for p in problems:
        sys.stderr.write(f"CHECK FAILED: {p}\n")
    correct = not problems and failed == 0 and set(metrics) == set(units)
    if problems and failed == 0:
        failed = 1
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env bash
# Where does one run's host time go, layer by layer? Builds a gprof tree
# (-pg -g, LTO off) of mondrian_campaign in a temporary directory, runs
# one named grid point through it, and folds gprof's flat profile
# (self seconds per function) into the simulator's layers by the source
# file that defines each function:
#
#   prepare      src/engine/          functional execution, trace recording
#   trace_core   src/core/ (not cache) trace-driven core model
#   cache        src/core/cache, src/core/stream_buffer
#   noc          src/noc/             mesh, SerDes, network routing
#   dram         src/dram/            vault controller and banks
#   mem          src/mem/             address map, allocator, backing store
#   event_queue  src/sim/event_queue
#   closures     src/sim/inline_function  type-erased callback thunks
#   machine      src/system/machine   request issue and completion glue
#   other        the rest of src/ and tools/ (serialization, coordinator),
#                the C++ runtime, and symbols without a source file
#
# -pg shifts costs: every non-inlined call pays mcount, so small hot
# functions rank higher than in the Release+LTO build, where they are
# inlined. Compare splits from this script with each other, not with a
# sampling profile of the release binary.
#
# Usage: scripts/profile_layers.sh [--top N] SYSTEM OP LOG2_TUPLES [SEED]
#   e.g. scripts/profile_layers.sh cpu join 18
# Exit: 0 ok, 1 build/run/profile failure, 2 usage (including --help).
set -euo pipefail
shopt -s inherit_errexit
trap 'echo "error: ${BASH_SOURCE[0]}:${LINENO}: command failed" >&2' ERR

usage() {
    sed -n '/^# Usage:/,/^# Exit:/s/^# \{0,1\}//p' "${BASH_SOURCE[0]}" >&2
    echo "  SYSTEM: cpu nmp nmp-perm nmp-rand nmp-seq mondrian-noperm mondrian" >&2
    echo "  OP: scan sort groupby join; LOG2_TUPLES: 8..26; SEED: integer (default 42)" >&2
    exit 2
}

top=12
positional=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        -h|--help) usage ;;
        --top)
            [[ $# -ge 2 && "$2" =~ ^[0-9]+$ ]] || { echo "error: --top takes a count" >&2; usage; }
            top="$2"; shift 2 ;;
        -*) echo "error: unknown option '$1'" >&2; usage ;;
        *) positional+=("$1"); shift ;;
    esac
done
[[ ${#positional[@]} -ge 3 && ${#positional[@]} -le 4 ]] || usage
system="${positional[0]}" op="${positional[1]}" log2="${positional[2]}"
seed="${positional[3]:-42}"
[[ "$system" =~ ^(cpu|nmp|nmp-perm|nmp-rand|nmp-seq|mondrian-noperm|mondrian)$ ]] ||
    { echo "error: unknown system '$system'" >&2; usage; }
[[ "$op" =~ ^(scan|sort|groupby|join)$ ]] || { echo "error: unknown op '$op'" >&2; usage; }
[[ "$log2" =~ ^[0-9]+$ ]] && (( 10#$log2 >= 8 && 10#$log2 <= 26 )) ||
    { echo "error: LOG2_TUPLES must be 8..26" >&2; usage; }
[[ "$seed" =~ ^[0-9]+$ ]] || { echo "error: SEED must be a non-negative integer" >&2; usage; }

for tool in cmake gprof nm python3; do
    command -v "$tool" > /dev/null || { echo "error: $tool not found" >&2; exit 1; }
done

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/mondrian-profile.XXXXXX")"
trap 'rm -rf "$work"' EXIT

jobs="$(nproc 2> /dev/null || echo 2)"
(( jobs > 4 )) && jobs=4
echo "== building the -pg tree in $work (log: build.log)" >&2
if ! { cmake -S "$root" -B "$work/build" -DCMAKE_BUILD_TYPE=Release \
           -DMONDRIAN_NO_IPO=ON -DMONDRIAN_BUILD_TESTS=OFF \
           -DMONDRIAN_BUILD_BENCHES=OFF -DMONDRIAN_BUILD_EXAMPLES=OFF \
           "-DCMAKE_CXX_FLAGS=-pg -g" -DCMAKE_EXE_LINKER_FLAGS=-pg &&
       cmake --build "$work/build" -j "$jobs" --target mondrian_campaign; \
     } > "$work/build.log" 2>&1; then
    tail -30 "$work/build.log" >&2
    echo "error: -pg build failed" >&2
    exit 1
fi
bin="$work/build/mondrian_campaign"

echo "== running $system $op 2^$log2 seed $seed" >&2
start=$(date +%s%N)
if ! (cd "$work" && "$bin" --systems "$system" --ops "$op" \
          --log2-tuples "$log2" --seeds "$seed" --jobs 1 --quiet \
          --out "$work/report.json" > "$work/run.log" 2>&1); then
    cat "$work/run.log" >&2
    echo "error: mondrian_campaign failed" >&2
    exit 1
fi
wall_ms=$(( ($(date +%s%N) - start) / 1000000 ))
[[ -s "$work/gmon.out" ]] || { echo "error: no gmon.out written" >&2; exit 1; }

gprof -b -p "$bin" "$work/gmon.out" > "$work/flat.txt"
nm -C --defined-only --line-numbers "$bin" > "$work/nm.txt"

python3 - "$work/flat.txt" "$work/nm.txt" "$root" "$top" "$wall_ms" <<'PY'
import re, sys

flat_path, nm_path, root, top, wall_ms = sys.argv[1:]
top = int(top)

LAYERS = [  # (path prefix under the repo root, layer); first match wins
    ("src/engine/", "prepare"),
    ("src/core/cache", "cache"), ("src/core/stream_buffer", "cache"),
    ("src/core/", "trace_core"),
    ("src/noc/", "noc"),
    ("src/dram/", "dram"),
    ("src/mem/", "mem"),
    ("src/sim/event_queue", "event_queue"),
    ("src/sim/inline_function", "closures"),
    ("src/system/machine", "machine"),
]
ORDER = ["prepare", "trace_core", "cache", "noc", "dram", "mem",
         "event_queue", "closures", "machine", "other"]

def layer_of(path):
    if path is None:
        return "other"
    rel = path[len(root) + 1:] if path.startswith(root + "/") else path
    for prefix, layer in LAYERS:
        if rel.startswith(prefix):
            return layer
    return "other"

# nm: "ADDR TYPE NAME<TAB>FILE:LINE"; the name itself may hold spaces.
file_of = {}
with open(nm_path, errors="replace") as f:
    for line in f:
        head, _, loc = line.rstrip("\n").partition("\t")
        parts = head.split(" ", 2)
        if len(parts) == 3 and loc:
            file_of.setdefault(parts[2], loc.rsplit(":", 1)[0])

# gprof flat profile rows: %time cumulative self [calls self/call total/call] name
row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$")
self_s = {l: 0.0 for l in ORDER}
symbols = []
with open(flat_path, errors="replace") as f:
    for line in f:
        m = row.match(line)
        if not m:
            continue
        secs, name = float(m.group(1)), m.group(2).strip()
        path = file_of.get(name)
        layer = layer_of(path)
        self_s[layer] += secs
        symbols.append((secs, layer, name, path))

total = sum(self_s.values())
if total <= 0:
    sys.exit("error: gprof recorded no samples (run too short?)")
print(f"layer split of {total:.2f} s sampled self time "
      f"(run wall {int(wall_ms) / 1000:.2f} s under -pg)")
print(f"{'layer':<12} {'self s':>8} {'share':>7}")
for layer in ORDER:
    print(f"{layer:<12} {self_s[layer]:>8.2f} {100 * self_s[layer] / total:>6.1f}%")
if top:
    print(f"\ntop {top} functions by self time")
    for secs, layer, name, path in sorted(symbols, reverse=True)[:top]:
        short = name if len(name) <= 90 else name[:87] + "..."
        print(f"{100 * secs / total:>5.1f}% {layer:<11} {short}")
PY

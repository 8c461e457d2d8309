/**
 * @file
 * Shared helpers for the benchmark harnesses that regenerate the paper's
 * tables and figures.
 *
 * Every bench accepts:
 *   argv[1] (optional): log2 of |S| tuples (default 16)
 *   argv[2] (optional): random seed (default 42)
 *   argv[3] (optional): path to dump the raw RunResults as JSON
 *
 * Benches print the paper-shaped table plus the measured raw numbers so
 * EXPERIMENTS.md can record paper-vs-measured side by side. The JSON dump
 * uses the campaign serializer (system/report.hh), so figure data and CI
 * campaign artifacts share one schema.
 */

#ifndef MONDRIAN_BENCH_BENCH_COMMON_HH
#define MONDRIAN_BENCH_BENCH_COMMON_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "system/report.hh"
#include "system/runner.hh"

namespace mondrian::bench {

/**
 * Parse @p text as a decimal integer in [0, @p max]. Anything else —
 * empty, signed, trailing junk, out of range — prints a named error and
 * exits 2 before the bench does any work.
 */
inline std::uint64_t
parseUnsignedArg(const char *text, const char *what, std::uint64_t max)
{
    std::uint64_t v = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc{} || ptr != end || ptr == text || v > max) {
        std::fprintf(stderr, "%s: '%s' is not an integer in [0, %llu]\n",
                     what, text, static_cast<unsigned long long>(max));
        std::exit(2);
    }
    return v;
}

/** Parse the standard bench command line. */
inline WorkloadConfig
parseArgs(int argc, char **argv, unsigned default_log2 = 16)
{
    setVerbose(false);
    WorkloadConfig wl;
    unsigned log2_tuples = default_log2;
    if (argc > 1)
        log2_tuples = static_cast<unsigned>(
            parseUnsignedArg(argv[1], "log2_tuples", 32));
    if (argc > 2)
        wl.seed = parseUnsignedArg(argv[2], "seed", UINT64_MAX);
    wl.tuples = 1ull << log2_tuples;
    return wl;
}

/** Print a standard bench banner. */
inline void
banner(const char *what, const WorkloadConfig &wl)
{
    std::printf("=== %s ===\n", what);
    std::printf("workload: %llu tuples (16 B each), seed %llu, "
                "scaled 64-vault system (see DESIGN.md section 5)\n\n",
                static_cast<unsigned long long>(wl.tuples),
                static_cast<unsigned long long>(wl.seed));
}

/** Dump raw run results as JSON when the bench got a path in argv[3]. */
inline void
maybeWriteJson(int argc, char **argv, const std::vector<RunResult> &runs)
{
    if (argc <= 3)
        return;
    std::ofstream out(argv[3], std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", argv[3]);
        std::exit(2);
    }
    out << runResultsJson(runs) << '\n';
    std::fprintf(stderr, "raw run data written to %s\n", argv[3]);
}

} // namespace mondrian::bench

#endif // MONDRIAN_BENCH_BENCH_COMMON_HH

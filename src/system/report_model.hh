/**
 * @file
 * ReportModel: typed in-memory model of campaign report JSON.
 *
 * The campaign CLI writes schema mondrian-campaign-v2 documents for
 * degenerate single-op grids, mondrian-campaign-v3 for scenario
 * (pipeline) sweeps and mondrian-campaign-v4 for grids with a traffic
 * axis — and wrote v1 before the axis generalization; this
 * module parses any of them back into plain structs so analysis code —
 * sensitivity tables, report diffs, CSV export — never touches raw
 * JSON. A v1/v2 run's "op" label loads as its scenario label: the old
 * operator names are exactly the degenerate scenario names. Parsing goes through
 * common/json_parse (full string unescaping via jsonUnescape), and every
 * run keeps its grid coordinates as the canonical axis labels the report
 * itself used, so run identity is stable across loads.
 *
 * readReportHeader()/readReportRun() are the one decoder of report
 * runs; loadReportModel() and ResumeCache::load() both call them and
 * differ only in their failure policy. Loading a model fails loudly on
 * the first malformed run — an analysis over a half-parsed report would
 * produce confidently wrong numbers — while the best-effort resume cache
 * warns and skips it.
 */

#ifndef MONDRIAN_SYSTEM_REPORT_MODEL_HH
#define MONDRIAN_SYSTEM_REPORT_MODEL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "system/runner.hh"

namespace mondrian {

struct JsonValue;

/** One run of a loaded report: grid coordinates plus the parsed result. */
struct ReportRun
{
    std::size_t index = 0;
    std::string system;
    /** Scenario axis label; for v1/v2 reports (and degenerate v3 runs)
     *  this is the classic operator name. */
    std::string scenario;
    unsigned log2Tuples = 0;
    std::uint64_t seed = 0;
    /** Geometry axis label (geometryName form, e.g. "4x16x8-8MiB-r256"). */
    std::string geometry;
    /** Exec-ablation axis label ("base" when no override). */
    std::string exec;
    double zipfTheta = 0.0;
    /** Traffic axis label (TrafficSpec::name() form); "none" on pre-v4
     *  reports and degenerate v4 runs. */
    std::string traffic = "none";
    RunResult result;
    /** Byte span [resultBegin, resultEnd) of the run's "result" subtree
     *  in the report text, for verbatim splicing. */
    std::size_t resultBegin = 0;
    std::size_t resultEnd = 0;

    /**
     * Identity of this run's grid point: every axis coordinate at a
     * fixed delimited position (theta canonicalized to the report's
     * 12-digit encoding). Two runs of one well-formed report never share
     * a point key.
     */
    std::string pointKey() const;

    /**
     * Identity of the run's comparison group — all axes except system —
     * i.e. the key a baseline run is looked up under. Mirrors the
     * campaign's GridGroupKey pairing.
     */
    std::string groupKey() const;
};

/** One row of the report's stored summary block. */
struct ReportSummaryRow
{
    std::string system;
    std::size_t runs = 0; ///< baseline-paired runs in the geomeans
    double geomeanSpeedup = 0.0;
    double geomeanPerfPerWatt = 0.0;
};

/** A whole campaign report, parsed. */
struct ReportModel
{
    int schemaVersion = 2; ///< 1 (legacy), 2, 3 (scenarios), 4 (traffic)
    std::string paper;
    std::string baseline; ///< "" when the report has no baseline system

    /**
     * Axis values actually present in the runs, in first-appearance
     * (grid) order. Derived from the runs rather than the grid echo so
     * the model is faithful to the data even for hand-edited or
     * truncated reports.
     */
    std::vector<std::string> systems;
    std::vector<std::string> scenarios;
    std::vector<unsigned> log2Tuples;
    std::vector<std::uint64_t> seeds;
    std::vector<std::string> geometries;
    std::vector<std::string> execs;
    std::vector<double> zipfThetas;
    std::vector<std::string> traffics;

    std::vector<ReportRun> runs;
    std::vector<ReportSummaryRow> summaries; ///< as stored in the report
};

/**
 * What a report's runs are decoded against: the schema and the grid
 * block's axis tables, keyed by the labels runs carry. A v1 report has
 * no tables; its one implicit point (the default geometry and the
 * "base" exec point) is entered so v1 labels resolve like any other.
 * Malformed table entries are left out: what an unresolvable label
 * means is the caller's call (the model keeps the label, the resume
 * cache skips the run).
 */
struct ReportHeader
{
    int schemaVersion = 2; ///< 1 (legacy), 2, 3 (scenarios), 4 (traffic)
    std::string paper;
    double v1ZipfTheta = 0.0; ///< v1: the campaign-wide theta
    std::map<std::string, MemGeometry> geometries;
    std::map<std::string, ExecOverride> execOverrides;
    /** v3+: scenario label -> the scenario with its stage structure. */
    std::map<std::string, Scenario> scenarios;
    const JsonValue *runs = nullptr; ///< the runs array (inside the doc)
};

/**
 * Read the schema, grid tables and runs array of a parsed report @p doc.
 * @return false with @p error on an unknown schema or a missing runs
 * array. @p out points into @p doc, which must outlive it.
 */
bool readReportHeader(const JsonValue &doc, ReportHeader &out,
                      std::string &error);

/**
 * Decode one element of the runs array — the only code that reads run
 * fields. Every coordinate is type-checked (a wrong-typed one would
 * decode as 0/"" and land the run at the wrong grid point); v1 runs get
 * the default geometry, the "base" exec point and the campaign-wide
 * theta, pre-v4 runs the "none" traffic point. Labels are not resolved
 * through the tables. @p position (the run's array index) names the run
 * in @p error and is its index when the run carries none.
 * @return false with @p error when the run is malformed.
 */
bool readReportRun(const JsonValue &run, const ReportHeader &header,
                   std::size_t position, ReportRun &out, std::string &error);

/**
 * Parse report JSON (schema mondrian-campaign-v1 through -v4) into
 * @p out. v1 runs carry no axis labels; they land at the default
 * geometry, the "base" exec point and the report's campaign-wide
 * zipf_theta — the axes a v1 campaign actually simulated. v3 runs are
 * labeled by scenario and may carry per-stage sub-results (loaded into
 * RunResult::stages). v4 runs are additionally labeled by traffic spec
 * and may carry served metrics (RunResult::served); pre-v4 runs load at
 * the degenerate "none" traffic point.
 * @return false with a human-readable @p error on parse/schema problems.
 */
bool loadReportModel(const std::string &json_text, ReportModel &out,
                     std::string &error);

/** Read @p path and loadReportModel() its contents. */
bool loadReportFile(const std::string &path, ReportModel &out,
                    std::string &error);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_REPORT_MODEL_HH

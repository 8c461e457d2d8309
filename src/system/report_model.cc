#include "system/report_model.hh"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "system/config.hh"
#include "system/report.hh"

namespace mondrian {

namespace {

/** Append @p v to @p axis if it is not already present. */
template <typename T>
void
noteAxisValue(std::vector<T> &axis, const T &v)
{
    if (std::find(axis.begin(), axis.end(), v) == axis.end())
        axis.push_back(v);
}

} // namespace

std::string
ReportRun::groupKey() const
{
    // Theta at the report's canonical 12-digit encoding (see json.hh).
    return scenario + "|" + std::to_string(log2Tuples) + "|" +
           std::to_string(seed) + "|" + geometry + "|" + exec + "|" +
           JsonWriter::doubleString(zipfTheta) + "|" + traffic;
}

std::string
ReportRun::pointKey() const
{
    return system + "|" + groupKey();
}

namespace {

/** Geometry table entry; false when a field is missing or wrong-typed. */
bool
readGeometryEntry(const JsonValue &g, MemGeometry &geo)
{
    const JsonValue *f[] = {g.find("stacks"), g.find("vaults_per_stack"),
                            g.find("banks_per_vault"), g.find("row_bytes"),
                            g.find("vault_bytes")};
    for (const JsonValue *v : f) {
        if (!v || !v->isNumber())
            return false;
    }
    geo.numStacks = static_cast<unsigned>(f[0]->asU64());
    geo.vaultsPerStack = static_cast<unsigned>(f[1]->asU64());
    geo.banksPerVault = static_cast<unsigned>(f[2]->asU64());
    geo.rowBytes = f[3]->asU64();
    geo.vaultBytes = f[4]->asU64();
    return true;
}

/** Exec-override table entry: absent knobs inherit the preset. */
bool
readExecEntry(const JsonValue &o, ExecOverride &ov)
{
    const std::pair<const char *, int *> knobs[] = {
        {"radix_bits", &ov.radixBits},
        {"read_chunk_bytes", &ov.readChunkBytes},
        {"tlb_entries", &ov.tlbEntries}};
    for (const auto &[name, field] : knobs) {
        const JsonValue *v = o.find(name);
        if (!v)
            continue;
        if (!v->isNumber())
            return false;
        *field = static_cast<int>(v->asDouble());
    }
    return true;
}

/** Scenario table entry: every stage must name a known operator. */
bool
readScenarioEntry(const JsonValue &sv, Scenario &sc)
{
    const JsonValue *stages = sv.find("stages");
    if (!stages || !stages->isArray() || stages->items.empty())
        return false;
    sc.name = sv.find("name")->asString(); // readTable checked it
    for (const JsonValue &st : stages->items) {
        const JsonValue *spark = st.find("stage");
        const JsonValue *op = st.find("op");
        const JsonValue *input = st.find("input");
        ScenarioStage stage;
        if (!spark || !op || !input || !spark->isString() ||
            !opKindFromName(op->asString(), stage.op))
            return false;
        stage.spark = spark->asString();
        stage.input = input->asString() == "generated"
                          ? StageInput::kGenerated
                          : StageInput::kPrevOutput;
        sc.stages.push_back(std::move(stage));
    }
    return true;
}

/** Enter each well-formed, named element of @p table into @p out. */
template <typename T, typename Read>
void
readTable(const JsonValue *table, std::map<std::string, T> &out, Read read)
{
    if (!table || !table->isArray())
        return;
    for (const JsonValue &entry : table->items) {
        const JsonValue *name = entry.find("name");
        T value{};
        if (name && name->isString() && read(entry, value))
            out[name->asString()] = std::move(value);
    }
}

} // namespace

bool
readReportHeader(const JsonValue &doc, ReportHeader &out, std::string &error)
{
    out = ReportHeader{};
    const JsonValue *schema = doc.find("schema");
    const std::string schema_name = schema ? schema->asString() : "";
    if (schema_name == "mondrian-campaign-v4") {
        out.schemaVersion = 4;
    } else if (schema_name == "mondrian-campaign-v3") {
        out.schemaVersion = 3;
    } else if (schema_name == "mondrian-campaign-v2") {
        out.schemaVersion = 2;
    } else if (schema_name == "mondrian-campaign-v1") {
        out.schemaVersion = 1;
    } else {
        error = "not a mondrian-campaign-v1/v2/v3/v4 report (schema '" +
                schema_name + "')";
        return false;
    }
    if (const JsonValue *paper = doc.find("paper"))
        out.paper = paper->asString();

    const JsonValue *grid = doc.find("grid");
    if (out.schemaVersion == 1) {
        // v1 reports have one campaign-wide theta in the grid block and
        // no geometry/exec axes.
        if (grid)
            if (const JsonValue *z = grid->find("zipf_theta"))
                out.v1ZipfTheta = z->asDouble();
        out.geometries[geometryName(defaultGeometry())] =
            defaultGeometry();
        out.execOverrides[ExecOverride{}.name()] = ExecOverride{};
    } else if (grid) {
        readTable(grid->find("geometries"), out.geometries,
                  readGeometryEntry);
        readTable(grid->find("exec_overrides"), out.execOverrides,
                  readExecEntry);
        readTable(grid->find("scenarios"), out.scenarios,
                  readScenarioEntry);
    }

    out.runs = doc.find("runs");
    if (!out.runs || !out.runs->isArray()) {
        error = "report has no runs array";
        return false;
    }
    return true;
}

bool
readReportRun(const JsonValue &r, const ReportHeader &header,
              std::size_t position, ReportRun &run, std::string &error)
{
    run = ReportRun{};
    const JsonValue *sys = r.find("system");
    // v3 labels runs by scenario; v1/v2 "op" labels are exactly the
    // degenerate scenario names, so both load into run.scenario.
    const JsonValue *op = header.schemaVersion >= 3 ? r.find("scenario")
                                                    : r.find("op");
    const JsonValue *log2 = r.find("log2_tuples");
    const JsonValue *seed = r.find("seed");
    const JsonValue *result = r.find("result");
    // Wrong-typed coordinates would silently decode as 0/"" and
    // corrupt every point key downstream — fail loudly instead
    // (asU64()/asDouble() cannot distinguish 0 from absent).
    if (!sys || !op || !log2 || !seed || !result || !sys->isString() ||
        !op->isString() || !log2->isNumber() || !seed->isNumber()) {
        error = "run " + std::to_string(position) +
                " is missing a required field (or has a wrong-typed one)";
        return false;
    }
    run.index = position;
    if (const JsonValue *idx = r.find("index"); idx && idx->isNumber())
        run.index = idx->asU64();
    run.system = sys->asString();
    run.scenario = op->asString();
    run.log2Tuples = static_cast<unsigned>(log2->asU64());
    run.seed = seed->asU64();
    if (header.schemaVersion >= 2) {
        const JsonValue *geo = r.find("geometry");
        const JsonValue *exec = r.find("exec");
        const JsonValue *z = r.find("zipf_theta");
        if (!geo || !exec || !z || !geo->isString() || !exec->isString() ||
            !z->isNumber()) {
            error = "v2/v3 run " + std::to_string(position) +
                    " is missing an axis label (or has a wrong-typed one)";
            return false;
        }
        run.geometry = geo->asString();
        run.exec = exec->asString();
        run.zipfTheta = z->asDouble();
        if (header.schemaVersion >= 4) {
            const JsonValue *t = r.find("traffic");
            if (!t || !t->isString()) {
                error = "v4 run " + std::to_string(position) +
                        " is missing its traffic label (or has a "
                        "wrong-typed one)";
                return false;
            }
            run.traffic = t->asString();
        }
    } else {
        run.geometry = geometryName(defaultGeometry());
        run.exec = ExecOverride{}.name();
        run.zipfTheta = header.v1ZipfTheta;
    }
    if (!readRunResult(*result, run.result)) {
        error = "run " + std::to_string(position) +
                " has a malformed result object";
        return false;
    }
    run.resultBegin = result->begin;
    run.resultEnd = result->end;
    return true;
}

bool
loadReportModel(const std::string &json_text, ReportModel &out,
                std::string &error)
{
    out = ReportModel{};
    JsonValue doc;
    ReportHeader header;
    if (!parseJson(json_text, doc, error) ||
        !readReportHeader(doc, header, error))
        return false;
    out.schemaVersion = header.schemaVersion;
    out.paper = header.paper;

    out.runs.reserve(header.runs->items.size());
    std::set<std::string> seen_points;
    for (const JsonValue &r : header.runs->items) {
        ReportRun run;
        if (!readReportRun(r, header, out.runs.size(), run, error))
            return false;
        // Two runs at one grid point make every per-point analysis
        // ambiguous — corrupt report, not a recoverable condition.
        if (!seen_points.insert(run.pointKey()).second) {
            error = "duplicate run at grid point " + run.pointKey();
            return false;
        }

        noteAxisValue(out.systems, run.system);
        noteAxisValue(out.scenarios, run.scenario);
        noteAxisValue(out.log2Tuples, run.log2Tuples);
        noteAxisValue(out.seeds, run.seed);
        noteAxisValue(out.geometries, run.geometry);
        noteAxisValue(out.execs, run.exec);
        noteAxisValue(out.zipfThetas, run.zipfTheta);
        noteAxisValue(out.traffics, run.traffic);
        out.runs.push_back(std::move(run));
    }

    if (const JsonValue *summary = doc.find("summary")) {
        if (const JsonValue *base = summary->find("baseline"))
            out.baseline = base->asString();
        if (const JsonValue *systems = summary->find("systems");
            systems && systems->isArray()) {
            for (const JsonValue &s : systems->items) {
                ReportSummaryRow row;
                if (const JsonValue *n = s.find("system"))
                    row.system = n->asString();
                if (const JsonValue *n = s.find("runs"))
                    row.runs = n->asU64();
                if (const JsonValue *n = s.find("geomean_speedup"))
                    row.geomeanSpeedup = n->asDouble();
                if (const JsonValue *n = s.find("geomean_perf_per_watt"))
                    row.geomeanPerfPerWatt = n->asDouble();
                out.summaries.push_back(std::move(row));
            }
        }
    }
    return true;
}

bool
loadReportFile(const std::string &path, ReportModel &out, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    if (!loadReportModel(ss.str(), out, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

} // namespace mondrian

/**
 * @file
 * Host-time benchmark of the simulator (see README.md).
 *
 *   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --work-dir <dir> [--profile tiny|small|large]
 *             [--reference <file>] [--write-reference <file>]
 *
 * One process runs one workload. It repeats the workload (setup, then
 * sweep) until --seconds have passed and at least kMinIterations ran,
 * checks every simulated cell, and prints the metrics by name with
 * their units; the last line of stdout is one JSON object. With
 * --trace 1 it alternates untraced and traced iterations and reports
 * the per-layer metrics from the traced ones instead.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hostbench/src/spans.hpp"
#include "hostbench/src/workloads.hpp"
#include "src/scene/registry.hpp"

using namespace hostbench;
using sms::ScaleProfile;

namespace {

/** Worker threads: fixed, capped by the machine. */
constexpr unsigned kThreads = 4;
/** Iterations every run makes (setup_s and sweep_s are their medians). */
constexpr int kMinIterations = 3;
/** Iterations of each kind (untraced, traced) a traced run makes. */
constexpr int kMinTracedIterations = 2;
/** Fig. 13 geomean SMS-over-RB_8 IPC gain the paper reports, %. */
constexpr double kPaperSmsGainPct = 23.2;

/**
 * Known defects: cells that may diverge from the functional oracle.
 * Such a cell still counts as failed; it keeps `correct` true only
 * when the divergence is its one failure. At the default seed, whose
 * counters the reference pins, only the named scene is excused.
 */
constexpr uint64_t kDefaultSeed = 0;
struct KnownDefect
{
    WorkloadKind workload;
    const char *column;
    const char *scene_at_default_seed; ///< nullptr: none at that seed
    const char *defect;
};
const KnownDefect kKnownDefects[] = {
    {WorkloadKind::VariantBakeoff, "RB_8+sl", "SPNZA",
     "stackless traversal diverges from the functional oracle (SPNZA at "
     "the default seed: 4 lanes at Small, 14 at Large)"},
    {WorkloadKind::VariantBakeoff, "RB_8+pred", nullptr,
     "predicted traversal diverges from the functional oracle on some "
     "ray streams"},
};

/** The known defect that may excuse an oracle divergence of a cell. */
const KnownDefect *
knownDefect(WorkloadKind workload, uint64_t seed, const std::string &scene,
            const std::string &column)
{
    for (const KnownDefect &k : kKnownDefects)
        if (k.workload == workload && column == k.column &&
            (seed != kDefaultSeed ||
             (k.scene_at_default_seed && scene == k.scene_at_default_seed)))
            return &k;
    return nullptr;
}

/** Every check a cell failed, over all iterations. */
struct CellVerdict
{
    std::vector<std::string> reasons; ///< distinct, in order seen
    bool only_oracle = true; ///< every failure is an oracle divergence

    void fail(const std::string &why, bool oracle)
    {
        if (why.empty())
            return;
        if (std::find(reasons.begin(), reasons.end(), why) == reasons.end())
            reasons.push_back(why);
        only_oracle = only_oracle && oracle;
    }
};

/** High-water mark of the process's resident memory, MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** Restart the high-water mark at the current resident memory. */
bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    return static_cast<bool>(clear << "5" << std::flush);
}

struct Options
{
    WorkloadKind workload{};
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    ScaleProfile profile = ScaleProfile::Small;
    bool have_profile = false;
    std::string reference;
    std::string write_reference;
    std::string work_dir;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload "
                 "cold_large|replay_sweep|variant_bakeoff --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR "
                 "[--profile tiny|small|large] [--reference FILE] "
                 "[--write-reference FILE]\n",
                 msg);
    std::exit(2);
}

bool
parseU64(const std::string &s, uint64_t &out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
        s.size() > 19)
        return false;
    out = std::stoull(s);
    return true;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    std::vector<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        seen.push_back(flag);
        uint64_t n = 0;
        if (flag == "--workload") {
            if (!workloadFromName(value, o.workload))
                usage(("unknown workload " + value).c_str());
        } else if (flag == "--seed") {
            if (!parseU64(value, o.seed))
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            if (!parseU64(value, n) || n < 1 || n > 600)
                usage("--seconds takes a whole number from 1 to 600");
            o.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--profile") {
            if (value == "tiny")
                o.profile = ScaleProfile::Tiny;
            else if (value == "small")
                o.profile = ScaleProfile::Small;
            else if (value == "large")
                o.profile = ScaleProfile::Large;
            else
                usage("--profile takes tiny, small or large");
            o.have_profile = true;
        } else if (flag == "--reference") {
            o.reference = value;
        } else if (flag == "--write-reference") {
            o.write_reference = value;
        } else if (flag == "--work-dir") {
            o.work_dir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    for (const char *required :
         {"--workload", "--seed", "--seconds", "--trace", "--work-dir"})
        if (std::find(seen.begin(), seen.end(), required) == seen.end())
            usage((std::string(required) + " is required").c_str());
    if (!o.have_profile)
        o.profile = defaultProfile(o.workload);
    return o;
}

const char *
profileName(ScaleProfile p)
{
    switch (p) {
    case ScaleProfile::Tiny: return "tiny";
    case ScaleProfile::Small: return "small";
    case ScaleProfile::Large: return "large";
    }
    return "?";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
cellKey(const std::string &scene, const std::string &column)
{
    return scene + " " + column;
}

/** Header line of a reference file; a reference applies only to it. */
std::string
referenceHeader(const Options &o)
{
    return "# hostbench reference workload=" +
           std::string(workloadName(o.workload)) +
           " profile=" + profileName(o.profile) +
           " seed=" + std::to_string(o.seed);
}

/**
 * Load the committed counter digests ("<scene> <column> <hex digest>"
 * per line). @return false when the file is for another run shape.
 */
bool
loadReference(const Options &o, std::map<std::string, uint64_t> &out)
{
    std::ifstream in(o.reference);
    if (!in)
        usage(("cannot read reference " + o.reference).c_str());
    std::string line;
    if (!std::getline(in, line) || line != referenceHeader(o))
        return false;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string scene, column, hex;
        if (!(fields >> scene >> column >> hex) || hex.size() != 16 ||
            hex.find_first_not_of("0123456789abcdef") != std::string::npos)
            continue; // a cell without a valid digest fails the check
        out[cellKey(scene, column)] = std::stoull(hex, nullptr, 16);
    }
    return true;
}

/** One metric of the JSON result. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printJson(bool correct, size_t attempted, size_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** Per-layer metrics of one traced iteration. */
std::map<std::string, double>
layerMetrics(const RunTrace &run, unsigned threads)
{
    std::map<std::string, double> self_s;
    const std::vector<double> self = selfSeconds(run.spans);
    const Span *sweep = nullptr;
    for (size_t i = 0; i < run.spans.size(); ++i) {
        self_s[run.spans[i].name] += self[i];
        if (std::string(run.spans[i].name) == "bench.sweep")
            sweep = &run.spans[i];
    }
    auto count = [&](const char *name) {
        auto it = run.counts.find(name);
        return it == run.counts.end() ? 0.0
                                      : static_cast<double>(it->second);
    };

    std::map<std::string, double> m;
    for (const char *layer :
         {"scene.make", "bvh.build", "bvh.quantize", "trace.render",
          "trace.snapshot_save", "trace.tape_save", "trace.snapshot_load",
          "trace.tape_load", "sim.replay", "sim.execute", "sim.reorder",
          "serve.result_store"})
        m[std::string(layer) + "_s"] = self_s[layer];
    for (const char *name :
         {"scene.primitives", "bvh.nodes", "trace.rays", "trace.warp_jobs",
          "trace.snapshot_bytes", "sim.cells_replayed", "sim.cells_executed",
          "sim.tape_bytes", "sim.cycles", "sim.steps", "core.pushes",
          "core.rb_spills_to_sh", "core.rb_spills_to_global",
          "core.rb_refills_from_global", "core.borrows",
          "core.forced_flushes", "core.stall_stack_cycles",
          "memory.l1_accesses", "memory.offchip_accesses",
          "memory.dram_queue_wait_cycles", "memory.shmem_conflict_passes",
          "memory.stall_mem_cycles", "serve.results_stored"})
        m[name] = count(name);
    m["memory.l1_miss_rate"] =
        ratio(count("memory.l1_misses"), count("memory.l1_accesses"));
    m["memory.l2_miss_rate"] =
        ratio(count("memory.l2_misses"), count("memory.l2_accesses"));
    m["sim.replay_ns_per_step"] =
        ratio(self_s["sim.replay"] * 1e9, count("sim.replay_steps"));

    // Busy seconds of the sweep's work spans over its worker capacity.
    if (sweep) {
        double busy = 0.0;
        for (size_t i = 0; i < run.spans.size(); ++i) {
            const Span &s = run.spans[i];
            std::string name = s.name;
            if (s.start_ns >= sweep->start_ns && s.end_ns <= sweep->end_ns &&
                name != "bench.sweep" && name != "util.parallel_for")
                busy += self[i];
        }
        double wall = static_cast<double>(sweep->end_ns - sweep->start_ns) *
                      1e-9;
        m["util.sweep_occupancy"] = ratio(busy, wall * threads);
    } else {
        m["util.sweep_occupancy"] = 0.0;
    }
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    const unsigned threads = std::max(
        1u, std::min(kThreads, std::thread::hardware_concurrency()));
    const WorkloadSpec spec = makeSpec(opt.workload, opt.profile);
    const size_t num_scenes = spec.scenes.size();
    const size_t num_columns = spec.columns.size();

    std::map<std::string, uint64_t> reference;
    bool use_reference = false;
    if (!opt.reference.empty()) {
        use_reference = loadReference(opt, reference);
        if (!use_reference)
            std::printf("reference %s is for another workload, profile or "
                        "seed; cells are checked by the oracle, by "
                        "conservation and across iterations only\n",
                        opt.reference.c_str());
    }

    namespace fs = std::filesystem;
    const fs::path root = fs::path(opt.work_dir) /
                          (std::string(workloadName(opt.workload)) + "-" +
                           std::to_string(getpid()));
    const std::string store = (root / "store").string();
    fs::remove_all(root);
    fs::create_directories(store);
    if (spec.warm_store) {
        fillStore(spec, opt.seed, store, threads);
        // peak_rss_mb covers the timed iterations, not the fill.
        if (!resetPeakRss())
            usage("cannot reset the peak RSS (/proc/self/clear_refs)");
    }

    // Per-cell state across iterations.
    std::vector<std::vector<uint64_t>> first_digest(
        num_scenes, std::vector<uint64_t>(num_columns, 0));
    std::vector<std::vector<CellVerdict>> verdict(
        num_scenes, std::vector<CellVerdict>(num_columns));
    std::vector<double> setup_s, sweep_s, untraced_total, traced_total;
    double gap_pp = 0.0, gain_pct = 0.0;

    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    for (int it = 0;; ++it) {
        const bool traced_it = opt.trace && it % 2 == 1;
        if (spec.cold_store) {
            fs::remove_all(store);
            fs::create_directories(store);
        }
        if (traced_it)
            spansBeginRun(static_cast<uint32_t>(it));
        auto t0 = std::chrono::steady_clock::now();
        Prepared prepared = traced("bench.setup", [&] {
            return setup(spec, opt.seed, store, threads);
        });
        auto t1 = std::chrono::steady_clock::now();
        Grid grid = traced("bench.sweep", [&] {
            return sweep(spec, prepared, store, threads);
        });
        auto t2 = std::chrono::steady_clock::now();
        spansEndRun();

        double setup = std::chrono::duration<double>(t1 - t0).count();
        double sim = std::chrono::duration<double>(t2 - t1).count();
        (traced_it ? traced_total : untraced_total).push_back(setup + sim);
        if (!traced_it) {
            setup_s.push_back(setup);
            sweep_s.push_back(sim);
        }

        for (size_t s = 0; s < num_scenes; ++s) {
            const std::string scene = sms::sceneName(spec.scenes[s]);
            for (size_t c = 0; c < num_columns; ++c) {
                const sms::SimResult &r = grid.results[s][c];
                CellVerdict &v = verdict[s][c];
                v.fail(prepared.errors[s], false);
                v.fail(grid.errors[s][c], false);
                v.fail(oracleFailure(r), true);
                v.fail(conservationFailure(r), false);
                uint64_t digest = counterDigest(r);
                if (use_reference) {
                    auto ref = reference.find(
                        cellKey(scene, spec.columns[c].label));
                    if (ref == reference.end() || ref->second != digest)
                        v.fail("counters differ from the reference", false);
                }
                if (it == 0)
                    first_digest[s][c] = digest;
                else if (digest != first_digest[s][c])
                    v.fail("counters differ between iterations", false);
            }
        }

        // SMS over RB_8 IPC, geomean over scenes (simulated time).
        double log_sum = 0.0;
        for (size_t s = 0; s < num_scenes; ++s)
            log_sum += std::log(grid.results[s][spec.sms_column].ipc() /
                                grid.results[s][spec.rb8_column].ipc());
        gain_pct = (std::exp(log_sum / num_scenes) - 1.0) * 100.0;
        gap_pp = std::fabs(gain_pct - kPaperSmsGainPct);

        const int done_each = opt.trace ? (it + 1) / 2 : it + 1;
        const int need_each = opt.trace ? kMinTracedIterations : kMinIterations;
        if (done_each >= need_each && elapsed() >= opt.seconds)
            break;
    }
    fs::remove_all(root);

    // Cell verdicts.
    size_t failed = 0;
    bool correct = true;
    for (size_t s = 0; s < num_scenes; ++s)
        for (size_t c = 0; c < num_columns; ++c) {
            const CellVerdict &v = verdict[s][c];
            if (v.reasons.empty())
                continue;
            ++failed;
            const char *scene = sms::sceneName(spec.scenes[s]);
            const std::string &label = spec.columns[c].label;
            const KnownDefect *known =
                v.only_oracle
                    ? knownDefect(opt.workload, opt.seed, scene, label)
                    : nullptr;
            if (!known)
                correct = false;
            std::string why;
            for (const std::string &reason : v.reasons)
                why += (why.empty() ? "" : "; ") + reason;
            std::printf("failed cell %s %s: %s%s%s\n", scene, label.c_str(),
                        why.c_str(), known ? "; known defect: " : "",
                        known ? known->defect : "");
        }
    const size_t attempted = num_scenes * num_columns;

    if (!opt.write_reference.empty()) {
        std::ofstream out(opt.write_reference);
        out << referenceHeader(opt) << "\n";
        char hex[17];
        for (size_t s = 0; s < num_scenes; ++s)
            for (size_t c = 0; c < num_columns; ++c) {
                std::snprintf(hex, sizeof hex, "%016llx",
                              static_cast<unsigned long long>(
                                  first_digest[s][c]));
                out << sms::sceneName(spec.scenes[s]) << " "
                    << spec.columns[c].label << " " << hex << "\n";
            }
        if (!out.flush())
            usage(("cannot write " + opt.write_reference).c_str());
    }

    std::printf("hostbench workload=%s profile=%s seed=%llu threads=%u "
                "scenes=%zu columns=%zu cells=%zu iterations=%zu "
                "trace=%d\n",
                workloadName(opt.workload), profileName(opt.profile),
                static_cast<unsigned long long>(opt.seed), threads,
                num_scenes, num_columns, attempted,
                untraced_total.size() + traced_total.size(), opt.trace);
    for (auto [name, values] : {std::pair{"setup_s", &setup_s},
                                std::pair{"sweep_s", &sweep_s}}) {
        std::printf("%s samples:", name);
        for (double v : *values)
            std::printf(" %.4f", v);
        std::printf("\n");
    }

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"sweep_s", median(sweep_s), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"passed_cell_frac", 1.0 - ratio(failed, attempted), "frac"},
        };
        // Two more end-to-end figures, printed only: failed_cell_frac is
        // 0 on healthy workloads and sms_ipc_gap_pp moves with the seed's
        // ray streams, so neither can carry a bound (the JSON carries
        // passed_cell_frac instead, and the traced run the gap).
        std::printf("%-32s %.6g frac (%zu of %zu cells failed)\n",
                    "failed_cell_frac", ratio(failed, attempted), failed,
                    attempted);
        std::printf("%-32s %.6g pp (SMS over RB_8 geomean IPC gain "
                    "%+.3f %%, paper %+.1f %%)\n",
                    "sms_ipc_gap_pp", gap_pp, gain_pct, kPaperSmsGainPct);
    } else {
        // Per-layer metrics: median over the traced iterations.
        std::map<std::string, std::vector<double>> samples;
        const auto runs = spansByRun();
        for (const auto &[id, run] : runs)
            for (const auto &[name, value] : layerMetrics(run, threads))
                samples[name].push_back(value);
        for (const auto &[name, values] : samples) {
            const bool timed = name.size() > 2 &&
                               name.compare(name.size() - 2, 2, "_s") == 0;
            std::string unit = timed ? "s" : "count";
            if (name.find("_rate") != std::string::npos ||
                name == "util.sweep_occupancy")
                unit = "frac";
            else if (name == "sim.replay_ns_per_step")
                unit = "ns";
            else if (name.find("_bytes") != std::string::npos)
                unit = "bytes";
            else if (name.find("_cycles") != std::string::npos ||
                     name == "sim.cycles")
                unit = "cycles";
            metrics.push_back({name, median(values), unit});
        }
        metrics.push_back({"sms_ipc_gap_pp", gap_pp, "pp"});
        metrics.push_back({"bench.trace_overhead_frac",
                           ratio(median(traced_total),
                                 median(untraced_total)) -
                               1.0,
                           "frac"});

        // The workloads' design claims, checked in the trace.
        auto value = [&](const char *name) {
            for (const Metric &m : metrics)
                if (m.name == name)
                    return m.value;
            return 0.0;
        };
        if (opt.workload == WorkloadKind::ReplaySweep) {
            bool holds = value("scene.make_s") == 0.0 &&
                         value("bvh.build_s") == 0.0 &&
                         value("trace.render_s") == 0.0 &&
                         value("sim.cells_executed") == 0.0;
            std::printf("claim: replay_sweep runs no scene, BVH, render or "
                        "execute work: %s\n",
                        holds ? "holds" : "DOES NOT HOLD");
            correct = correct && holds;
        }
        if (opt.workload == WorkloadKind::ColdLarge) {
            double bvh = value("bvh.build_s");
            bool holds = bvh >= value("scene.make_s") &&
                         bvh >= value("trace.render_s") &&
                         bvh >= value("trace.snapshot_save_s");
            std::printf("claim: bvh.build_s is the largest setup span: %s\n",
                        holds ? "holds" : "does not hold");
        }
        fs::create_directories(opt.work_dir);
        std::string path = (fs::path(opt.work_dir) /
                            (std::string("spans-") +
                             workloadName(opt.workload) + "-seed" +
                             std::to_string(opt.seed) + ".jsonl"))
                               .string();
        if (writeSpans(path))
            std::printf("spans written to %s\n", path.c_str());
    }
    for (const Metric &m : metrics)
        std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::fflush(stdout);
    printJson(correct, attempted, failed, metrics);
    return 0;
}

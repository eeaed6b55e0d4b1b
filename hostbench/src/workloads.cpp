/**
 * @file
 * Workload grids, setup and sweep, timed from outside the library.
 */

#include "hostbench/src/workloads.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "hostbench/src/spans.hpp"
#include "src/bvh/node_layout.hpp"
#include "src/scene/registry.hpp"
#include "src/serve/result_cache.hpp"
#include "src/sim/ray_reorder.hpp"
#include "src/sim/traversal_tape.hpp"
#include "src/stats/report.hpp"
#include "src/trace/cache_io.hpp"
#include "src/trace/path_tracer.hpp"
#include "src/trace/workload_cache.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace hostbench {

using namespace sms;

namespace {

Column
column(const StackConfig &stack, uint64_t l1_kb = 0)
{
    GpuConfig config = makeGpuConfig(stack, l1_kb * 1024);
    std::string label = configDisplayName(config);
    if (l1_kb)
        label += "@L1_" + std::to_string(l1_kb) + "KB";
    return {config, label};
}

Column
variantColumn(const StackConfig &stack, const NodeLayoutConfig &layout,
              const RayOrderConfig &order,
              const TraversalArchConfig &arch)
{
    GpuConfig config = makeGpuConfig(stack);
    config.node_layout = layout;
    config.ray_order = order;
    config.traversal_arch = arch;
    return {config, configDisplayName(config)};
}

size_t
columnIndex(const std::vector<Column> &columns, const std::string &label)
{
    for (size_t c = 0; c < columns.size(); ++c)
        if (columns[c].label == label)
            return c;
    fatal("hostbench: grid has no column '%s'", label.c_str());
}

/** Render parameters of a scene: the workload seed picks the rays. */
RenderParams
renderParams(SceneId id, uint64_t seed)
{
    RenderParams params = RenderParams::forScene(id);
    params.seed = seed;
    return params;
}

/** Build one scene's workload through the three preparation layers. */
std::shared_ptr<Workload>
prepare(SceneId id, ScaleProfile profile, const RenderParams &params)
{
    Scene scene = traced("scene.make", [&] { return makeScene(id, profile); });
    spanCount("scene.primitives", scene.primitiveCount());
    WideBvh bvh = traced("bvh.build", [&] { return WideBvh::build(scene); });
    spanCount("bvh.nodes", bvh.nodes().size());
    RenderOutput render = traced("trace.render", [&] {
        return renderAndBuildJobs(scene, bvh, params);
    });
    spanCount("trace.rays", render.rays);
    spanCount("trace.warp_jobs", render.jobs.size());
    return std::make_shared<Workload>(id, profile, std::move(scene),
                                      std::move(bvh), params,
                                      std::move(render));
}

void
countSnapshotBytes(const std::string &store, SceneId id,
                   ScaleProfile profile, const RenderParams &params)
{
    if (!spansOn())
        return;
    std::error_code ec;
    auto bytes = std::filesystem::file_size(
        workloadSnapshotPath(store, id, profile, params), ec);
    if (!ec)
        spanCount("trace.snapshot_bytes", bytes);
}

/** Simulated-event counts of one cell, recorded at the sim boundary. */
void
countCell(const SimResult &r, bool replayed)
{
    spanCount(replayed ? "sim.cells_replayed" : "sim.cells_executed", 1);
    if (replayed)
        spanCount("sim.replay_steps", r.ops.steps);
    spanCount("sim.steps", r.ops.steps);
    spanCount("sim.cycles", r.cycles);
    spanCount("core.pushes", r.stack.pushes);
    spanCount("core.rb_spills_to_sh", r.stack.rb_spills_to_sh);
    spanCount("core.rb_spills_to_global", r.stack.rb_spills_to_global);
    spanCount("core.rb_refills_from_global", r.stack.rb_refills_from_global);
    spanCount("core.borrows", r.stack.borrows);
    spanCount("core.forced_flushes", r.stack.forced_flushes);
    const CycleAccount &a = r.accounting;
    spanCount("core.stall_stack_cycles",
              a.leaf(CycleLeaf::StallStackSpill) +
                  a.leaf(CycleLeaf::StallStackRefill) +
                  a.leaf(CycleLeaf::StallStackBorrowChain) +
                  a.leaf(CycleLeaf::StallStackForcedFlush));
    spanCount("memory.l1_accesses", r.l1.accesses());
    spanCount("memory.l1_misses", r.l1.misses());
    spanCount("memory.l2_accesses", r.l2.accesses());
    spanCount("memory.l2_misses", r.l2.misses());
    spanCount("memory.offchip_accesses", r.offchip_accesses);
    spanCount("memory.dram_queue_wait_cycles", r.dram.queue_wait_cycles);
    spanCount("memory.shmem_conflict_passes", r.shared_mem.conflict_passes);
    spanCount("memory.stall_mem_cycles",
              a.leaf(CycleLeaf::StallMemL1Miss) +
                  a.leaf(CycleLeaf::StallMemL2Miss) +
                  a.leaf(CycleLeaf::StallMemDramQueue));
}

bool
conserves(const CycleAccount &a)
{
    return a.conserved() && a.totalSum() == a.slot_cycles;
}

} // namespace

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::ColdLarge: return "cold_large";
    case WorkloadKind::ReplaySweep: return "replay_sweep";
    case WorkloadKind::VariantBakeoff: return "variant_bakeoff";
    }
    return "?";
}

bool
workloadFromName(const std::string &name, WorkloadKind &kind)
{
    for (WorkloadKind k : {WorkloadKind::ColdLarge, WorkloadKind::ReplaySweep,
                           WorkloadKind::VariantBakeoff})
        if (name == workloadName(k)) {
            kind = k;
            return true;
        }
    return false;
}

ScaleProfile
defaultProfile(WorkloadKind kind)
{
    return kind == WorkloadKind::ColdLarge ? ScaleProfile::Large
                                           : ScaleProfile::Small;
}

WorkloadSpec
makeSpec(WorkloadKind kind, ScaleProfile profile)
{
    WorkloadSpec spec{};
    spec.profile = profile;
    spec.scenes.assign(allScenes().begin(), allScenes().end());
    auto &cols = spec.columns;
    switch (kind) {
    case WorkloadKind::ColdLarge:
        // Fig. 13: RB_8, +SH_8, +SK, +RA (full SMS), RB_FULL.
        cols.push_back(column(StackConfig::baseline(8)));
        cols.push_back(column(StackConfig::withSh(8, 8, false, false)));
        cols.push_back(column(StackConfig::withSh(8, 8, true, false)));
        cols.push_back(column(StackConfig::sms()));
        cols.push_back(column(StackConfig::rbFull()));
        spec.cold_store = true;
        spec.store_results = true;
        break;
    case WorkloadKind::ReplaySweep:
        // Union of the Fig. 6, 8, 13 and 15 columns.
        for (uint32_t rb : {2u, 4u, 8u, 16u, 32u})
            cols.push_back(column(StackConfig::baseline(rb)));
        cols.push_back(column(StackConfig::rbFull()));
        for (uint32_t sh : {4u, 8u, 16u})
            cols.push_back(column(StackConfig::withSh(8, sh)));
        cols.push_back(column(StackConfig::withSh(8, 8, true, false)));
        for (uint32_t rb : {2u, 4u, 8u, 16u})
            cols.push_back(column(StackConfig::sms(rb, 8)));
        for (uint64_t kb : {16u, 32u, 128u, 256u})
            cols.push_back(column(StackConfig::baseline(8), kb));
        spec.warm_store = true;
        break;
    case WorkloadKind::VariantBakeoff:
        for (const StackConfig &stack :
             {StackConfig::baseline(8), StackConfig::sms()})
            for (const NodeLayoutConfig &layout :
                 {NodeLayoutConfig::exact(), NodeLayoutConfig::quantized(8)})
                for (const RayOrderConfig &order :
                     {RayOrderConfig::none(), RayOrderConfig::octantMorton()})
                    cols.push_back(variantColumn(stack, layout, order,
                                                 TraversalArchConfig::stack()));
        for (const TraversalArchConfig &arch :
             {TraversalArchConfig::stackless(),
              TraversalArchConfig::predicted()})
            cols.push_back(variantColumn(StackConfig::baseline(8),
                                         NodeLayoutConfig::exact(),
                                         RayOrderConfig::none(), arch));
        break;
    }
    spec.rb8_column = columnIndex(cols, StackConfig::baseline(8).name());
    spec.sms_column = columnIndex(cols, StackConfig::sms().name());
    return spec;
}

void
fillStore(const WorkloadSpec &spec, uint64_t seed, const std::string &store,
          unsigned threads)
{
    parallelFor(
        spec.scenes.size(),
        [&](size_t s) {
            SceneId id = spec.scenes[s];
            RenderParams params = renderParams(id, seed);
            auto workload = prepare(id, spec.profile, params);
            saveWorkloadSnapshot(store, *workload, spec.profile, params);
            TraversalTape tape;
            SimOptions options;
            options.record_tape = &tape;
            simulateJobs(workload->scene, workload->bvh,
                         workload->render.jobs,
                         spec.columns[spec.rb8_column].config, options);
            saveTraversalTape(store, *workload, tape);
        },
        threads);
}

Prepared
setup(const WorkloadSpec &spec, uint64_t seed, const std::string &store,
      unsigned threads)
{
    Prepared out;
    out.workloads.resize(spec.scenes.size());
    out.errors.resize(spec.scenes.size());
    tracedParallelFor(spec.scenes.size(), threads, [&](size_t s) {
        SceneId id = spec.scenes[s];
        RenderParams params = renderParams(id, seed);
        if (spec.warm_store) {
            out.workloads[s] = traced("trace.snapshot_load", [&] {
                return loadWorkloadSnapshot(store, id, spec.profile, params);
            });
            if (out.workloads[s]) {
                countSnapshotBytes(store, id, spec.profile, params);
                return;
            }
            out.errors[s] = "snapshot did not load";
        }
        out.workloads[s] = prepare(id, spec.profile, params);
        if (spec.cold_store) {
            bool saved = traced("trace.snapshot_save", [&] {
                return saveWorkloadSnapshot(store, *out.workloads[s],
                                            spec.profile, params);
            });
            if (saved)
                countSnapshotBytes(store, id, spec.profile, params);
            else
                out.errors[s] = "snapshot did not save";
        }
    });
    return out;
}

Grid
sweep(const WorkloadSpec &spec, const Prepared &prepared,
      const std::string &store, unsigned threads)
{
    const size_t num_scenes = prepared.workloads.size();
    const size_t num_columns = spec.columns.size();
    Grid grid;
    grid.results.assign(num_scenes, std::vector<SimResult>(num_columns));
    grid.errors.assign(num_scenes, std::vector<std::string>(num_columns));

    // Columns sharing a traversal variant record the same functional
    // traversal, so they share one tape; the first column of a group
    // records it.
    std::vector<std::vector<size_t>> variant_groups;
    for (size_t c = 0; c < num_columns; ++c) {
        uint64_t digest = spec.columns[c].config.variant().digest();
        auto it = std::find_if(
            variant_groups.begin(), variant_groups.end(), [&](auto &g) {
                return spec.columns[g[0]].config.variant().digest() ==
                       digest;
            });
        if (it == variant_groups.end())
            variant_groups.push_back({c});
        else
            it->push_back(c);
    }

    // Result-store keys: one workload fingerprint per scene, one config
    // digest per column.
    std::vector<uint64_t> fingerprints(num_scenes), digests(num_columns);
    if (spec.store_results) {
        tracedParallelFor(num_scenes, threads, [&](size_t s) {
            const Workload &w = *prepared.workloads[s];
            fingerprints[s] = traced("serve.result_store", [&] {
                return workloadFingerprint(w.render.jobs, w.bvh);
            });
        });
        for (size_t c = 0; c < num_columns; ++c)
            digests[c] = gpuConfigDigest(spec.columns[c].config);
    }
    auto storeResult = [&](size_t s, size_t c, double sim_seconds) {
        const Workload &w = *prepared.workloads[s];
        bool stored = traced("serve.result_store", [&] {
            return storeCachedResult(store, w.id, w.profile, fingerprints[s],
                                     digests[c], grid.results[s][c],
                                     sim_seconds);
        });
        if (stored)
            spanCount("serve.results_stored", 1);
        else
            grid.errors[s][c] = "result did not store";
    };
    auto simulate = [&](size_t s, size_t c, const WarpJobList &jobs,
                        const SimOptions &options) {
        const Workload &w = *prepared.workloads[s];
        const bool replayed = options.replay_tape != nullptr;
        auto start = std::chrono::steady_clock::now();
        grid.results[s][c] =
            traced(replayed ? "sim.replay" : "sim.execute", [&] {
                return simulateJobs(w.scene, w.bvh, jobs,
                                    spec.columns[c].config, options);
            });
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        countCell(grid.results[s][c], replayed);
        if (spec.store_results)
            storeResult(s, c, seconds);
    };

    struct Group
    {
        size_t scene;
        const std::vector<size_t> *columns;
        WarpJobList reordered;
        const WarpJobList *jobs = nullptr;
        TraversalTape tape;
        size_t first_replay = 1; ///< 0 when the tape came from the store
    };
    std::vector<Group> groups;
    groups.reserve(num_scenes * variant_groups.size());
    for (size_t s = 0; s < num_scenes; ++s)
        for (const auto &cols : variant_groups)
            groups.push_back(Group{s, &cols, {}, nullptr, {}, 1});

    // Phase A: each group gets its job stream and its tape, loaded from
    // a warm store or recorded by executing the lead column.
    tracedParallelFor(groups.size(), threads, [&](size_t i) {
        Group &g = groups[i];
        const Workload &w = *prepared.workloads[g.scene];
        const size_t lead = (*g.columns)[0];
        const GpuConfig &config = spec.columns[lead].config;
        const TraversalVariant variant = config.variant();
        g.jobs = &w.render.jobs;
        if (config.ray_order.active()) {
            g.reordered = traced("sim.reorder", [&] {
                return reorderJobs(w.render.jobs, w.bvh, config.ray_order);
            });
            g.jobs = &g.reordered;
        }
        if (spec.warm_store) {
            bool loaded = traced("trace.tape_load", [&] {
                return loadTraversalTape(store, w, variant, g.tape);
            });
            if (loaded) {
                spanCount("sim.tape_bytes", g.tape.totalBytes());
                g.first_replay = 0;
                return;
            }
            for (size_t c : *g.columns)
                grid.errors[g.scene][c] = "tape did not load";
        }
        QuantizedBvh qbvh;
        SimOptions options;
        options.record_tape = &g.tape;
        if (config.node_layout.isQuantized()) {
            traced("bvh.quantize",
                   [&] { qbvh.build(w.bvh, config.node_layout); });
            options.quantized_bvh = &qbvh;
        }
        simulate(g.scene, lead, *g.jobs, options);
        spanCount("sim.tape_bytes", g.tape.totalBytes());
        if (spec.cold_store &&
            !traced("trace.tape_save", [&] {
                return saveTraversalTape(store, w, variant, g.tape);
            }))
            grid.errors[g.scene][lead] = "tape did not save";
    });

    // Phase B: every other cell replays its group's tape.
    std::vector<std::pair<size_t, size_t>> replays; // (group, column)
    for (size_t i = 0; i < groups.size(); ++i)
        for (size_t k = groups[i].first_replay; k < groups[i].columns->size();
             ++k)
            replays.emplace_back(i, (*groups[i].columns)[k]);
    tracedParallelFor(replays.size(), threads, [&](size_t i) {
        const Group &g = groups[replays[i].first];
        SimOptions options;
        options.replay_tape = &g.tape;
        simulate(g.scene, replays[i].second, *g.jobs, options);
    });
    return grid;
}

uint64_t
counterDigest(const SimResult &r)
{
    const std::string json = toJson(r).dump();
    return fnv1a(json.data(), json.size());
}

std::string
oracleFailure(const SimResult &r)
{
    if (r.mismatches > 0)
        return "diverges from the functional oracle in " +
               std::to_string(r.mismatches) + " lanes";
    return "";
}

std::string
conservationFailure(const SimResult &r)
{
    if (!conserves(r.accounting))
        return "cycle accounting does not conserve";
    for (const CycleAccount &a : r.sm_accounting)
        if (!conserves(a))
            return "per-SM cycle accounting does not conserve";
    return "";
}

} // namespace hostbench

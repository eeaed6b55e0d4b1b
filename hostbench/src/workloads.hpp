/**
 * @file
 * The benchmark's three workloads, built on the simulator library's
 * public layer calls (the ones prepareWorkload/runWorkload make), each
 * wrapped in a span:
 *
 *  - cold_large: Large profile, Fig. 13 grid, fresh empty stores. Every
 *    iteration prepares all scenes, saves .wkld snapshots, executes and
 *    records one cell per scene, saves its tape, replays the rest and
 *    stores every cell's .res entry.
 *  - replay_sweep: Small profile, stack-design grid (the union of the
 *    Fig. 6/8/13/15 columns). A store is filled before timing; every
 *    iteration loads the snapshots, loads the tapes and replays every
 *    cell. No scene, BVH or render work is timed.
 *  - variant_bakeoff: Small profile, traversal-variant grid (stack x
 *    node layout x ray order, plus stackless and predicted), memory
 *    tapes, no stores. Six variant groups per scene, so most cells
 *    execute geometry.
 *
 * The benchmark never goes through runWorkload(), which aborts on an
 * oracle mismatch: a diverging cell must be counted, not fatal.
 */

#ifndef HOSTBENCH_WORKLOADS_HPP
#define HOSTBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/gpu_config.hpp"
#include "src/sim/gpu_sim.hpp"
#include "src/trace/render.hpp"

namespace hostbench {

enum class WorkloadKind
{
    ColdLarge,
    ReplaySweep,
    VariantBakeoff,
};

/** "cold_large", "replay_sweep", "variant_bakeoff". */
const char *workloadName(WorkloadKind kind);

/** Parse a workload name; false for unknown names. */
bool workloadFromName(const std::string &name, WorkloadKind &kind);

/** One column of a workload's grid. */
struct Column
{
    sms::GpuConfig config;
    std::string label; ///< unique within the grid
};

/** What a workload runs and which stores it touches. */
struct WorkloadSpec
{
    sms::ScaleProfile profile;
    std::vector<sms::SceneId> scenes;
    std::vector<Column> columns;
    size_t rb8_column; ///< the paper's RB_8 baseline
    size_t sms_column; ///< full SMS (RB_8+SH_8+SK+RA)
    /** Setup builds and saves snapshots into an empty store. */
    bool cold_store;
    /** Setup loads snapshots and the sweep loads tapes (filled store). */
    bool warm_store;
    /** Every simulated cell is stored as a .res entry. */
    bool store_results;
};

/** The workload's grid at @p profile (its own profile by default). */
WorkloadSpec makeSpec(WorkloadKind kind, sms::ScaleProfile profile);

/** The profile a workload runs at when none is given. */
sms::ScaleProfile defaultProfile(WorkloadKind kind);

/** Prepared inputs of one iteration (one per scene, spec order). */
struct Prepared
{
    std::vector<std::shared_ptr<sms::Workload>> workloads;
    /** Store failure of a scene ("" = none); fails its cells. */
    std::vector<std::string> errors;
};

/**
 * Fill @p store with every scene's snapshot and default-variant tape
 * (the state a warm workload starts from). Not timed.
 */
void fillStore(const WorkloadSpec &spec, uint64_t seed,
               const std::string &store, unsigned threads);

/**
 * Make the iteration's workloads: build them (and save snapshots when
 * the store is cold) or load them from the warm store. A scene whose
 * snapshot does not save or load (then it is rebuilt) gets an error.
 */
Prepared setup(const WorkloadSpec &spec, uint64_t seed,
               const std::string &store, unsigned threads);

/** Simulated grid of one iteration. */
struct Grid
{
    /** results[scene][column] */
    std::vector<std::vector<sms::SimResult>> results;
    /** Run-path failure of a cell ("" = none), e.g. a tape that did
     *  not load from a warm store. */
    std::vector<std::vector<std::string>> errors;
};

/**
 * Simulate every cell: per (scene, traversal variant) group, execute
 * and record the lead column (or load the group's tape from a warm
 * store), then replay every other cell from the group's tape.
 */
Grid sweep(const WorkloadSpec &spec, const Prepared &prepared,
           const std::string &store, unsigned threads);

/** FNV-1a digest of the cell's .res-style JSON (every counter). */
uint64_t counterDigest(const sms::SimResult &result);

/** "" or how many lanes diverge from the functional oracle. */
std::string oracleFailure(const sms::SimResult &result);

/** "" or the cycle accounting that does not conserve at zero epsilon,
 *  per run or per SM. */
std::string conservationFailure(const sms::SimResult &result);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HPP

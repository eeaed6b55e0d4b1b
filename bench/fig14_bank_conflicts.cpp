/**
 * @file
 * Fig. 14 — effect of skewed bank access: average delay cycles caused
 * by shared-memory bank conflicts, before (RB_8+SH_8) and after
 * (RB_8+SH_8+SK) the skew, per workload. Paper: 27.3% average
 * reduction in delay cycles.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/core/stack_config.hpp"
#include "src/memory/shared_memory.hpp"
#include "src/util/rng.hpp"

using namespace sms;
using namespace sms::benchutil;

namespace {

void
runFig14(JsonReporter &reporter)
{
    std::printf("=== Fig. 14: bank-conflict delay cycles, SH_8 vs "
                "SH_8+SK ===\n\n");
    auto workloads = prepareAllScenes();
    std::vector<StackConfig> configs{
        StackConfig::withSh(8, 8, false, false),
        StackConfig::withSh(8, 8, true, false),
    };
    SweepResult sweep = runSweep(workloads, configs);

    // The reduction table pairs both configs of every scene; a shard
    // worker may own only half a pair, so the cross-cell view is
    // skipped (the merged record keeps the per-cell conflict cycles).
    if (!sweepShardSpec().active()) {
        Table table;
        table.setHeader({"scene", "conflict-cyc (SH_8)",
                         "conflict-cyc (SH_8+SK)", "reduction"});
        double sum_base = 0.0, sum_skew = 0.0;
        for (size_t s = 0; s < workloads.size(); ++s) {
            uint64_t base =
                sweep.results[s][0].shared_mem.conflict_cycles;
            uint64_t skew =
                sweep.results[s][1].shared_mem.conflict_cycles;
            sum_base += static_cast<double>(base);
            sum_skew += static_cast<double>(skew);
            double red =
                base > 0
                    ? (1.0 - static_cast<double>(skew) / base) * 100.0
                    : 0.0;
            table.addRow({sceneName(workloads[s]->id),
                          std::to_string(base), std::to_string(skew),
                          Table::num(red, 1) + "%"});
        }
        double total_red =
            sum_base > 0 ? (1.0 - sum_skew / sum_base) * 100.0 : 0.0;
        table.addRow({"ALL", Table::num(sum_base, 0),
                      Table::num(sum_skew, 0),
                      Table::num(total_red, 1) + "%"});
        table.print();
        printPaperNote("skewed bank access reduces conflict delay "
                       "cycles by 27.3% on average");

        if (reporter.enabled())
            reporter.record()["conflict_reduction_pct"] = total_red;
    }

    reporter.addSweep(sweep);
    reporter.finish();
}

/**
 * Layer benchmark: SharedMemory::conflictPasses over fixed SMS-shaped
 * warp accesses (SH_8+SK stack file; each active lane reads one 8 B
 * entry of its own or, when borrowing, another lane's segment).
 */
void
BM_ConflictPasses(benchmark::State &state)
{
    constexpr uint32_t kShEntries = 8;
    constexpr uint32_t kSets = 256;
    Pcg32 rng(14);
    std::vector<std::vector<SharedLaneRequest>> sets(kSets);
    for (std::vector<SharedLaneRequest> &lanes : sets) {
        Addr warp_base = rng.nextBounded(8) * kWarpSize * kShEntries * 8;
        for (uint32_t lane = 0; lane < kWarpSize; ++lane) {
            if (rng.nextBounded(4) == 0)
                continue; // inactive lane
            uint32_t owner =
                rng.nextBounded(8) == 0 ? rng.nextBounded(kWarpSize) : lane;
            uint32_t slot = (skewBaseEntry(owner, kShEntries) +
                             rng.nextBounded(kShEntries)) %
                            kShEntries;
            lanes.push_back(
                {lane, warp_base + (owner * kShEntries + slot) * 8, 8});
        }
    }
    uint64_t passes = 0;
    for (auto _ : state) {
        for (const std::vector<SharedLaneRequest> &lanes : sets)
            passes += SharedMemory::conflictPasses(lanes);
    }
    benchmark::DoNotOptimize(passes);
    state.SetItemsProcessed(state.iterations() * kSets);
}
BENCHMARK(BM_ConflictPasses)->MeasureProcessCPUTime();

} // namespace

int
main(int argc, char **argv)
{
    JsonReporter reporter("fig14", argc, argv);
    runFig14(reporter);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

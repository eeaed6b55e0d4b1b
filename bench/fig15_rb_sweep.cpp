/**
 * @file
 * Fig. 15 — impact of primary RB stack size with and without SMS.
 *
 * (a) IPC of RB_{2,4,8,16} alone and with the full SMS design
 *     (SH_8+SK+RA), normalized to RB_8 (paper: RB_2 -28.3%; adding SMS
 *     recovers +39.7 pp; SMS with RB_2/RB_4 beats the RB_8 baseline).
 * (b) Off-chip memory access counts for the same grid, normalized to
 *     RB_8 (paper: RB_2 +62.3%; SMS cuts it by 79.2 pp).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/memory/memory_system.hpp"
#include "src/util/rng.hpp"

using namespace sms;
using namespace sms::benchutil;

namespace {

void
runFig15(JsonReporter &reporter)
{
    auto workloads = prepareAllScenes();
    const uint32_t rb_sizes[] = {2, 4, 8, 16};
    std::vector<StackConfig> configs;
    configs.push_back(StackConfig::baseline(8)); // normalization column
    for (uint32_t rb : rb_sizes) {
        configs.push_back(StackConfig::baseline(rb));
        configs.push_back(StackConfig::sms(rb, 8));
    }
    SweepResult sweep = runSweep(workloads, configs);

    // Shard workers skip the cross-cell tables; the merge rebuilds
    // the normalized view from all shards.
    if (!sweepShardSpec().active()) {
        std::printf("=== Fig. 15a: IPC vs RB stack size, with/without "
                    "SMS (normalized to RB_8) ===\n\n");
        Table ipc_table;
        ipc_table.setHeader({"config", "norm-IPC", "norm-offchip"});
        for (size_t c = 1; c < configs.size(); ++c) {
            ipc_table.addRow({configs[c].name(),
                              Table::num(meanNormIpc(sweep, c), 3),
                              Table::num(meanNormOffchip(sweep, c), 3)});
        }
        ipc_table.print();

        std::printf("\n=== Fig. 15 per-scene normalized IPC ===\n\n");
        Table per_scene;
        std::vector<std::string> h2{"scene"};
        for (size_t c = 1; c < configs.size(); ++c)
            h2.push_back(configs[c].name());
        per_scene.setHeader(h2);
        for (size_t s = 0; s < workloads.size(); ++s) {
            std::vector<std::string> row{sceneName(workloads[s]->id)};
            for (size_t c = 1; c < configs.size(); ++c)
                row.push_back(Table::num(normIpc(sweep, s, c), 3));
            per_scene.addRow(row);
        }
        per_scene.print();

        printPaperNote("RB_2 alone: -28.3% IPC, +62.3% off-chip "
                       "accesses; RB_2+SMS recovers +39.7 pp IPC and "
                       "-79.2 pp off-chip; SMS with RB_2/RB_4 "
                       "outperforms the RB_8 baseline; RB_16+SMS gains "
                       "only ~3.5 pp");
    }

    reporter.addSweep(sweep);
    reporter.finish();
}

/**
 * Layer benchmark: a seeded, fixed line trace through
 * MemorySystem::accessLine with the Table I hierarchy (8 SMs). The
 * trace mixes skewed BVH node reads, triangle reads and local-spill
 * loads/stores in the simulator's address regions. Its L1 miss rate is
 * near a Small replay's (about a third); its L2 misses about three
 * quarters of its accesses, against about 40 % in a replay.
 */
void
BM_MemorySystemTrace(benchmark::State &state)
{
    struct Access
    {
        uint32_t sm;
        Addr line;
        bool write;
        TrafficClass cls;
    };
    const GpuConfig table1 = GpuConfig::tableI();
    const uint32_t num_sms = table1.num_sms;
    constexpr uint32_t kAccesses = 1 << 18;
    Pcg32 rng(15);
    std::vector<Access> trace(kAccesses);
    for (Access &a : trace) {
        a.sm = rng.nextBounded(num_sms);
        uint32_t kind = rng.nextBounded(20);
        a.write = false;
        if (kind < 14) {
            // Node reads mostly hit the top of the tree.
            uint32_t node = rng.nextBounded(10) < 9 ? rng.nextBounded(256)
                                                   : rng.nextBounded(20000);
            a.line = 0x10000000ull + Addr{node} * kLineBytes;
            a.cls = TrafficClass::Node;
        } else if (kind < 17) {
            a.line = 0x40000000ull + Addr{rng.nextBounded(60000)} *
                                         kLineBytes;
            a.cls = TrafficClass::Primitive;
        } else {
            // Spills of the SM's resident warps, mostly shallow.
            Addr frame = a.sm * 8 + rng.nextBounded(8);
            a.line = 0x100000000ull + frame * 0x10000ull +
                     Addr{rng.nextBounded(12)} * kLineBytes;
            a.write = rng.nextBounded(2) == 0;
            a.cls = TrafficClass::Stack;
        }
    }
    MemorySystem mem(table1.resolvedMemConfig(), num_sms);
    Cycle now = 0;
    Cycle sink = 0;
    for (auto _ : state) {
        for (uint32_t i = 0; i < kAccesses; ++i) {
            const Access &a = trace[i];
            sink += mem.accessLine(a.sm, a.line, a.write, a.cls, now);
            now += i & 1;
        }
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kAccesses);
    LevelStats l1;
    for (uint32_t s = 0; s < num_sms; ++s) {
        l1.loads += mem.l1(s).stats().loads;
        l1.stores += mem.l1(s).stats().stores;
        l1.load_misses += mem.l1(s).stats().load_misses;
        l1.store_misses += mem.l1(s).stats().store_misses;
    }
    state.counters["l1_miss_rate"] = l1.missRate();
    state.counters["l2_miss_rate"] = mem.l2().stats().missRate();
}
BENCHMARK(BM_MemorySystemTrace)->MeasureProcessCPUTime();

} // namespace

int
main(int argc, char **argv)
{
    JsonReporter reporter("fig15", argc, argv);
    runFig15(reporter);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

/**
 * @file
 * Tests for the cache tag model (LRU, associativity, write policies),
 * the DRAM bandwidth queue, and the line-geometry helpers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/memory/cache.hpp"
#include "src/memory/dram.hpp"
#include "src/memory/memory_system.hpp"
#include "src/memory/request.hpp"
#include "src/sim/gpu_config.hpp"
#include "src/trace/render.hpp"
#include "src/util/rng.hpp"

namespace sms {
namespace {

constexpr Addr kLine = kLineBytes;

/**
 * Timestamp-based true-LRU reference model: the pre-optimization
 * formulation of Cache (O(ways) scans, uint64 recency clock). The
 * production recency-list implementation must match it access for
 * access — same hits, same evictions, same writebacks.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config) : config_(config)
    {
        uint64_t total_lines = config.size_bytes / config.line_bytes;
        if (config.ways == 0 || config.ways >= total_lines) {
            num_sets_ = 1;
            num_ways_ = static_cast<uint32_t>(total_lines);
        } else {
            num_ways_ = config.ways;
            num_sets_ = static_cast<uint32_t>(total_lines / config.ways);
        }
        lines_.resize(static_cast<size_t>(num_sets_) * num_ways_);
    }

    Cache::Result
    access(Addr line_addr, bool write)
    {
        Cache::Result result;
        Line *set =
            &lines_[static_cast<size_t>(
                        (line_addr / config_.line_bytes) % num_sets_) *
                    num_ways_];
        ++clock_;
        for (uint32_t w = 0; w < num_ways_; ++w) {
            if (set[w].valid && set[w].tag == line_addr) {
                set[w].lru = clock_;
                set[w].dirty = set[w].dirty || write;
                result.hit = true;
                return result;
            }
        }
        if (write && !config_.allocate_on_store)
            return result;
        Line *victim = &set[0];
        for (uint32_t w = 0; w < num_ways_; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (set[w].lru < victim->lru)
                victim = &set[w];
        }
        if (victim->valid && victim->dirty) {
            result.evicted_dirty = true;
            result.evicted_line = victim->tag;
        }
        victim->valid = true;
        victim->tag = line_addr;
        victim->dirty = write;
        victim->lru = clock_;
        return result;
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0;
    };

    CacheConfig config_;
    uint32_t num_sets_ = 1;
    uint32_t num_ways_ = 1;
    std::vector<Line> lines_;
    uint64_t clock_ = 0;
};

/** One access of a differential stream. */
struct StreamAccess
{
    Addr line;
    bool write;
};

/** Replay @p stream through Cache and ReferenceCache in lock-step. */
void
crossCheckStream(const CacheConfig &config,
                 const std::vector<StreamAccess> &stream)
{
    Cache cache(config);
    ReferenceCache ref(config);
    for (size_t i = 0; i < stream.size(); ++i) {
        const StreamAccess &a = stream[i];
        Cache::Result got =
            cache.access(a.line, a.write, TrafficClass::Node);
        Cache::Result want = ref.access(a.line, a.write);
        ASSERT_EQ(got.hit, want.hit)
            << "access " << i << " line 0x" << std::hex << a.line;
        ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "access " << i;
        if (want.evicted_dirty) {
            ASSERT_EQ(got.evicted_line, want.evicted_line)
                << "access " << i;
        }
        ASSERT_EQ(cache.probe(a.line), got.hit || !a.write ||
                                           config.allocate_on_store)
            << "access " << i;
    }
}

void
crossCheck(const CacheConfig &config, uint32_t accesses, Addr addr_lines,
           uint64_t seed)
{
    Pcg32 rng(seed);
    std::vector<StreamAccess> stream(accesses);
    for (StreamAccess &a : stream) {
        a.line = static_cast<Addr>(rng.nextU32() % addr_lines) *
                 config.line_bytes;
        a.write = rng.nextU32() % 4 == 0;
    }
    crossCheckStream(config, stream);
}

/**
 * A stream shaped like the simulator's: skewed BVH node reads, triangle,
 * sphere and predictor-table lines, local-spill loads and stores over
 * 64 KB frames, and bursts walking power-of-two line strides — all in
 * the simulator's address regions.
 */
std::vector<StreamAccess>
simulatorStream(uint32_t accesses, uint64_t seed)
{
    constexpr Addr kNodeBase = 0x10000000ull;
    constexpr Addr kTriBase = 0x40000000ull;
    constexpr Addr kSphereBase = 0x50000000ull;
    constexpr Addr kPredictorBase = 0x60000000ull;
    constexpr Addr kSpillBase = 0x100000000ull;
    constexpr Addr kSpillFrame = 0x10000ull;
    Pcg32 rng(seed);
    std::vector<StreamAccess> stream;
    stream.reserve(accesses);
    while (stream.size() < accesses) {
        uint32_t kind = rng.nextBounded(16);
        if (kind < 6) {
            uint32_t node = rng.nextBounded(4) != 0 ? rng.nextBounded(600)
                                                    : rng.nextBounded(30000);
            stream.push_back({kNodeBase + Addr{node} * kLine,
                              rng.nextBounded(64) == 0});
        } else if (kind < 8) {
            stream.push_back(
                {kTriBase + Addr{rng.nextBounded(20000)} * kLine, false});
        } else if (kind < 9) {
            stream.push_back(
                {kSphereBase + Addr{rng.nextBounded(3000)} * kLine, false});
        } else if (kind < 10) {
            stream.push_back(
                {kPredictorBase + Addr{rng.nextBounded(2048)} * kLine,
                 rng.nextBounded(2) == 0});
        } else if (kind < 14) {
            // Spill frames of the resident jobs recycle mod 8192.
            Addr frame = rng.nextBounded(4) == 0 ? rng.nextBounded(8192)
                                                 : rng.nextBounded(32);
            Addr slot_line = rng.nextBounded(24);
            stream.push_back({kSpillBase + frame * kSpillFrame +
                                  slot_line * kLine,
                              rng.nextBounded(2) == 0});
        } else {
            // A burst of 8-64 lines at a power-of-two stride, starting
            // in one of the regions.
            const Addr bases[] = {kNodeBase, kTriBase, kSpillBase};
            Addr base = bases[rng.nextBounded(3)];
            Addr stride = kLine << rng.nextBounded(13);
            uint32_t burst = 8 + rng.nextBounded(57);
            bool write = base == kSpillBase && rng.nextBounded(2) == 0;
            for (uint32_t i = 0; i < burst && stream.size() < accesses;
                 ++i)
                stream.push_back({base + i * stride, write});
        }
    }
    return stream;
}

/** The L1 and L2 geometries every replay_sweep column builds. */
std::vector<CacheConfig>
replaySweepGeometries()
{
    std::vector<GpuConfig> configs;
    for (uint32_t rb : {2u, 4u, 8u, 16u, 32u})
        configs.push_back(makeGpuConfig(StackConfig::baseline(rb)));
    configs.push_back(makeGpuConfig(StackConfig::rbFull()));
    for (uint32_t sh : {4u, 8u, 16u})
        configs.push_back(makeGpuConfig(StackConfig::withSh(8, sh)));
    configs.push_back(makeGpuConfig(StackConfig::withSh(8, 8, true, false)));
    for (uint32_t rb : {2u, 4u, 8u, 16u})
        configs.push_back(makeGpuConfig(StackConfig::sms(rb, 8)));
    for (uint64_t kb : {16u, 32u, 128u, 256u})
        configs.push_back(
            makeGpuConfig(StackConfig::baseline(8), kb * 1024));
    std::vector<CacheConfig> geometries;
    auto add = [&](const CacheConfig &c) {
        for (const CacheConfig &g : geometries)
            if (g.size_bytes == c.size_bytes && g.ways == c.ways &&
                g.allocate_on_store == c.allocate_on_store)
                return;
        geometries.push_back(c);
    };
    for (const GpuConfig &config : configs) {
        MemoryHierarchyConfig mem = config.resolvedMemConfig();
        add(mem.l1);
        add(mem.l2);
    }
    return geometries;
}

TEST(Cache, RecencyListMatchesTimestampLruFullyAssociative)
{
    // Table I L1D geometry: fully associative, the hashed-tag-index
    // fast path.
    crossCheck({64 * 1024, 0, kLineBytes, false}, 50000, 1500, 1);
    crossCheck({64 * 1024, 0, kLineBytes, true}, 50000, 1500, 2);
}

TEST(Cache, RecencyListMatchesTimestampLruSetAssociative)
{
    // Table I L2 geometry: 16-way, non-power-of-two set count.
    crossCheck({3 * 1024 * 1024 / 8, 16, kLineBytes, true}, 50000, 9000,
               3);
    // Tiny 2-way cache: maximal eviction churn.
    crossCheck({4 * kLineBytes, 2, kLineBytes, true}, 20000, 13, 4);
}

TEST(Cache, SimulatorStreamsMatchTimestampLruOnReplaySweepGeometries)
{
    std::vector<CacheConfig> geometries = replaySweepGeometries();
    bool has_448_ways = false;
    for (size_t g = 0; g < geometries.size(); ++g) {
        const CacheConfig &config = geometries[g];
        if (Cache(config).numWays() == 448)
            has_448_ways = true;
        SCOPED_TRACE(testing::Message()
                     << config.size_bytes << " B, " << config.ways
                     << " ways, allocate_on_store "
                     << config.allocate_on_store);
        crossCheckStream(config, simulatorStream(40000, 100 + g));
        // The same geometry with the other store policy.
        CacheConfig flipped = config;
        flipped.allocate_on_store = !config.allocate_on_store;
        crossCheckStream(flipped, simulatorStream(20000, 200 + g));
    }
    // RB_8+SH_8 carves 8 KB of stacks out of the 64 KB array, leaving a
    // 56 KB L1 whose way count is not a power of two.
    EXPECT_TRUE(has_448_ways);
    EXPECT_GE(geometries.size(), 6u);
}

TEST(Cache, PowerOfTwoStridesMatchTimestampLru)
{
    // Walks that alias in a power-of-two-indexed structure: every
    // stride from one line to 4096 lines, over more lines than any of
    // the caches holds, then revisited.
    for (CacheConfig config : {CacheConfig{64 * 1024, 0, kLineBytes, false},
                               CacheConfig{56 * 1024, 0, kLineBytes, true},
                               CacheConfig{384 * 1024, 16, kLineBytes, true},
                               CacheConfig{64 * 1024, 8, kLineBytes, true}}) {
        std::vector<StreamAccess> stream;
        for (uint32_t shift = 0; shift <= 12; ++shift)
            for (uint32_t pass = 0; pass < 2; ++pass)
                for (uint32_t i = 0; i < 1024; ++i)
                    stream.push_back(
                        {0x100000000ull + (Addr{i} * kLine << shift),
                         (i + pass) % 3 == 0});
        crossCheckStream(config, stream);
    }
}

TEST(LineMath, AlignAndCover)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(127), 0u);
    EXPECT_EQ(lineAlign(128), 128u);
    EXPECT_EQ(linesCovering(0, 0), 0u);
    EXPECT_EQ(linesCovering(0, 1), 1u);
    EXPECT_EQ(linesCovering(0, 128), 1u);
    EXPECT_EQ(linesCovering(0, 129), 2u);
    EXPECT_EQ(linesCovering(120, 16), 2u);
    EXPECT_EQ(linesCovering(100, 300), 4u);
}

TEST(Cache, HitAfterFill)
{
    Cache cache({1024, 0, kLineBytes});
    EXPECT_FALSE(cache.access(0, false, TrafficClass::Node).hit);
    EXPECT_TRUE(cache.access(0, false, TrafficClass::Node).hit);
    EXPECT_EQ(cache.stats().loads, 2u);
    EXPECT_EQ(cache.stats().load_misses, 1u);
}

TEST(Cache, FullyAssociativeGeometry)
{
    Cache cache({8 * kLine, 0, kLineBytes});
    EXPECT_EQ(cache.numSets(), 1u);
    EXPECT_EQ(cache.numWays(), 8u);
}

TEST(Cache, SetAssociativeGeometry)
{
    Cache cache({64 * kLine, 4, kLineBytes});
    EXPECT_EQ(cache.numWays(), 4u);
    EXPECT_EQ(cache.numSets(), 16u);
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    // The Table I L2: 3MB/16-way/128B lines = 1536 sets.
    Cache cache({3 * 1024 * 1024, 16, kLineBytes});
    EXPECT_EQ(cache.numSets(), 1536u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache cache({2 * kLine, 0, kLineBytes});
    cache.access(0 * kLine, false, TrafficClass::Node);
    cache.access(1 * kLine, false, TrafficClass::Node);
    cache.access(0 * kLine, false, TrafficClass::Node); // refresh line 0
    cache.access(2 * kLine, false, TrafficClass::Node); // evicts line 1
    EXPECT_TRUE(cache.probe(0 * kLine));
    EXPECT_FALSE(cache.probe(1 * kLine));
    EXPECT_TRUE(cache.probe(2 * kLine));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache cache({kLine, 0, kLineBytes});
    cache.access(0, true, TrafficClass::Stack); // dirty fill
    Cache::Result r = cache.access(kLine, false, TrafficClass::Node);
    EXPECT_TRUE(r.evicted_dirty);
    EXPECT_EQ(r.evicted_line, 0u);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionSilent)
{
    Cache cache({kLine, 0, kLineBytes});
    cache.access(0, false, TrafficClass::Node);
    Cache::Result r = cache.access(kLine, false, TrafficClass::Node);
    EXPECT_FALSE(r.evicted_dirty);
}

TEST(Cache, NoWriteAllocateWritesAround)
{
    CacheConfig config{4 * kLine, 0, kLineBytes, false};
    Cache cache(config);
    Cache::Result r = cache.access(0, true, TrafficClass::Stack);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(cache.probe(0)); // store miss did not allocate
    // A load allocates; a subsequent store hits and dirties it.
    cache.access(0, false, TrafficClass::Stack);
    EXPECT_TRUE(cache.access(0, true, TrafficClass::Stack).hit);
    Cache::Result evict = cache.access(kLine, false, TrafficClass::Node);
    (void)evict;
    EXPECT_EQ(cache.stats().store_misses, 1u);
}

TEST(Cache, SetsAreIndependent)
{
    // Two lines mapping to different sets never evict each other.
    Cache cache({4 * kLine, 2, kLineBytes}); // 2 sets x 2 ways
    cache.access(0 * kLine, false, TrafficClass::Node); // set 0
    cache.access(2 * kLine, false, TrafficClass::Node); // set 0
    cache.access(1 * kLine, false, TrafficClass::Node); // set 1
    cache.access(4 * kLine, false, TrafficClass::Node); // set 0, evicts
    EXPECT_TRUE(cache.probe(1 * kLine));
    EXPECT_FALSE(cache.probe(0 * kLine));
}

TEST(Cache, ClassMissAccounting)
{
    Cache cache({8 * kLine, 0, kLineBytes});
    cache.access(0, false, TrafficClass::Node);
    cache.access(kLine, false, TrafficClass::Stack);
    cache.access(2 * kLine, false, TrafficClass::Stack);
    EXPECT_EQ(cache.missesByClass(TrafficClass::Node), 1u);
    EXPECT_EQ(cache.missesByClass(TrafficClass::Stack), 2u);
    EXPECT_EQ(cache.missesByClass(TrafficClass::Primitive), 0u);
}

TEST(Cache, ResetDropsLinesKeepsStats)
{
    Cache cache({8 * kLine, 0, kLineBytes});
    cache.access(0, false, TrafficClass::Node);
    cache.reset();
    EXPECT_FALSE(cache.probe(0));
    EXPECT_EQ(cache.stats().loads, 1u);
}

TEST(Cache, MissRateComputation)
{
    Cache cache({8 * kLine, 0, kLineBytes});
    cache.access(0, false, TrafficClass::Node);
    cache.access(0, false, TrafficClass::Node);
    EXPECT_DOUBLE_EQ(cache.stats().missRate(), 0.5);
}

// ---------------------------------------------------------------------
// DRAM
// ---------------------------------------------------------------------

TEST(Dram, LatencyWithoutContention)
{
    Dram dram({200, 4});
    EXPECT_EQ(dram.access(1000, false, TrafficClass::Node), 1200u);
}

TEST(Dram, BandwidthSerializesBackToBack)
{
    Dram dram({200, 4});
    Cycle a = dram.access(0, false, TrafficClass::Node);
    Cycle b = dram.access(0, false, TrafficClass::Node);
    Cycle c = dram.access(0, false, TrafficClass::Node);
    EXPECT_EQ(a, 200u);
    EXPECT_EQ(b, 204u);
    EXPECT_EQ(c, 208u);
    EXPECT_EQ(dram.stats().queue_wait_cycles, 4u + 8u);
}

TEST(Dram, IdleGapsResetQueue)
{
    Dram dram({200, 4});
    dram.access(0, false, TrafficClass::Node);
    Cycle later = dram.access(1000, false, TrafficClass::Node);
    EXPECT_EQ(later, 1200u);
}

TEST(Dram, CountsByClassAndDirection)
{
    Dram dram({200, 4});
    dram.access(0, false, TrafficClass::Node);
    dram.access(0, true, TrafficClass::Stack);
    dram.access(0, true, TrafficClass::Stack);
    EXPECT_EQ(dram.stats().loads, 1u);
    EXPECT_EQ(dram.stats().stores, 2u);
    EXPECT_EQ(dram.stats().accesses(), 3u);
    EXPECT_EQ(dram.stats().by_class[(int)TrafficClass::Stack], 2u);
}

} // namespace
} // namespace sms

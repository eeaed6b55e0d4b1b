/**
 * @file
 * Set-associative write-back cache tag model with true-LRU replacement.
 *
 * Covers both caches of Table I: the L1D (fully associative — modeled
 * as a single set whose way count equals the line count) and the L2
 * (16-way). Only tags are modeled; data never matters for timing.
 *
 * True LRU is kept without timestamps, in the layout that suits each
 * geometry:
 *  - A set-associative set is one short array of its lines in recency
 *    order (MRU first). A lookup scans it front to back, and a hit or
 *    fill moves the line to the front, so the set's whole state is a
 *    couple of host cache lines.
 *  - The fully-associative L1D has 512 ways at Table I's 64 KB / 128 B,
 *    too many to scan or shift per access. Its recency order is an
 *    intrusive doubly-linked list over the ways (head = MRU, tail =
 *    LRU), and a hashed tag->way index replaces the scan.
 * Replacement decisions are bit-identical to the timestamp formulation:
 * a set fills its free ways before evicting, and the victim is always
 * the least-recently-touched valid line.
 */

#ifndef SMS_MEMORY_CACHE_HPP
#define SMS_MEMORY_CACHE_HPP

#include <cstdint>
#include <vector>

#include "src/memory/request.hpp"

namespace sms {

/** Geometry and policy parameters of one cache. */
struct CacheConfig
{
    uint64_t size_bytes = 64 * 1024;
    /** 0 selects fully associative (ways = lines). */
    uint32_t ways = 0;
    uint32_t line_bytes = kLineBytes;
    /**
     * Allocate a line on a store miss. GPU L1Ds are write-through /
     * no-write-allocate (stores that miss write around the cache);
     * the L2 is write-back / write-allocate.
     */
    bool allocate_on_store = true;
};

/**
 * Tag-only cache with per-set true-LRU ordering.
 *
 * access() combines lookup and fill: on a miss the line is allocated
 * immediately (the caller adds next-level latency to the request's
 * completion time) and the evicted line, if dirty, is reported so the
 * caller can issue a writeback.
 */
class Cache
{
  public:
    /** Outcome of one line access. */
    struct Result
    {
        bool hit = false;
        bool evicted_dirty = false;
        Addr evicted_line = 0;
    };

    explicit Cache(const CacheConfig &config);

    /**
     * Access one line.
     *
     * @param line_addr line-aligned address
     * @param write     true for stores (marks the line dirty)
     * @param cls       traffic class for statistics
     */
    Result access(Addr line_addr, bool write, TrafficClass cls);

    /** True when the line is currently resident (no state change). */
    bool probe(Addr line_addr) const;

    /** Drop all lines (statistics are kept). */
    void reset();

    const LevelStats &stats() const { return stats_; }

    /** Per-traffic-class miss counts. */
    uint64_t
    missesByClass(TrafficClass cls) const
    {
        return class_misses_[static_cast<int>(cls)];
    }

    uint32_t numSets() const { return num_sets_; }
    uint32_t numWays() const { return num_ways_; }

  private:
    /** Sentinel way index terminating the recency list. */
    static constexpr uint32_t kNoWay = 0xffffffffu;
    /** Free-slot sentinel: never a line-aligned address. */
    static constexpr Addr kEmptyTag = ~Addr{0};
    /** Dirty flag of a set-associative entry: line tags are aligned,
     *  so their low bit is free. */
    static constexpr Addr kDirtyBit = 1;

    uint32_t setIndex(Addr line_addr) const;

    /**
     * Look up (and on a miss with @p allocate, fill) @p line_addr in
     * set @p set. @return true on a hit; a dirty eviction is reported
     * in @p result.
     */
    bool accessSet(uint32_t set, Addr line_addr, bool write, bool allocate,
                   Result &result);
    /** accessSet() of the fully-associative geometry. */
    bool accessFull(Addr line_addr, bool write, bool allocate,
                    Result &result);

    /** Position of @p line_addr in set @p set's recency order, or the
     *  set's fill count when absent (set-associative path). */
    uint32_t scanSet(uint32_t set, Addr line_addr) const;

    /** Unlink way @p way from the recency list. */
    void unlink(uint32_t way);

    /** Make way @p way the MRU. */
    void touchFront(uint32_t way);

    bool
    isDirty(uint32_t way) const
    {
        return (dirty_[way >> 6] >> (way & 63)) & 1;
    }
    void
    setDirty(uint32_t way, bool dirty)
    {
        uint64_t bit = uint64_t{1} << (way & 63);
        if (dirty)
            dirty_[way >> 6] |= bit;
        else
            dirty_[way >> 6] &= ~bit;
    }

    // Open-addressed tag->way table (fully-associative path). The
    // simulator performs one lookup per modeled memory access, so the
    // table is a flat linear-probe array rather than unordered_map:
    // no per-node allocation, one multiply to hash, at most a short
    // probe run. A slot is 8 B, ((line index + 1) << way_bits_) | way,
    // and 0 when free. Capacity is fixed at construction (>= 4x ways,
    // power of two), so the load factor never exceeds 1/4 and probes
    // stay short.
    /** Home slot of line index @p line_index. */
    uint32_t tagHome(uint64_t line_index) const;
    /** Slot holding @p line_index, or the free slot ending its probe. */
    uint32_t tagSlotOf(uint64_t line_index, uint32_t home) const;
    void tagErase(uint32_t slot);

    CacheConfig config_;
    uint32_t num_sets_ = 1;
    uint32_t num_ways_ = 1;
    /** log2(line_bytes): line index = addr >> line_shift_. */
    uint32_t line_shift_ = 0;
    /** num_sets_ - 1 when num_sets_ is a power of two, else 0 (only
     *  non-power-of-two geometries like the 192-set L2 pay a
     *  modulo). */
    uint32_t set_mask_ = 0;
    bool sets_pow2_ = true;

    // Set-associative geometry (num_sets_ > 1).
    /** Per set, num_ways_ entries: the resident lines MRU first, each
     *  tag | kDirtyBit when dirty; entries past the fill count are
     *  unused. */
    std::vector<Addr> set_lines_;
    /** Per set, the number of resident lines. */
    std::vector<uint32_t> set_filled_;

    // Fully-associative geometry (num_sets_ == 1). Per-way state is
    // struct-of-arrays: a recency update touches three 8-byte link
    // pairs and dirtiness is one bit. Ways fill in ascending order and
    // are never invalidated outside reset(), so way w is live iff
    // w < filled_.
    /** Line tag of each way. */
    std::vector<Addr> tags_;
    /** Recency links, (more_recent << 32) | less_recent per way. */
    std::vector<uint64_t> links_;
    /** Dirty bits, one per way. */
    std::vector<uint64_t> dirty_;
    uint32_t mru_ = kNoWay;  ///< head of the recency list
    uint32_t lru_ = kNoWay;  ///< tail of the recency list
    uint32_t filled_ = 0;    ///< ways filled so far (fill order)
    /** Linear-probe tag table. */
    std::vector<uint64_t> tag_slots_;
    uint32_t way_bits_ = 0;  ///< low slot bits holding the way
    /** Line indices below this fit a slot. */
    uint64_t max_line_index_ = 0;
    uint32_t tag_mask_ = 0;  ///< tag_slots_.size() - 1
    uint32_t tag_shift_ = 0; ///< 64 - log2(tag_slots_.size())

    LevelStats stats_;
    uint64_t class_misses_[kTrafficClassCount] = {};
};

} // namespace sms

#endif // SMS_MEMORY_CACHE_HPP

/**
 * @file
 * Cache tag-model implementation.
 *
 * Replacement state is a recency-ordered line array per set
 * (set-associative) or an intrusive doubly-linked recency list plus a
 * fill counter (fully associative); see the header for the equivalence
 * argument against the timestamp formulation of true LRU.
 *
 * Lookup is the simulator's single hottest function (one call per
 * modeled line access), so the fully-associative path uses a flat
 * linear-probe hash table with backward-shift deletion instead of
 * std::unordered_map, and set indexing is shift/mask whenever the
 * geometry allows. Neither changes any replacement decision: the hash
 * table is a pure tag->way accelerator and the recency list remains
 * the only replacement state.
 */

#include "src/memory/cache.hpp"

#include <algorithm>

#include "src/util/check.hpp"

namespace sms {

namespace {

/** Both recency links of a line set to kNoWay (0xffffffff each). */
constexpr uint64_t kNoLinks = ~uint64_t{0};

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

uint32_t
log2OfPowerOfTwo(uint64_t v)
{
    uint32_t shift = 0;
    while ((uint64_t{1} << shift) < v)
        ++shift;
    return shift;
}

uint32_t
nextPowerOfTwo(uint32_t v)
{
    uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

Cache::Cache(const CacheConfig &config) : config_(config)
{
    SMS_ASSERT(config.line_bytes > 1 && isPowerOfTwo(config.line_bytes),
               "line size must be a power of two above one byte");
    uint64_t total_lines = config.size_bytes / config.line_bytes;
    SMS_ASSERT(total_lines > 0, "cache smaller than one line");

    if (config.ways == 0 || config.ways >= total_lines) {
        // Fully associative: one set holding every line.
        num_sets_ = 1;
        num_ways_ = static_cast<uint32_t>(total_lines);
    } else {
        SMS_ASSERT(total_lines % config.ways == 0,
                   "lines (%llu) not divisible by ways (%u)",
                   static_cast<unsigned long long>(total_lines),
                   config.ways);
        num_ways_ = config.ways;
        // Modulo indexing supports non-power-of-two set counts (the
        // 3 MB / 16-way L2 of Table I has 1536 sets).
        num_sets_ = static_cast<uint32_t>(total_lines / config.ways);
    }
    line_shift_ = log2OfPowerOfTwo(config.line_bytes);
    sets_pow2_ = isPowerOfTwo(num_sets_);
    set_mask_ = sets_pow2_ ? num_sets_ - 1 : 0;

    if (num_sets_ > 1) {
        set_lines_.assign(static_cast<size_t>(num_sets_) * num_ways_, 0);
        set_filled_.assign(num_sets_, 0);
        return;
    }
    tags_.assign(num_ways_, kEmptyTag);
    links_.assign(num_ways_, kNoLinks);
    dirty_.assign((num_ways_ + 63) / 64, 0);
    // 4x ways keeps the load factor under 1/4: probe runs on the hit
    // path stay near one slot and the backward-shift walks on eviction
    // stay short, for 8 B per slot of extra table.
    uint32_t capacity = nextPowerOfTwo(num_ways_ * 4);
    tag_slots_.assign(capacity, 0);
    while ((uint64_t{1} << way_bits_) < num_ways_)
        ++way_bits_;
    max_line_index_ = ~uint64_t{0} >> way_bits_;
    tag_mask_ = capacity - 1;
    tag_shift_ = 64 - log2OfPowerOfTwo(capacity);
}

uint32_t
Cache::setIndex(Addr line_addr) const
{
    uint64_t line_index = line_addr >> line_shift_;
    if (sets_pow2_)
        return static_cast<uint32_t>(line_index) & set_mask_;
    return static_cast<uint32_t>(line_index % num_sets_);
}

uint32_t
Cache::tagHome(uint64_t line_index) const
{
    // Fibonacci hashing of the line index: the top bits of the product
    // mix every input bit, so power-of-two-strided streams (spill
    // frames, line-aligned buffers) spread over the power-of-two table.
    return static_cast<uint32_t>((line_index * 0x9e3779b97f4a7c15ull) >>
                                 tag_shift_);
}

uint32_t
Cache::tagSlotOf(uint64_t line_index, uint32_t home) const
{
    uint64_t tag = (line_index + 1) << way_bits_;
    uint64_t way_mask = (uint64_t{1} << way_bits_) - 1;
    uint32_t slot = home;
    while (tag_slots_[slot] != 0 && (tag_slots_[slot] & ~way_mask) != tag)
        slot = (slot + 1) & tag_mask_;
    return slot;
}

void
Cache::tagErase(uint32_t slot)
{
    // Backward-shift deletion: walk the probe run after the freed slot
    // and pull back any entry whose home position precedes the hole, so
    // later lookups never hit a spurious empty slot mid-run.
    uint32_t hole = slot;
    tag_slots_[hole] = 0;
    uint32_t cur = (slot + 1) & tag_mask_;
    while (tag_slots_[cur] != 0) {
        uint64_t entry = tag_slots_[cur];
        uint32_t home = tagHome((entry >> way_bits_) - 1);
        // Move cur into the hole iff the hole lies within cur's probe
        // path, i.e. the cyclic distance home->cur covers home->hole.
        if (((cur - home) & tag_mask_) >= ((cur - hole) & tag_mask_)) {
            tag_slots_[hole] = entry;
            tag_slots_[cur] = 0;
            hole = cur;
        }
        cur = (cur + 1) & tag_mask_;
    }
}

uint32_t
Cache::scanSet(uint32_t set, Addr line_addr) const
{
    const Addr *lines = &set_lines_[static_cast<size_t>(set) * num_ways_];
    uint32_t filled = set_filled_[set];
    uint32_t pos = 0;
    while (pos < filled && (lines[pos] & ~kDirtyBit) != line_addr)
        ++pos;
    return pos;
}

bool
Cache::accessSet(uint32_t set, Addr line_addr, bool write, bool allocate,
                 Result &result)
{
    Addr *lines = &set_lines_[static_cast<size_t>(set) * num_ways_];
    uint32_t filled = set_filled_[set];
    uint32_t pos = scanSet(set, line_addr);
    if (pos < filled) {
        // Hit: rotate the line to the front, keeping its dirty flag.
        Addr entry = lines[pos] | (write ? kDirtyBit : 0);
        std::copy_backward(lines, lines + pos, lines + pos + 1);
        lines[0] = entry;
        return true;
    }
    if (!allocate)
        return false;
    if (filled < num_ways_) {
        set_filled_[set] = ++filled;
    } else if (lines[filled - 1] & kDirtyBit) {
        // The LRU line at the back falls off.
        result.evicted_dirty = true;
        result.evicted_line = lines[filled - 1] & ~kDirtyBit;
    }
    std::copy_backward(lines, lines + filled - 1, lines + filled);
    lines[0] = line_addr | (write ? kDirtyBit : 0);
    return false;
}

// Recency links are packed (more_recent << 32) | less_recent.

void
Cache::unlink(uint32_t way)
{
    uint64_t links = links_[way];
    uint32_t more = static_cast<uint32_t>(links >> 32);
    uint32_t less = static_cast<uint32_t>(links);
    if (more != kNoWay)
        links_[more] = (links_[more] & 0xffffffff00000000ull) | less;
    else
        mru_ = less;
    if (less != kNoWay)
        links_[less] = (links_[less] & 0xffffffffull) |
                       (static_cast<uint64_t>(more) << 32);
    else
        lru_ = more;
    links_[way] = kNoLinks;
}

void
Cache::touchFront(uint32_t way)
{
    if (mru_ == way)
        return;
    // A way that is linked but not the head always has a more-recent
    // neighbour; a freshly-filled way (both links kNoWay) must not be
    // unlinked or it would clobber the list head.
    if (static_cast<uint32_t>(links_[way] >> 32) != kNoWay)
        unlink(way);
    links_[way] = (static_cast<uint64_t>(kNoWay) << 32) | mru_;
    if (mru_ != kNoWay)
        links_[mru_] = (links_[mru_] & 0xffffffffull) |
                       (static_cast<uint64_t>(way) << 32);
    mru_ = way;
    if (lru_ == kNoWay)
        lru_ = way;
}

bool
Cache::accessFull(Addr line_addr, bool write, bool allocate,
                  Result &result)
{
    // A miss's probe stops at the free slot the new tag will take.
    uint64_t line_index = line_addr >> line_shift_;
    SMS_ASSERT(line_index < max_line_index_,
               "line 0x%llx beyond the tag index",
               static_cast<unsigned long long>(line_addr));
    uint32_t slot = tagSlotOf(line_index, tagHome(line_index));
    if (tag_slots_[slot] != 0) {
        uint32_t way = static_cast<uint32_t>(tag_slots_[slot]) &
                       ((1u << way_bits_) - 1);
        touchFront(way);
        if (write)
            setDirty(way, true);
        return true;
    }
    if (!allocate)
        return false;

    uint32_t way;
    if (filled_ < num_ways_) {
        // Free ways are consumed in ascending order (matching the
        // "first invalid way" rule of the timestamp scan).
        way = filled_++;
    } else {
        way = lru_;
        SMS_ASSERT(way != kNoWay, "full cache with empty LRU list");
        if (isDirty(way)) {
            result.evicted_dirty = true;
            result.evicted_line = tags_[way];
        }
    }
    // Insert before erasing the victim: the backward shift then treats
    // the new entry like any other, so it can take the free slot the
    // lookup stopped at without a second probe.
    tag_slots_[slot] = ((line_index + 1) << way_bits_) | way;
    if (tags_[way] != kEmptyTag) {
        uint64_t victim_index = tags_[way] >> line_shift_;
        tagErase(tagSlotOf(victim_index, tagHome(victim_index)));
    }
    tags_[way] = line_addr;
    setDirty(way, write);
    touchFront(way);
    return false;
}

Cache::Result
Cache::access(Addr line_addr, bool write, TrafficClass cls)
{
    SMS_ASSERT((line_addr & (config_.line_bytes - 1)) == 0,
               "unaligned cache access 0x%llx",
               static_cast<unsigned long long>(line_addr));
    Result result;
    if (write)
        ++stats_.stores;
    else
        ++stats_.loads;

    // No-write-allocate caches write around on store misses.
    bool allocate = !write || config_.allocate_on_store;
    result.hit = num_sets_ == 1
                     ? accessFull(line_addr, write, allocate, result)
                     : accessSet(setIndex(line_addr), line_addr, write,
                                 allocate, result);
    if (!result.hit) {
        if (write)
            ++stats_.store_misses;
        else
            ++stats_.load_misses;
        ++class_misses_[static_cast<int>(cls)];
    }
    if (result.evicted_dirty)
        ++stats_.writebacks;
    return result;
}

bool
Cache::probe(Addr line_addr) const
{
    if (num_sets_ == 1)
    {
        uint64_t line_index = line_addr >> line_shift_;
        return line_index < max_line_index_ &&
               tag_slots_[tagSlotOf(line_index, tagHome(line_index))] != 0;
    }
    uint32_t set = setIndex(line_addr);
    return scanSet(set, line_addr) < set_filled_[set];
}

void
Cache::reset()
{
    std::fill(set_filled_.begin(), set_filled_.end(), 0);
    std::fill(tags_.begin(), tags_.end(), kEmptyTag);
    std::fill(links_.begin(), links_.end(), kNoLinks);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    std::fill(tag_slots_.begin(), tag_slots_.end(), 0);
    mru_ = kNoWay;
    lru_ = kNoWay;
    filled_ = 0;
}

} // namespace sms

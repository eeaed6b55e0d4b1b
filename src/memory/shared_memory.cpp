/**
 * @file
 * Shared-memory bank-conflict model implementation.
 */

#include "src/memory/shared_memory.hpp"

#include <algorithm>
#include <iterator>

#include "src/stats/timeline.hpp"
#include "src/util/check.hpp"

namespace sms {

uint32_t
SharedMemory::conflictPasses(const std::vector<SharedLaneRequest> &lanes)
{
    if (lanes.empty())
        return 0;

    // Count distinct words per bank. An 8 B stack entry spans two
    // adjacent 4 B words (two banks). Lanes accessing the *same* word
    // broadcast and cost nothing extra; different words in the same
    // bank serialize.
    //
    // One warp touches at most a few hundred words, so the distinct
    // words of each bank are chained through fixed on-stack arrays: a
    // word is looked up in its bank's chain (a handful of entries on
    // real stack traffic) and appended when new.
    constexpr uint16_t kNil = 0xffff;
    static_assert(kMaxSharedAccessWords < kNil);
    uint16_t head[kSharedBanks];
    uint16_t distinct[kSharedBanks] = {};
    uint16_t next[kMaxSharedAccessWords];
    Addr rows[kMaxSharedAccessWords];
    std::fill(std::begin(head), std::end(head), kNil);
    uint16_t count = 0;
    uint32_t passes = 1;
    for (const SharedLaneRequest &req : lanes) {
        SMS_ASSERT(req.bytes % kBankWordBytes == 0,
                   "shared request must be word-aligned in size");
        SMS_ASSERT(req.bytes / kBankWordBytes <=
                       kMaxSharedAccessWords - count,
                   "shared access touches more than %u distinct words",
                   kMaxSharedAccessWords);
        for (uint32_t off = 0; off < req.bytes; off += kBankWordBytes) {
            Addr word = (req.addr + off) / kBankWordBytes;
            uint32_t bank = static_cast<uint32_t>(word % kSharedBanks);
            Addr row = word / kSharedBanks;
            uint16_t i = head[bank];
            while (i != kNil && rows[i] != row)
                i = next[i];
            if (i != kNil)
                continue; // broadcast: this word is already counted
            rows[count] = row;
            next[count] = head[bank];
            head[bank] = count++;
            passes = std::max<uint32_t>(passes, ++distinct[bank]);
        }
    }
    return passes;
}

Cycle
SharedMemory::access(Cycle now, const std::vector<SharedLaneRequest> &lanes,
                     SharedAccessInfo *info)
{
    if (info)
        *info = SharedAccessInfo{};
    if (lanes.empty())
        return now;

    uint32_t passes = conflictPasses(lanes);
    ++stats_.accesses;
    stats_.lane_requests += lanes.size();
    stats_.conflict_cycles += passes - 1;
    stats_.conflict_passes += passes;
    if (passes > 1)
        ++stats_.conflicted_accesses;
    if (passes > stats_.max_passes)
        stats_.max_passes = passes;

    Cycle start = now > next_free_ ? now : next_free_;
    if (info) {
        info->pipeline_wait = start - now;
        info->passes = passes;
    }
    // The access occupies the shared-memory pipeline for one cycle per
    // pass; data returns after the base latency on top of the last pass.
    next_free_ = start + passes;
    if (passes > 1 && timelineOn(TimelineCategory::Shmem))
        timelineSpan(TimelineCategory::Shmem, "bank_conflict", start,
                     passes - 1, passes, "passes");
    return start + passes - 1 + base_latency_;
}

} // namespace sms

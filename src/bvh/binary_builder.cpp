/**
 * @file
 * Binned-SAH binary BVH builder.
 *
 * Standard top-down construction: at each node, primitives are binned by
 * centroid along each axis, the cheapest SAH split is chosen, and the
 * node becomes a leaf when small enough or when no split beats the leaf
 * cost.
 *
 * Large right children are built as tasks on helper threads while the
 * calling thread builds the left child. Every subtree is laid out in
 * preorder into storage sized before the build starts, so helper
 * threads never allocate, and the tree's bytes do not depend on which
 * subtrees ran as tasks.
 */

#include "src/bvh/binary_bvh.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace sms {

namespace {

/** Per-primitive build record. */
struct PrimRef
{
    Aabb bounds;
    Vec3 centroid;
    uint32_t id;
};

/** One SAH bin: bounds and primitive count. */
struct Bin
{
    Aabb bounds;
    uint32_t count = 0;
};

/** SAH working arrays, one set on the stack of each building thread. */
struct BinScratch
{
    Bin bins[3][kMaxSahBins];
    float right_area[kMaxSahBins];
    uint32_t right_count[kMaxSahBins];
};

/** Cheapest split found: primitives in bins <= bin on axis go left. */
struct Split
{
    int axis = -1; ///< -1: every axis is degenerate
    int bin = -1;
    float cost = std::numeric_limits<float>::max();
    float lo = 0.0f;    ///< centroid minimum on axis
    float scale = 0.0f; ///< bins per unit of centroid extent on axis
};

/** Smallest right child that is built as a task on a helper thread. */
constexpr uint32_t kTaskCutoff = 16384;

/** Recursive builder over a mutable PrimRef array. */
class BinaryBuilder
{
  public:
    BinaryBuilder(BinaryNode *nodes, PrimRef *refs,
                  const BvhBuildParams &params, unsigned threads)
        : nodes_(nodes), refs_(refs), params_(params), threads_(threads),
          free_helpers_(threads - 1)
    {}

    /**
     * Build the subtree over refs [begin, end) in preorder into
     * nodes_[base, base + 2 * (end - begin) - 1), the most nodes the
     * range can make. Child indices are absolute. @return node count.
     */
    uint32_t
    build(uint32_t begin, uint32_t end, uint32_t base, BinScratch &scratch)
    {
        SMS_ASSERT(end > begin, "empty build range");
        Aabb bounds;
        Aabb centroid_bounds;
        for (uint32_t i = begin; i < end; ++i) {
            bounds.extend(refs_[i].bounds);
            centroid_bounds.extend(refs_[i].centroid);
        }
        BinaryNode &node = nodes_[base];
        node = BinaryNode{};
        node.bounds = bounds;

        uint32_t count = end - begin;
        if (count <= static_cast<uint32_t>(params_.max_leaf_prims))
            return makeLeaf(node, begin, end);

        Split split = findSplit(begin, end, centroid_bounds, scratch);
        uint32_t mid;
        if (split.axis < 0) {
            // All centroids coincide: split in half by index.
            mid = begin + count / 2;
        } else {
            // Compare SAH split cost against the leaf cost.
            float leaf_cost = params_.prim_cost * count;
            float split_cost =
                2.0f * params_.node_cost +
                params_.prim_cost * split.cost /
                    std::max(bounds.surfaceArea(), 1.0e-12f);
            if (split_cost >= leaf_cost && count <= 8) {
                // SAH may terminate early only for small ranges; GPU
                // driver BVHs keep leaves tiny, and large leaves would
                // flatten the tree depth the paper's stacks exercise.
                return makeLeaf(node, begin, end);
            }

            auto *split_point = std::partition(
                refs_ + begin, refs_ + end, [&](const PrimRef &r) {
                    return binOf(r.centroid[split.axis], split.lo,
                                 split.scale) <= split.bin;
                });
            mid = static_cast<uint32_t>(split_point - refs_);
            if (mid == begin || mid == end)
                mid = begin + count / 2; // binning failed; fall back
        }

        const uint32_t left = base + 1;
        uint32_t left_count = 0;
        uint32_t right_count = 0;
        if (end - mid >= kTaskCutoff && claimHelper()) {
            // The left subtree fills at most 2 * (mid - begin) - 1
            // slots after this node, so the task builds the right one
            // just past that room and it moves down once both finish.
            const uint32_t task_base = base + 2 * (mid - begin);
            std::thread task([&, task_base] {
                BinScratch task_scratch;
                right_count = build(mid, end, task_base, task_scratch);
                releaseHelperThread();
                free_helpers_.fetch_add(1, std::memory_order_relaxed);
            });
            left_count = build(begin, mid, left, scratch);
            task.join();
            moveSubtree(task_base, right_count, left + left_count);
        } else {
            left_count = build(begin, mid, left, scratch);
            right_count = build(mid, end, left + left_count, scratch);
        }
        node.left = left;
        node.right = left + left_count;
        return 1 + left_count + right_count;
    }

  private:
    int
    binOf(float centroid, float lo, float scale) const
    {
        int b = static_cast<int>((centroid - lo) * scale);
        return std::clamp(b, 0, params_.sah_bins - 1);
    }

    /** Bin refs [begin, end) on all three axes in one pass, then sweep. */
    Split
    findSplit(uint32_t begin, uint32_t end, const Aabb &centroid_bounds,
              BinScratch &scratch) const
    {
        const int nbins = params_.sah_bins;
        float lo[3] = {};
        float scale[3] = {};
        bool active[3] = {};
        for (int axis = 0; axis < 3; ++axis) {
            lo[axis] = centroid_bounds.lo[axis];
            float hi = centroid_bounds.hi[axis];
            // A degenerate axis (all centroids coincide) is skipped.
            active[axis] = !(hi - lo[axis] < 1.0e-8f);
            if (!active[axis])
                continue;
            scale[axis] = nbins / (hi - lo[axis]);
            std::fill_n(scratch.bins[axis], nbins, Bin{});
        }
        for (uint32_t i = begin; i < end; ++i) {
            const PrimRef &ref = refs_[i];
            for (int axis = 0; axis < 3; ++axis) {
                if (!active[axis])
                    continue;
                Bin &bin = scratch.bins[axis][binOf(ref.centroid[axis],
                                                    lo[axis], scale[axis])];
                bin.bounds.extend(ref.bounds);
                bin.count += 1;
            }
        }

        Split best;
        float *right_area = scratch.right_area;
        uint32_t *right_count = scratch.right_count;
        for (int axis = 0; axis < 3; ++axis) {
            if (!active[axis])
                continue;
            const Bin *bins = scratch.bins[axis];
            // Sweep: suffix areas first, then prefix while scoring.
            Aabb acc;
            uint32_t cnt = 0;
            for (int b = nbins - 1; b > 0; --b) {
                acc.extend(bins[b].bounds);
                cnt += bins[b].count;
                right_area[b] = acc.surfaceArea();
                right_count[b] = cnt;
            }
            acc = Aabb();
            cnt = 0;
            for (int b = 0; b < nbins - 1; ++b) {
                acc.extend(bins[b].bounds);
                cnt += bins[b].count;
                if (cnt == 0 || right_count[b + 1] == 0)
                    continue;
                float cost = acc.surfaceArea() * cnt +
                             right_area[b + 1] * right_count[b + 1];
                if (cost < best.cost) {
                    best.cost = cost;
                    best.axis = axis;
                    best.bin = b;
                    best.lo = lo[axis];
                    best.scale = scale[axis];
                }
            }
        }
        return best;
    }

    /** Leaves take primitives in array order, so the offset is begin. */
    static uint32_t
    makeLeaf(BinaryNode &node, uint32_t begin, uint32_t end)
    {
        node.prim_offset = begin;
        node.prim_count = static_cast<uint16_t>(end - begin);
        return 1;
    }

    /**
     * Take one of this build's threads - 1 helpers, if the process also
     * has a thread slot free (workers of an enclosing parallelFor hold
     * theirs, so a build among busy workers stays on its own thread).
     */
    bool
    claimHelper()
    {
        unsigned n = free_helpers_.load(std::memory_order_relaxed);
        while (n > 0 && !free_helpers_.compare_exchange_weak(
                            n, n - 1, std::memory_order_relaxed))
        {
        }
        if (n == 0)
            return false;
        if (tryClaimHelperThread(threads_))
            return true;
        free_helpers_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    /** Move @p count preorder nodes from @p from down to @p to. */
    void
    moveSubtree(uint32_t from, uint32_t count, uint32_t to)
    {
        const uint32_t shift = from - to;
        for (uint32_t i = 0; i < count; ++i) {
            BinaryNode node = nodes_[from + i];
            if (!node.isLeaf()) {
                node.left -= shift;
                node.right -= shift;
            }
            nodes_[to + i] = node;
        }
    }

    BinaryNode *nodes_;
    PrimRef *refs_;
    const BvhBuildParams &params_;
    const unsigned threads_;
    std::atomic<unsigned> free_helpers_;
};

} // namespace

BinaryBvh
BinaryBvh::build(const Scene &scene, const BvhBuildParams &params,
                 unsigned threads)
{
    if (params.sah_bins < 2 || params.sah_bins > kMaxSahBins)
        fatal("BvhBuildParams::sah_bins = %d is outside 2..%d",
              params.sah_bins, kMaxSahBins);
    if (params.max_leaf_prims < 1 || params.max_leaf_prims > kMaxLeafPrims)
        fatal("BvhBuildParams::max_leaf_prims = %d is outside 1..%d",
              params.max_leaf_prims, kMaxLeafPrims);

    BinaryBvh bvh;
    uint32_t n = scene.primitiveCount();
    if (n == 0)
        return bvh;

    std::vector<PrimRef> refs(n);
    for (uint32_t i = 0; i < n; ++i) {
        refs[i].bounds = scene.primitiveBounds(i);
        refs[i].centroid = scene.primitiveCentroid(i);
        refs[i].id = i;
    }

    if (threads == 0)
        threads = defaultThreadCount();
    bvh.nodes_.reset(static_cast<BinaryNode *>(
        ::operator new(sizeof(BinaryNode) * (2 * size_t{n} - 1))));
    BinaryBuilder builder(bvh.nodes_.get(), refs.data(), params, threads);
    BinScratch scratch;
    bvh.node_count_ = builder.build(0, n, 0, scratch);

    bvh.prim_indices_.resize(n);
    for (uint32_t i = 0; i < n; ++i)
        bvh.prim_indices_[i] = refs[i].id;
    return bvh;
}

uint32_t
BinaryBvh::depth() const
{
    if (empty())
        return 0;
    // Iterative DFS to avoid recursion limits on deep trees.
    std::vector<std::pair<uint32_t, uint32_t>> stack{{0, 0}};
    uint32_t max_depth = 0;
    const std::span<const BinaryNode> all = nodes();
    while (!stack.empty()) {
        auto [idx, d] = stack.back();
        stack.pop_back();
        max_depth = std::max(max_depth, d);
        const BinaryNode &node = all[idx];
        if (!node.isLeaf()) {
            stack.push_back({node.left, d + 1});
            stack.push_back({node.right, d + 1});
        }
    }
    return max_depth;
}

double
BinaryBvh::sahCost(const BvhBuildParams &params) const
{
    if (empty())
        return 0.0;
    double root_area = nodes()[0].bounds.surfaceArea();
    if (root_area <= 0.0)
        return 0.0;
    double cost = 0.0;
    for (const BinaryNode &node : nodes()) {
        double rel = node.bounds.surfaceArea() / root_area;
        cost += rel * (node.isLeaf() ? params.prim_cost * node.prim_count
                                     : params.node_cost);
    }
    return cost;
}

} // namespace sms

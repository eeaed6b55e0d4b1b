/**
 * @file
 * Binary BVH built with a binned surface-area heuristic.
 *
 * The binary tree is an intermediate: it is collapsed into the wide
 * (BVH6) structure that the simulated RT unit traverses. It is also a
 * convenient shape for structural invariant tests.
 */

#ifndef SMS_BVH_BINARY_BVH_HPP
#define SMS_BVH_BINARY_BVH_HPP

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "src/geometry/aabb.hpp"
#include "src/scene/scene.hpp"

namespace sms {

/** Largest BvhBuildParams::sah_bins: the builder bins into fixed arrays. */
constexpr int kMaxSahBins = 64;

/** Largest BvhBuildParams::max_leaf_prims: a ChildRef counts 6 bits. */
constexpr int kMaxLeafPrims = 63;

/** Build parameters for the binary SAH builder. */
struct BvhBuildParams
{
    /** Number of SAH bins per axis (2..kMaxSahBins). */
    int sah_bins = 16;
    /**
     * Maximum primitives per leaf (1..kMaxLeafPrims; small leaves match
     * driver BVHs). SAH early termination may still keep up to 8.
     */
    int max_leaf_prims = 2;
    /** Relative cost of a primitive test vs. a node test. */
    float prim_cost = 1.0f;
    float node_cost = 1.0f;
    /**
     * Branching factor of the collapsed wide BVH (2..kWideBvhWidth).
     * Vulkan driver acceleration structures are narrower than the
     * RTX-style BVH6; the default matches the paper's stack-depth
     * profile (avg 4-5, max ~30) at our scene scale.
     */
    int wide_width = 6;
};

/**
 * Node of the binary BVH. Internal nodes reference children by index;
 * leaves reference a contiguous range of the primitive-index array.
 */
struct BinaryNode
{
    Aabb bounds;
    uint32_t left = 0;       ///< left child index (internal only)
    uint32_t right = 0;      ///< right child index (internal only)
    uint32_t prim_offset = 0; ///< first index into primIndices (leaf only)
    uint16_t prim_count = 0; ///< 0 for internal nodes
    bool isLeaf() const { return prim_count > 0; }
};

/**
 * Binary BVH over a scene's unified primitive ids.
 *
 * Nodes are stored in preorder (a node's left child directly follows
 * it), and leaves cover the primitive-index array left to right.
 */
class BinaryBvh
{
  public:
    /**
     * Build over all primitives of @p scene on up to @p threads threads
     * (0: defaultThreadCount()). The tree is the same for every thread
     * count. Exits via fatal() when @p params is out of range.
     */
    static BinaryBvh build(const Scene &scene,
                           const BvhBuildParams &params = {},
                           unsigned threads = 0);

    std::span<const BinaryNode>
    nodes() const
    {
        return {nodes_.get(), node_count_};
    }
    const std::vector<uint32_t> &primIndices() const { return prim_indices_; }
    uint32_t rootIndex() const { return 0; }
    bool empty() const { return node_count_ == 0; }

    /** Maximum leaf depth (root = 0). */
    uint32_t depth() const;

    /** SAH cost of the tree under the given params. */
    double sahCost(const BvhBuildParams &params = {}) const;

  private:
    /** Frees node storage taken uninitialized from operator new. */
    struct NodeDeleter
    {
        void operator()(BinaryNode *nodes) const { ::operator delete(nodes); }
    };

    /**
     * Room for the 2n-1 nodes n primitives make at most, left
     * uninitialized so untouched pages cost no memory; the first
     * node_count_ hold the tree.
     */
    std::unique_ptr<BinaryNode, NodeDeleter> nodes_;
    uint32_t node_count_ = 0;
    std::vector<uint32_t> prim_indices_;
};

} // namespace sms

#endif // SMS_BVH_BINARY_BVH_HPP

/**
 * @file
 * Wide BVH (BVH6) — the acceleration structure the simulated RT unit
 * traverses, plus its byte-level layout in the simulated global address
 * space.
 *
 * The paper's Fig. 3 illustrates BVH6 traversal with a short stack; node
 * addresses (8 B each) are what traversal stacks hold. We encode a child
 * reference in 32 bits (internal index or leaf primitive range) and the
 * stack entry as that reference zero-extended to 64 bits, mirroring the
 * 8-byte entries the paper assumes.
 */

#ifndef SMS_BVH_WIDE_BVH_HPP
#define SMS_BVH_WIDE_BVH_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "src/bvh/binary_bvh.hpp"
#include "src/geometry/aabb.hpp"
#include "src/scene/scene.hpp"

namespace sms {

/** Maximum branching factor of the wide BVH. */
constexpr int kWideBvhWidth = 6;

/**
 * Compact child reference.
 *
 * Bit layout: [31:30] kind (0 invalid, 1 internal, 2 leaf);
 * internal: [29:0] node index; leaf: [29:6] primIndices offset,
 * [5:0] primitive count.
 */
class ChildRef
{
  public:
    ChildRef() : bits_(0) {}

    static ChildRef
    makeInternal(uint32_t node_index)
    {
        return ChildRef((1u << 30) | node_index);
    }

    static ChildRef
    makeLeaf(uint32_t prim_offset, uint32_t prim_count)
    {
        return ChildRef((2u << 30) | (prim_offset << 6) | prim_count);
    }

    static ChildRef fromBits(uint32_t bits) { return ChildRef(bits); }

    bool valid() const { return (bits_ >> 30) != 0; }
    bool isInternal() const { return (bits_ >> 30) == 1; }
    bool isLeaf() const { return (bits_ >> 30) == 2; }
    uint32_t nodeIndex() const { return bits_ & 0x3fffffffu; }
    uint32_t primOffset() const { return (bits_ >> 6) & 0xffffffu; }
    uint32_t primCount() const { return bits_ & 0x3fu; }
    uint32_t bits() const { return bits_; }

    /** 8-byte traversal-stack entry value for this reference. */
    uint64_t stackValue() const { return bits_; }

    static ChildRef
    fromStackValue(uint64_t v)
    {
        return ChildRef(static_cast<uint32_t>(v));
    }

    bool operator==(const ChildRef &o) const { return bits_ == o.bits_; }

  private:
    explicit ChildRef(uint32_t bits) : bits_(bits) {}
    uint32_t bits_;
};

/** One BVH6 node: up to six child boxes and references. */
struct WideNode
{
    std::array<Aabb, kWideBvhWidth> child_bounds;
    std::array<ChildRef, kWideBvhWidth> children;
    uint8_t child_count = 0;
};

/** Structural statistics of a wide BVH. */
struct WideBvhStats
{
    uint32_t node_count = 0;
    uint32_t leaf_count = 0;      ///< number of leaf child references
    uint32_t max_depth = 0;       ///< deepest internal-node chain
    double avg_children = 0.0;    ///< mean child count of internal nodes
    double avg_leaf_prims = 0.0;  ///< mean primitives per leaf reference
    uint64_t footprint_bytes = 0; ///< nodes + index lists + prim data
};

/**
 * The wide BVH plus its simulated memory layout.
 *
 * Address map (simulated global addresses):
 *  - node i occupies [kNodeBase + i*kNodeBytes, +kNodeBytes)
 *  - triangle t occupies [kTriBase + t*kTriBytes, +kTriBytes)
 *  - sphere s occupies [kSphereBase + s*kSphereBytes, +kSphereBytes)
 * These feed the cache/DRAM models; traffic footprints therefore match
 * the real structure sizes.
 */
class WideBvh
{
  public:
    static constexpr uint64_t kNodeBase = 0x10000000ull;
    static constexpr uint64_t kTriBase = 0x40000000ull;
    static constexpr uint64_t kSphereBase = 0x50000000ull;
    /** 6 child AABBs (144 B) + 6 child refs (24 B) + metadata (8 B). */
    static constexpr uint64_t kNodeBytes = 176;
    static constexpr uint64_t kTriBytes = 48;
    static constexpr uint64_t kSphereBytes = 32;

    /**
     * Build a binary BVH on up to @p threads threads (0:
     * defaultThreadCount()) and collapse it into wide form
     * (params.wide_width). The bytes do not depend on @p threads.
     */
    static WideBvh build(const Scene &scene,
                         const BvhBuildParams &params = {},
                         unsigned threads = 0);

    /** Collapse an already-built binary BVH (shares prim order). */
    static WideBvh fromBinary(const Scene &scene, const BinaryBvh &binary,
                              int wide_width = 6);

    /**
     * Reassemble a BVH from its serialized parts (workload snapshot
     * cache). The parts must come from a previously built BVH; no
     * structural validation beyond what traversal itself asserts.
     */
    static WideBvh fromParts(int wide_width, std::vector<WideNode> nodes,
                             std::vector<uint32_t> prim_indices,
                             ChildRef root_ref);

    const std::vector<WideNode> &nodes() const { return nodes_; }
    const std::vector<uint32_t> &primIndices() const { return prim_indices_; }
    /** True when the BVH covers no geometry. A tiny scene may collapse
     *  to a single leaf reference with zero interior nodes. */
    bool empty() const { return !root_ref_.valid(); }

    /** Root reference (invalid for empty scenes). */
    ChildRef
    rootRef() const
    {
        return root_ref_;
    }

    /** Simulated byte address of a node. */
    uint64_t
    nodeAddress(uint32_t index) const
    {
        return kNodeBase + index * kNodeBytes;
    }

    /** Simulated byte address of a unified primitive id. */
    uint64_t primitiveAddress(const Scene &scene, uint32_t prim_id) const;

    /** Bytes of primitive data fetched when testing a primitive. */
    uint64_t primitiveFetchBytes(const Scene &scene, uint32_t prim_id) const;

    /** Structural statistics (footprint uses @p scene primitive data). */
    WideBvhStats computeStats(const Scene &scene) const;

    /** Deepest chain of internal nodes starting from @p ref. */
    uint32_t depthFrom(ChildRef ref) const;

  private:
    ChildRef collapse(const BinaryBvh &binary, uint32_t binary_index);

    int wide_width_ = kWideBvhWidth;
    std::vector<WideNode> nodes_;
    std::vector<uint32_t> prim_indices_;
    ChildRef root_ref_;
};

} // namespace sms

#endif // SMS_BVH_WIDE_BVH_HPP

/**
 * @file
 * Structural and behavioural tests of the BVH substrate: binary SAH
 * builder invariants and parameter checks, pinned BVH bytes for every
 * scene at any thread count, wide collapse, ChildRef encoding, and
 * traversal correctness against the brute-force oracle.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/bvh/binary_bvh.hpp"
#include "src/bvh/traverse.hpp"
#include "src/bvh/wide_bvh.hpp"
#include "src/scene/registry.hpp"
#include "src/trace/cache_io.hpp"
#include "src/util/rng.hpp"

namespace sms {
namespace {

Scene
randomTriangleSoup(uint32_t count, uint64_t seed)
{
    Scene scene;
    uint16_t mat = scene.addMaterial({});
    Pcg32 rng(seed);
    for (uint32_t i = 0; i < count; ++i) {
        Vec3 c{rng.nextRange(-10, 10), rng.nextRange(-10, 10),
               rng.nextRange(-10, 10)};
        auto jitter = [&]() {
            return Vec3{rng.nextRange(-0.5f, 0.5f),
                        rng.nextRange(-0.5f, 0.5f),
                        rng.nextRange(-0.5f, 0.5f)};
        };
        scene.addTriangle(
            Triangle(c + jitter(), c + jitter(), c + jitter()), mat);
    }
    // A few spheres exercise the unified primitive id space.
    for (uint32_t i = 0; i < count / 10 + 1; ++i) {
        scene.addSphere(Sphere({rng.nextRange(-10, 10),
                                rng.nextRange(-10, 10),
                                rng.nextRange(-10, 10)},
                               rng.nextRange(0.2f, 1.0f)),
                        mat);
    }
    return scene;
}

Ray
randomRay(Pcg32 &rng)
{
    Vec3 dir;
    do {
        dir = Vec3{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                   rng.nextRange(-1, 1)};
    } while (lengthSquared(dir) < 1e-4f);
    return Ray({rng.nextRange(-15, 15), rng.nextRange(-15, 15),
                rng.nextRange(-15, 15)},
               normalize(dir), 1e-4f);
}

// ---------------------------------------------------------------------
// ChildRef encoding
// ---------------------------------------------------------------------

TEST(ChildRef, DefaultInvalid)
{
    ChildRef ref;
    EXPECT_FALSE(ref.valid());
    EXPECT_FALSE(ref.isInternal());
    EXPECT_FALSE(ref.isLeaf());
}

TEST(ChildRef, InternalRoundTrip)
{
    ChildRef ref = ChildRef::makeInternal(123456);
    EXPECT_TRUE(ref.valid());
    EXPECT_TRUE(ref.isInternal());
    EXPECT_FALSE(ref.isLeaf());
    EXPECT_EQ(ref.nodeIndex(), 123456u);
    EXPECT_EQ(ChildRef::fromStackValue(ref.stackValue()), ref);
}

TEST(ChildRef, LeafRoundTrip)
{
    ChildRef ref = ChildRef::makeLeaf(99999, 37);
    EXPECT_TRUE(ref.isLeaf());
    EXPECT_EQ(ref.primOffset(), 99999u);
    EXPECT_EQ(ref.primCount(), 37u);
    EXPECT_EQ(ChildRef::fromStackValue(ref.stackValue()), ref);
}

// ---------------------------------------------------------------------
// Binary builder invariants
// ---------------------------------------------------------------------

class BinaryBvhTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BinaryBvhTest, EveryPrimitiveReferencedExactlyOnce)
{
    Scene scene = randomTriangleSoup(GetParam(), GetParam() * 31 + 7);
    BinaryBvh bvh = BinaryBvh::build(scene);
    ASSERT_FALSE(bvh.empty());

    std::multiset<uint32_t> referenced(bvh.primIndices().begin(),
                                       bvh.primIndices().end());
    EXPECT_EQ(referenced.size(), scene.primitiveCount());
    for (uint32_t p = 0; p < scene.primitiveCount(); ++p)
        EXPECT_EQ(referenced.count(p), 1u) << "primitive " << p;
}

TEST_P(BinaryBvhTest, ChildBoundsNestInParents)
{
    Scene scene = randomTriangleSoup(GetParam(), GetParam() * 17 + 3);
    BinaryBvh bvh = BinaryBvh::build(scene);
    const auto &nodes = bvh.nodes();
    for (const BinaryNode &node : nodes) {
        if (node.isLeaf()) {
            for (uint16_t i = 0; i < node.prim_count; ++i) {
                uint32_t prim =
                    bvh.primIndices()[node.prim_offset + i];
                EXPECT_TRUE(
                    node.bounds.contains(scene.primitiveBounds(prim)));
            }
        } else {
            EXPECT_TRUE(node.bounds.contains(nodes[node.left].bounds));
            EXPECT_TRUE(node.bounds.contains(nodes[node.right].bounds));
        }
    }
}

TEST_P(BinaryBvhTest, LeafSizesRespectLimit)
{
    BvhBuildParams params;
    Scene scene = randomTriangleSoup(GetParam(), GetParam() + 1);
    BinaryBvh bvh = BinaryBvh::build(scene, params);
    for (const BinaryNode &node : bvh.nodes()) {
        if (node.isLeaf()) {
            // SAH early termination may keep up to 8 primitives.
            EXPECT_LE(node.prim_count, 8);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BinaryBvhTest,
                         ::testing::Values(1u, 2u, 7u, 33u, 200u, 1500u));

TEST(BinaryBvh, EmptySceneGivesEmptyBvh)
{
    Scene scene;
    BinaryBvh bvh = BinaryBvh::build(scene);
    EXPECT_TRUE(bvh.empty());
}

TEST(BinaryBvh, CoincidentCentroidsStillSplit)
{
    // All triangles identical: centroid binning degenerates and the
    // builder must fall back to median splits without infinite
    // recursion.
    Scene scene;
    uint16_t mat = scene.addMaterial({});
    for (int i = 0; i < 64; ++i)
        scene.addTriangle(Triangle({0, 0, 0}, {1, 0, 0}, {0, 1, 0}), mat);
    BinaryBvh bvh = BinaryBvh::build(scene);
    EXPECT_EQ(bvh.primIndices().size(), 64u);
}

TEST(BinaryBvh, SahCostPositiveAndDepthSane)
{
    Scene scene = randomTriangleSoup(500, 99);
    BinaryBvh bvh = BinaryBvh::build(scene);
    EXPECT_GT(bvh.sahCost(), 0.0);
    EXPECT_GE(bvh.depth(), 5u);
    EXPECT_LE(bvh.depth(), 64u);
}

// Out-of-range parameters stop the build at entry. sah_bins = 0 used
// to reach std::clamp(b, 0, -1); an oversized leaf used to surface only
// at the collapse's ChildRef assert.
void
expectRejected(int sah_bins, int max_leaf_prims, const char *message)
{
    Scene scene = randomTriangleSoup(100, 5);
    BvhBuildParams params;
    params.sah_bins = sah_bins;
    params.max_leaf_prims = max_leaf_prims;
    EXPECT_EXIT(BinaryBvh::build(scene, params),
                ::testing::ExitedWithCode(1), message);
}

TEST(BinaryBvh, RejectsZeroSahBins) { expectRejected(0, 2, "sah_bins"); }

TEST(BinaryBvh, RejectsOneSahBin) { expectRejected(1, 2, "sah_bins"); }

TEST(BinaryBvh, RejectsNegativeSahBins)
{
    expectRejected(-4, 2, "sah_bins");
}

TEST(BinaryBvh, RejectsSahBinsPastStackArrays)
{
    expectRejected(kMaxSahBins + 1, 2, "sah_bins");
}

TEST(BinaryBvh, RejectsZeroMaxLeafPrims)
{
    expectRejected(16, 0, "max_leaf_prims");
}

TEST(BinaryBvh, RejectsMaxLeafPrimsPastChildRefField)
{
    expectRejected(16, kMaxLeafPrims + 1, "max_leaf_prims");
}

TEST(BinaryBvh, AcceptsBoundaryParams)
{
    Scene scene = randomTriangleSoup(300, 6);
    for (auto [bins, leaf] : {std::pair{2, 1}, std::pair{kMaxSahBins, 2},
                              std::pair{16, kMaxLeafPrims}}) {
        BvhBuildParams params;
        params.sah_bins = bins;
        params.max_leaf_prims = leaf;
        WideBvh wide = WideBvh::build(scene, params);
        EXPECT_EQ(wide.primIndices().size(), scene.primitiveCount());
    }
}

// ---------------------------------------------------------------------
// Pinned BVH bytes
// ---------------------------------------------------------------------

/**
 * FNV-1a of a wide BVH in the snapshot's layout: root ref, node count,
 * per node six (lo, hi, child ref) slots and the child count, then the
 * prim-index count and indices.
 */
uint64_t
bvhDigest(const WideBvh &bvh)
{
    uint64_t h = 0xcbf29ce484222325ull; // FNV-1a offset basis
    auto put = [&h](const auto &v) { h = fnv1a(&v, sizeof v, h); };
    put(bvh.rootRef().bits());
    put(uint64_t{bvh.nodes().size()});
    for (const WideNode &node : bvh.nodes()) {
        for (int c = 0; c < kWideBvhWidth; ++c) {
            for (const Vec3 &v :
                 {node.child_bounds[c].lo, node.child_bounds[c].hi}) {
                put(v.x);
                put(v.y);
                put(v.z);
            }
            put(node.children[c].bits());
        }
        put(node.child_count);
    }
    put(uint64_t{bvh.primIndices().size()});
    for (uint32_t index : bvh.primIndices())
        put(index);
    return h;
}

struct PinnedBvh
{
    SceneId scene;
    uint64_t tiny;
    uint64_t small;
};

// Every build must reproduce these bytes, whatever its thread count.
constexpr PinnedBvh kPinnedBvhs[] = {
    {SceneId::WKND, 0xf1f6c84d2cd730d5ull, 0xe40783e110286adeull},
    {SceneId::SPRNG, 0xcf0b02816476d46bull, 0x10570cb1b3186414ull},
    {SceneId::FOX, 0x887d65702c2b8bfeull, 0xa260915f3ae1c728ull},
    {SceneId::LANDS, 0x13acbec70724f352ull, 0x6662cb8fe6bf820full},
    {SceneId::CRNVL, 0x0b43fe12a9792c50ull, 0x309a2d984d06268cull},
    {SceneId::SPNZA, 0xa047372807359d93ull, 0x454ec70693ee8189ull},
    {SceneId::BATH, 0xbd67f08781e9578dull, 0x552577dc5c2cde96ull},
    {SceneId::ROBOT, 0x012777a1c305d579ull, 0xe65cff7fa9fe3a0dull},
    {SceneId::CAR, 0x307b73f6bc6a4510ull, 0xc1e558d2910dc3fdull},
    {SceneId::PARTY, 0x41649de799bcddf2ull, 0x16986928a0d6dde0ull},
    {SceneId::FRST, 0x4089833aa987c882ull, 0x3c23d8ca643ac035ull},
    {SceneId::BUNNY, 0xcf24ea5940ab82f8ull, 0x3fd29069759cb0a5ull},
    {SceneId::SHIP, 0x263457ecc38112f1ull, 0x6aa9cea4e74e1c65ull},
    {SceneId::REF, 0x403e6e2b09780818ull, 0xc0998a558b5cd2f3ull},
    {SceneId::CHSNT, 0xb8bf17b5ad12cd95ull, 0xefa9d85988aa3817ull},
    {SceneId::PARK, 0xe65b51e48c986773ull, 0x3c97890d1c49ac7eull},
};

TEST(BvhBytes, TinyScenesMatchPinnedDigests)
{
    ASSERT_EQ(std::size(kPinnedBvhs), allScenes().size());
    for (const PinnedBvh &pin : kPinnedBvhs) {
        Scene scene = makeScene(pin.scene, ScaleProfile::Tiny);
        EXPECT_EQ(bvhDigest(WideBvh::build(scene)), pin.tiny)
            << sceneName(pin.scene);
    }
}

TEST(BvhBytes, SmallScenesMatchPinnedDigestsOnOneAndFourThreads)
{
    // Small scenes span 2.4 K to 611 K primitives, so most of them are
    // big enough for the builder to hand subtrees to helper threads;
    // the bytes must not depend on whether it did.
    for (const PinnedBvh &pin : kPinnedBvhs) {
        Scene scene = makeScene(pin.scene, ScaleProfile::Small);
        for (unsigned threads : {1u, 4u})
            EXPECT_EQ(bvhDigest(WideBvh::build(scene, {}, threads)),
                      pin.small)
                << sceneName(pin.scene) << " on " << threads
                << " threads";
    }
}

// ---------------------------------------------------------------------
// Wide collapse invariants
// ---------------------------------------------------------------------

class WideWidthTest : public ::testing::TestWithParam<int>
{
};

TEST_P(WideWidthTest, CollapseRespectsWidthAndKeepsPrims)
{
    BvhBuildParams params;
    params.wide_width = GetParam();
    Scene scene = randomTriangleSoup(600, 1234);
    WideBvh wide = WideBvh::build(scene, params);
    ASSERT_FALSE(wide.empty());

    std::multiset<uint32_t> referenced;
    uint64_t leaf_prims = 0;
    for (const WideNode &node : wide.nodes()) {
        EXPECT_GE(node.child_count, 2);
        EXPECT_LE(node.child_count, GetParam());
        for (uint8_t i = 0; i < node.child_count; ++i) {
            ASSERT_TRUE(node.children[i].valid());
            if (node.children[i].isLeaf()) {
                leaf_prims += node.children[i].primCount();
                for (uint32_t p = 0; p < node.children[i].primCount();
                     ++p) {
                    referenced.insert(
                        wide.primIndices()[node.children[i].primOffset() +
                                           p]);
                }
            }
        }
    }
    EXPECT_EQ(leaf_prims, scene.primitiveCount());
    for (uint32_t p = 0; p < scene.primitiveCount(); ++p)
        EXPECT_EQ(referenced.count(p), 1u);
}

TEST_P(WideWidthTest, TraversalMatchesBruteForce)
{
    BvhBuildParams params;
    params.wide_width = GetParam();
    Scene scene = randomTriangleSoup(400, 555);
    WideBvh wide = WideBvh::build(scene, params);

    Pcg32 rng(42);
    for (int i = 0; i < 200; ++i) {
        Ray ray = randomRay(rng);
        HitRecord ours = traverseClosest(scene, wide, ray);
        HitRecord oracle = scene.intersectBruteForce(ray);
        ASSERT_EQ(ours.valid(), oracle.valid()) << "ray " << i;
        if (ours.valid()) {
            EXPECT_NEAR(ours.t, oracle.t, 1e-3f);
            EXPECT_EQ(ours.primitive, oracle.primitive);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, WideWidthTest,
                         ::testing::Values(2, 3, 4, 6));

TEST(WideBvh, ChildBoundsNestAndDepthConsistent)
{
    Scene scene = makeScene(SceneId::BUNNY, ScaleProfile::Tiny);
    WideBvh wide = WideBvh::build(scene);
    const auto &nodes = wide.nodes();
    for (const WideNode &node : nodes) {
        for (uint8_t i = 0; i < node.child_count; ++i) {
            if (node.children[i].isInternal()) {
                const WideNode &child =
                    nodes[node.children[i].nodeIndex()];
                for (uint8_t j = 0; j < child.child_count; ++j) {
                    EXPECT_TRUE(node.child_bounds[i].contains(
                        child.child_bounds[j]));
                }
            }
        }
    }
    WideBvhStats stats = wide.computeStats(scene);
    EXPECT_EQ(stats.max_depth, wide.depthFrom(wide.rootRef()));
    EXPECT_GT(stats.avg_children, 2.0);
    EXPECT_LE(stats.avg_children, 6.0);
    EXPECT_GT(stats.footprint_bytes,
              scene.primitiveDataBytes());
}

TEST(WideBvh, AddressMapIsDisjointAndStrided)
{
    Scene scene = randomTriangleSoup(50, 8);
    WideBvh wide = WideBvh::build(scene);
    EXPECT_EQ(wide.nodeAddress(1) - wide.nodeAddress(0),
              WideBvh::kNodeBytes);
    // Triangle and sphere regions never overlap the node region.
    EXPECT_GE(wide.primitiveAddress(scene, 0), WideBvh::kTriBase);
    uint32_t sphere_id = scene.triangleCount();
    EXPECT_GE(wide.primitiveAddress(scene, sphere_id),
              WideBvh::kSphereBase);
    EXPECT_EQ(wide.primitiveFetchBytes(scene, 0), WideBvh::kTriBytes);
    EXPECT_EQ(wide.primitiveFetchBytes(scene, sphere_id),
              WideBvh::kSphereBytes);
}

// ---------------------------------------------------------------------
// Traversal semantics
// ---------------------------------------------------------------------

TEST(Traverse, ChildrenSortedNearestFirst)
{
    Scene scene = randomTriangleSoup(300, 77);
    WideBvh wide = WideBvh::build(scene);
    Pcg32 rng(3);
    for (int i = 0; i < 50; ++i) {
        Ray ray = randomRay(rng);
        for (const WideNode &node : wide.nodes()) {
            ChildHits hits = intersectNodeChildren(node, ray);
            for (int c = 1; c < hits.count; ++c)
                EXPECT_LE(hits.t[c - 1], hits.t[c]);
            EXPECT_EQ(hits.tests, node.child_count);
        }
        if (i >= 2)
            break; // a few rays over every node is plenty
    }
}

TEST(Traverse, AnyHitConsistentWithClosest)
{
    Scene scene = randomTriangleSoup(300, 31);
    WideBvh wide = WideBvh::build(scene);
    Pcg32 rng(13);
    for (int i = 0; i < 300; ++i) {
        Ray ray = randomRay(rng);
        bool any = traverseAnyHit(scene, wide, ray);
        bool closest = traverseClosest(scene, wide, ray).valid();
        EXPECT_EQ(any, closest);
    }
}

TEST(Traverse, CountersAreConsistent)
{
    Scene scene = randomTriangleSoup(300, 19);
    WideBvh wide = WideBvh::build(scene);
    Pcg32 rng(1);
    TraversalCounters ctr;
    Ray ray = randomRay(rng);
    traverseClosest(scene, wide, ray, &ctr);
    // Every visit tests at least two children; pushes can't exceed
    // box hits; pops never exceed pushes.
    EXPECT_GE(ctr.box_tests, 2 * ctr.nodes_visited);
    EXPECT_LE(ctr.stack_pops, ctr.stack_pushes);
    if (ctr.leaf_visits > 0)
        EXPECT_GT(ctr.prim_tests, 0u);
}

TEST(Traverse, RespectsTmaxSegment)
{
    Scene scene;
    uint16_t mat = scene.addMaterial({});
    scene.addTriangle(Triangle({-1, -1, 5}, {1, -1, 5}, {0, 1, 5}), mat);
    WideBvh wide = WideBvh::build(scene);
    Ray short_ray({0, 0, 0}, {0, 0, 1}, 1e-4f, 3.0f);
    EXPECT_FALSE(traverseClosest(scene, wide, short_ray).valid());
    Ray long_ray({0, 0, 0}, {0, 0, 1}, 1e-4f, 8.0f);
    EXPECT_TRUE(traverseClosest(scene, wide, long_ray).valid());
}

TEST(Traverse, EmptyBvhMisses)
{
    Scene scene;
    WideBvh wide = WideBvh::build(scene);
    Ray ray({0, 0, 0}, {0, 0, 1});
    EXPECT_FALSE(traverseClosest(scene, wide, ray).valid());
    EXPECT_FALSE(traverseAnyHit(scene, wide, ray));
}

TEST(Traverse, SceneSuiteSpotCheckAgainstBruteForce)
{
    // End-to-end traversal correctness on real (Tiny) generated scenes.
    for (SceneId id : {SceneId::SHIP, SceneId::WKND, SceneId::BATH}) {
        Scene scene = makeScene(id, ScaleProfile::Tiny);
        WideBvh wide = WideBvh::build(scene);
        Pcg32 rng(static_cast<uint64_t>(id) + 100);
        Aabb bounds = scene.bounds();
        Vec3 c = bounds.centroid();
        float r = length(bounds.extent());
        for (int i = 0; i < 60; ++i) {
            Vec3 origin = c + Vec3{rng.nextRange(-r, r),
                                   rng.nextRange(-r, r),
                                   rng.nextRange(-r, r)};
            Vec3 target = c + Vec3{rng.nextRange(-r / 4, r / 4),
                                   rng.nextRange(-r / 4, r / 4),
                                   rng.nextRange(-r / 4, r / 4)};
            if (lengthSquared(target - origin) < 1e-6f)
                continue;
            Ray ray(origin, normalize(target - origin), 1e-3f);
            HitRecord ours = traverseClosest(scene, wide, ray);
            HitRecord oracle = scene.intersectBruteForce(ray);
            ASSERT_EQ(ours.valid(), oracle.valid())
                << sceneName(id) << " ray " << i;
            if (ours.valid())
                EXPECT_NEAR(ours.t, oracle.t, 1e-2f);
        }
    }
}

} // namespace
} // namespace sms

// HNSW tests: exactness on small sets, recall against brute force on
// clustered data (parameterized over ef), dynamic update correctness (the
// property SpiderCache depends on: embeddings drift every epoch), degree
// queries, robustness to edge cases, and a golden pin of the exact graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ann/bruteforce.hpp"
#include "ann/hnsw.hpp"
#include "ann/serialize.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace spider::ann {
namespace {

std::vector<float> random_point(util::Rng& rng, std::size_t dim,
                                double center = 0.0) {
    std::vector<float> p(dim);
    for (float& x : p) x = static_cast<float>(rng.normal(center, 1.0));
    return p;
}

TEST(BruteForce, ExactNearestNeighbors) {
    BruteForceIndex index{2};
    index.upsert(0, std::vector<float>{0.0F, 0.0F});
    index.upsert(1, std::vector<float>{1.0F, 0.0F});
    index.upsert(2, std::vector<float>{5.0F, 0.0F});
    const auto found = index.knn(std::vector<float>{0.1F, 0.0F}, 2);
    ASSERT_EQ(found.size(), 2U);
    EXPECT_EQ(found[0].label, 0U);
    EXPECT_EQ(found[1].label, 1U);
    EXPECT_NEAR(found[0].distance, 0.1F, 1e-5);
}

TEST(BruteForce, UpsertReplacesVector) {
    BruteForceIndex index{1};
    index.upsert(7, std::vector<float>{0.0F});
    index.upsert(7, std::vector<float>{10.0F});
    EXPECT_EQ(index.size(), 1U);
    const auto found = index.knn(std::vector<float>{10.0F}, 1);
    EXPECT_EQ(found[0].label, 7U);
    EXPECT_NEAR(found[0].distance, 0.0F, 1e-5);
}

TEST(Hnsw, EmptyAndSingle) {
    HnswConfig config;
    config.dim = 3;
    HnswIndex index{config};
    EXPECT_EQ(index.size(), 0U);
    EXPECT_TRUE(index.knn(std::vector<float>{0, 0, 0}, 5).empty());

    index.upsert(42, std::vector<float>{1, 2, 3});
    EXPECT_TRUE(index.contains(42));
    const auto found = index.knn(std::vector<float>{1, 2, 3}, 1);
    ASSERT_EQ(found.size(), 1U);
    EXPECT_EQ(found[0].label, 42U);
    EXPECT_NEAR(found[0].distance, 0.0F, 1e-6);
}

TEST(Hnsw, FindsSelfAfterInsert) {
    HnswConfig config;
    config.dim = 8;
    HnswIndex index{config};
    util::Rng rng{7};
    std::vector<std::vector<float>> points;
    for (std::uint32_t i = 0; i < 200; ++i) {
        points.push_back(random_point(rng, 8));
        index.upsert(i, points.back());
    }
    // Every point finds itself as its nearest neighbor.
    for (std::uint32_t i = 0; i < 200; ++i) {
        const auto found = index.knn(points[i], 1);
        ASSERT_FALSE(found.empty());
        EXPECT_EQ(found[0].label, i) << "point " << i;
    }
}

class HnswRecallTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HnswRecallTest, RecallAtLeast90PercentVsBruteForce) {
    const std::size_t ef = GetParam();
    const std::size_t dim = 16;
    const std::size_t n = 600;
    const std::size_t k = 10;

    HnswConfig config;
    config.dim = dim;
    config.M = 12;
    config.ef_construction = 80;
    HnswIndex index{config};
    BruteForceIndex exact{dim};
    util::Rng rng{11};

    // Clustered data (the hard case for graph indexes, and the shape of
    // trained embeddings).
    for (std::uint32_t i = 0; i < n; ++i) {
        const double center = static_cast<double>(i % 5) * 3.0;
        const std::vector<float> p = random_point(rng, dim, center);
        index.upsert(i, p);
        exact.upsert(i, p);
    }

    double recall_sum = 0.0;
    const int queries = 50;
    for (int q = 0; q < queries; ++q) {
        const std::vector<float> query =
            random_point(rng, dim, static_cast<double>(q % 5) * 3.0);
        const auto approx = index.knn(query, k, ef);
        const auto truth = exact.knn(query, k);
        std::set<std::uint32_t> truth_set;
        for (const Neighbor& nb : truth) truth_set.insert(nb.label);
        int found = 0;
        for (const Neighbor& nb : approx) {
            found += truth_set.contains(nb.label) ? 1 : 0;
        }
        recall_sum += static_cast<double>(found) / static_cast<double>(k);
    }
    const double recall = recall_sum / queries;
    EXPECT_GE(recall, 0.90) << "ef=" << ef;
}

INSTANTIATE_TEST_SUITE_P(EfSweep, HnswRecallTest,
                         ::testing::Values(32, 64, 128));

TEST(Hnsw, ResultsSortedByDistance) {
    HnswConfig config;
    config.dim = 4;
    HnswIndex index{config};
    util::Rng rng{13};
    for (std::uint32_t i = 0; i < 300; ++i) {
        index.upsert(i, random_point(rng, 4));
    }
    const auto found = index.knn(random_point(rng, 4), 20);
    for (std::size_t i = 1; i < found.size(); ++i) {
        EXPECT_LE(found[i - 1].distance, found[i].distance);
    }
}

TEST(Hnsw, UpdateMovesPoint) {
    HnswConfig config;
    config.dim = 2;
    HnswIndex index{config};
    util::Rng rng{17};
    // Cluster at origin plus one wanderer.
    for (std::uint32_t i = 0; i < 100; ++i) {
        index.upsert(i, random_point(rng, 2, 0.0));
    }
    index.upsert(999, std::vector<float>{50.0F, 50.0F});

    auto far_query = std::vector<float>{49.0F, 49.0F};
    EXPECT_EQ(index.knn(far_query, 1)[0].label, 999U);

    // Move the wanderer into the cluster; far queries must stop finding it
    // close, near queries must now see it.
    index.upsert(999, std::vector<float>{0.1F, 0.1F});
    EXPECT_EQ(index.size(), 101U);
    const auto near_hits = index.knn(std::vector<float>{0.1F, 0.1F}, 1);
    EXPECT_EQ(near_hits[0].label, 999U);
    const auto far_hits = index.knn(far_query, 1);
    EXPECT_GT(far_hits[0].distance, 50.0F);
}

TEST(Hnsw, MassUpdateKeepsRecall) {
    // The SpiderCache workload: every point drifts every "epoch".
    const std::size_t dim = 8;
    const std::size_t n = 300;
    HnswConfig config;
    config.dim = dim;
    HnswIndex index{config};
    BruteForceIndex exact{dim};
    util::Rng rng{19};

    std::vector<std::vector<float>> points;
    for (std::uint32_t i = 0; i < n; ++i) {
        points.push_back(random_point(rng, dim));
        index.upsert(i, points[i]);
        exact.upsert(i, points[i]);
    }
    // Three rounds of full drift.
    for (int round = 0; round < 3; ++round) {
        for (std::uint32_t i = 0; i < n; ++i) {
            for (float& x : points[i]) {
                x += static_cast<float>(rng.normal(0.0, 0.2));
            }
            index.upsert(i, points[i]);
            exact.upsert(i, points[i]);
        }
    }
    EXPECT_EQ(index.size(), n);

    double recall_sum = 0.0;
    const std::size_t k = 5;
    for (int q = 0; q < 40; ++q) {
        const auto query = random_point(rng, dim);
        const auto approx = index.knn(query, k, 64);
        const auto truth = exact.knn(query, k);
        std::set<std::uint32_t> truth_set;
        for (const Neighbor& nb : truth) truth_set.insert(nb.label);
        int found = 0;
        for (const Neighbor& nb : approx) {
            found += truth_set.contains(nb.label) ? 1 : 0;
        }
        recall_sum += static_cast<double>(found) / static_cast<double>(k);
    }
    EXPECT_GE(recall_sum / 40.0, 0.85);
}

TEST(Hnsw, DegreeIsBoundedByLinkBudget) {
    HnswConfig config;
    config.dim = 4;
    config.M = 6;
    HnswIndex index{config};
    util::Rng rng{23};
    for (std::uint32_t i = 0; i < 400; ++i) {
        index.upsert(i, random_point(rng, 4));
    }
    for (std::uint32_t i = 0; i < 400; ++i) {
        EXPECT_LE(index.degree(i), config.M * 2 + config.M / 2);
    }
    EXPECT_EQ(index.degree(12345), 0U);  // absent label
}

// Recall gate under the scorer's workload: clustered unit vectors that
// drift in place every pass, each label then queried with its own stored
// vector. Recall@32 is averaged over all labels against brute force, and
// every label must come back as its own top-1 result — a node cut off
// from the directed search graph would fail that.
TEST(Hnsw, RecallUnderDriftAndEveryLabelFindsItself) {
    constexpr std::size_t kDim = 32;
    constexpr std::uint32_t kPopulation = 2000;
    constexpr std::size_t kClusters = 8;
    constexpr std::size_t kK = 32;
    const auto normalize = [](std::vector<float>& p) {
        double norm_sq = 0.0;
        for (float x : p) norm_sq += static_cast<double>(x) * x;
        const auto inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
        for (float& x : p) x *= inv;
    };

    util::Rng rng{2025};
    std::vector<std::vector<float>> centers;
    for (std::size_t c = 0; c < kClusters; ++c) {
        centers.push_back(random_point(rng, kDim));
    }
    HnswConfig config;
    config.dim = kDim;
    HnswIndex index{config};
    std::vector<std::vector<float>> points;
    points.reserve(kPopulation);
    for (std::uint32_t i = 0; i < kPopulation; ++i) {
        std::vector<float> p = random_point(rng, kDim);
        const std::vector<float>& center = centers[i % kClusters];
        for (std::size_t d = 0; d < kDim; ++d) p[d] += center[d];
        normalize(p);
        points.push_back(std::move(p));
        index.upsert(i, points.back());
    }
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint32_t i = 0; i < kPopulation; ++i) {
            for (float& x : points[i]) {
                x += static_cast<float>(rng.normal(0.0, 0.05));
            }
            normalize(points[i]);
            index.upsert(i, points[i]);
        }
    }
    BruteForceIndex exact{kDim};
    for (std::uint32_t i = 0; i < kPopulation; ++i) {
        exact.upsert(i, points[i]);
    }

    double recall_sum = 0.0;
    std::uint32_t not_self = 0;
    for (std::uint32_t i = 0; i < kPopulation; ++i) {
        const std::span<const float> query = *index.vector_of(i);
        const auto approx = index.knn(query, kK, 48);
        std::set<std::uint32_t> truth_set;
        for (const Neighbor& nb : exact.knn(query, kK)) {
            truth_set.insert(nb.label);
        }
        int found = 0;
        for (const Neighbor& nb : approx) {
            found += truth_set.contains(nb.label) ? 1 : 0;
        }
        recall_sum += static_cast<double>(found) / static_cast<double>(kK);
        if (approx.empty() || approx.front().label != i) ++not_self;
    }
    // Measured 0.995 with per-edge pruning; the floor leaves room for
    // link-maintenance changes that trade a little recall for speed.
    EXPECT_GE(recall_sum / kPopulation, 0.985);
    EXPECT_EQ(not_self, 0U);
}

TEST(Hnsw, VectorOfReturnsStoredData) {
    HnswConfig config;
    config.dim = 3;
    HnswIndex index{config};
    const std::vector<float> v = {1.5F, -2.5F, 3.5F};
    index.upsert(5, v);
    const auto stored = index.vector_of(5);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(std::vector<float>(stored->begin(), stored->end()), v);
    EXPECT_FALSE(index.vector_of(6).has_value());
}

// vector_of() spans point into the index's own storage; passing one back
// to upsert must work both for an in-place update (even of the same label)
// and for an insert that grows, and so moves, that storage.
TEST(Hnsw, UpsertAcceptsSpanFromVectorOf) {
    HnswConfig config;
    config.dim = 4;
    HnswIndex index{config};
    util::Rng rng{41};
    index.upsert(0, random_point(rng, 4));
    const auto first = index.vector_of(0);
    ASSERT_TRUE(first.has_value());
    const std::vector<float> original(first->begin(), first->end());

    for (std::uint32_t label = 1; label < 300; ++label) {
        index.upsert(label, *index.vector_of(label - 1));  // insert + grow
    }
    index.upsert(7, *index.vector_of(7));    // self-update
    index.upsert(9, *index.vector_of(250));  // update from another slot
    for (const std::uint32_t label : {0U, 7U, 9U, 150U, 299U}) {
        const auto stored = index.vector_of(label);
        ASSERT_TRUE(stored.has_value());
        EXPECT_EQ(std::vector<float>(stored->begin(), stored->end()),
                  original)
            << "label " << label;
    }
}

TEST(Hnsw, MemoryGrowsWithInserts) {
    HnswConfig config;
    config.dim = 16;
    HnswIndex index{config};
    util::Rng rng{29};
    const std::size_t before = index.memory_bytes();
    for (std::uint32_t i = 0; i < 100; ++i) {
        index.upsert(i, random_point(rng, 16));
    }
    EXPECT_GT(index.memory_bytes(), before + 100 * 16 * sizeof(float));
}

TEST(Hnsw, RejectsBadConfigAndInput) {
    HnswConfig bad_dim;
    bad_dim.dim = 0;
    EXPECT_THROW(HnswIndex{bad_dim}, std::invalid_argument);

    HnswConfig bad_m;
    bad_m.M = 1;
    EXPECT_THROW(HnswIndex{bad_m}, std::invalid_argument);

    HnswConfig ok;
    ok.dim = 4;
    HnswIndex index{ok};
    EXPECT_THROW(index.upsert(0, std::vector<float>{1.0F}),
                 std::invalid_argument);
    EXPECT_THROW(index.knn(std::vector<float>{1.0F}, 1),
                 std::invalid_argument);
}

// A NaN or infinite component is rejected by upsert (new label or update)
// and by knn, and leaves the index as it was: no node, no moved vector, no
// distance computed.
TEST(Hnsw, RejectsNonFiniteInput) {
    HnswConfig config;
    config.dim = 4;
    HnswIndex index{config};
    util::Rng rng{43};
    for (std::uint32_t i = 0; i < 20; ++i) {
        index.upsert(i, random_point(rng, 4));
    }
    const std::vector<float> stored{index.vector_of(3)->begin(),
                                    index.vector_of(3)->end()};
    const std::size_t size = index.size();
    const std::uint64_t comps = index.distance_computations();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    for (const float bad : {nan, inf, -inf}) {
        std::vector<float> point = random_point(rng, 4);
        point[2] = bad;
        EXPECT_THROW(index.upsert(100, point), std::invalid_argument);
        EXPECT_THROW(index.upsert(3, point), std::invalid_argument);
        EXPECT_THROW((void)index.knn(point, 5), std::invalid_argument);
    }
    EXPECT_EQ(index.size(), size);
    EXPECT_FALSE(index.contains(100));
    EXPECT_EQ(index.distance_computations(), comps);
    const auto now = index.vector_of(3);
    EXPECT_EQ(std::vector<float>(now->begin(), now->end()), stored);
}

TEST(Hnsw, DistanceCounterAdvances) {
    HnswConfig config;
    config.dim = 4;
    HnswIndex index{config};
    util::Rng rng{31};
    for (std::uint32_t i = 0; i < 50; ++i) {
        index.upsert(i, random_point(rng, 4));
    }
    const std::uint64_t before = index.distance_computations();
    index.knn(random_point(rng, 4), 5);
    EXPECT_GT(index.distance_computations(), before);
}

TEST(Hnsw, UpdatingEntryPointSurvives) {
    // Repeatedly update label 0 (often the entry point) to stress the
    // entry-point reassignment path.
    HnswConfig config;
    config.dim = 2;
    HnswIndex index{config};
    util::Rng rng{37};
    for (std::uint32_t i = 0; i < 50; ++i) {
        index.upsert(i, random_point(rng, 2));
    }
    for (int round = 0; round < 10; ++round) {
        index.upsert(0, random_point(rng, 2));
        const auto found = index.knn(random_point(rng, 2), 3);
        EXPECT_EQ(found.size(), 3U);
    }
}

TEST(Hnsw, DuplicatePointsAllRetrievable) {
    HnswConfig config;
    config.dim = 2;
    HnswIndex index{config};
    const std::vector<float> same = {1.0F, 1.0F};
    for (std::uint32_t i = 0; i < 10; ++i) {
        index.upsert(i, same);
    }
    const auto found = index.knn(same, 10, 64);
    EXPECT_EQ(found.size(), 10U);
    for (const Neighbor& nb : found) {
        EXPECT_NEAR(nb.distance, 0.0F, 1e-6);
    }
}

// The scoring phase fans knn across a thread pool (hnsw.hpp phase
// contract); 8 threads x 1000 queries against a fixed graph must return
// exactly the serial answers, and the shared distance counter must not
// lose increments. Run under -DSPIDER_TSAN=ON to check for data races.
TEST(Hnsw, ConcurrentKnnMatchesSerial) {
    constexpr std::size_t kDim = 16;
    constexpr std::size_t kPopulation = 2000;
    constexpr std::size_t kQueries = 1000;
    constexpr std::size_t kThreads = 8;

    HnswConfig config;
    config.dim = kDim;
    HnswIndex index{config};
    util::Rng rng{71};
    for (std::uint32_t i = 0; i < kPopulation; ++i) {
        index.upsert(i, random_point(rng, kDim, static_cast<double>(i % 8)));
    }

    std::vector<std::vector<float>> queries;
    queries.reserve(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
        queries.push_back(random_point(rng, kDim, static_cast<double>(q % 8)));
    }

    // One serial pass measures both the expected answers and the exact
    // distance-computation count of a pass (the counter also includes
    // construction, so deltas are what's comparable).
    std::vector<std::vector<Neighbor>> serial(kQueries);
    const std::uint64_t comps_start = index.distance_computations();
    for (std::size_t q = 0; q < kQueries; ++q) {
        serial[q] = index.knn(queries[q], 10);
    }
    const std::uint64_t delta_serial =
        index.distance_computations() - comps_start;

    std::vector<std::vector<Neighbor>> parallel(kQueries);
    const std::uint64_t comps_before = index.distance_computations();
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t q = t; q < kQueries; q += kThreads) {
                parallel[q] = index.knn(queries[q], 10);
            }
        });
    }
    for (auto& th : threads) th.join();
    const std::uint64_t delta_parallel =
        index.distance_computations() - comps_before;

    for (std::size_t q = 0; q < kQueries; ++q) {
        ASSERT_EQ(parallel[q].size(), serial[q].size()) << "query " << q;
        for (std::size_t r = 0; r < serial[q].size(); ++r) {
            EXPECT_EQ(parallel[q][r].label, serial[q][r].label)
                << "query " << q << " rank " << r;
            EXPECT_EQ(parallel[q][r].distance, serial[q][r].distance)
                << "query " << q << " rank " << r;
        }
    }
    // Search is deterministic per query, so the relaxed-atomic counter must
    // see exactly one pass worth of increments.
    EXPECT_EQ(delta_parallel, delta_serial);
}

// A beam as wide as the index admits every reachable node, so knn must
// return exactly the brute-force top-k: same labels, same order.
TEST(Hnsw, WideBeamMatchesBruteForce) {
    constexpr std::size_t kDim = 16;
    constexpr std::size_t kPopulation = 500;
    constexpr std::size_t kQueries = 100;
    constexpr std::size_t kK = 20;

    HnswConfig config;
    config.dim = kDim;
    HnswIndex index{config};
    BruteForceIndex exact{kDim};
    util::Rng rng{314};
    for (std::uint32_t i = 0; i < kPopulation; ++i) {
        const std::vector<float> p = random_point(rng, kDim);
        index.upsert(i, p);
        exact.upsert(i, p);
    }
    for (std::size_t q = 0; q < kQueries; ++q) {
        const std::vector<float> query = random_point(rng, kDim);
        const auto approx = index.knn(query, kK, /*ef=*/index.size());
        const auto truth = exact.knn(query, kK);
        ASSERT_EQ(approx.size(), truth.size()) << "query " << q;
        for (std::size_t r = 0; r < truth.size(); ++r) {
            EXPECT_EQ(approx[r].label, truth[r].label)
                << "query " << q << " rank " << r;
            EXPECT_NEAR(approx[r].distance, truth[r].distance, 1e-4)
                << "query " << q << " rank " << r;
        }
    }
}

// Equal distances break by insertion order (hnsw.hpp): three copies of
// one vector come back adjacent, in the order their labels went in.
TEST(Hnsw, TiedDistancesOrderById) {
    constexpr std::size_t kDim = 8;
    HnswConfig config;
    config.dim = kDim;
    HnswIndex index{config};
    util::Rng rng{12};
    for (std::uint32_t i = 0; i < 10; ++i) {
        index.upsert(i, random_point(rng, kDim));
    }
    const std::vector<float> twin = random_point(rng, kDim);
    for (const std::uint32_t label : {10U, 11U, 12U}) {
        index.upsert(label, twin);
    }
    for (std::uint32_t i = 13; i < 300; ++i) {
        index.upsert(i, random_point(rng, kDim));
    }

    std::vector<float> query = twin;
    query[0] += 0.25F;  // tie at a nonzero distance
    const auto found = index.knn(query, 10);
    const auto first = std::find_if(
        found.begin(), found.end(),
        [](const Neighbor& nb) { return nb.label >= 10 && nb.label <= 12; });
    ASSERT_GE(std::distance(first, found.end()), 3);
    EXPECT_EQ(first[0].label, 10U);
    EXPECT_EQ(first[1].label, 11U);
    EXPECT_EQ(first[2].label, 12U);
    EXPECT_EQ(first[0].distance, first[1].distance);
    EXPECT_EQ(first[1].distance, first[2].distance);
}

// Pooled per-query search state is reused by queries of every beam
// width. Threads cycling narrow and wide beams over one index must still
// return exactly the serial answers.
TEST(Hnsw, ConcurrentKnnMixedBeamWidths) {
    constexpr std::size_t kDim = 16;
    constexpr std::size_t kPopulation = 1000;
    constexpr std::size_t kQueries = 300;
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kBeams[] = {16, 48, 400};

    HnswConfig config;
    config.dim = kDim;
    HnswIndex index{config};
    util::Rng rng{73};
    for (std::uint32_t i = 0; i < kPopulation; ++i) {
        index.upsert(i, random_point(rng, kDim, static_cast<double>(i % 4)));
    }
    std::vector<std::vector<float>> queries;
    queries.reserve(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
        queries.push_back(random_point(rng, kDim, static_cast<double>(q % 4)));
    }
    const auto beam_of = [&](std::size_t q) { return kBeams[q % 3]; };

    std::vector<std::vector<Neighbor>> serial(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
        serial[q] = index.knn(queries[q], 10, beam_of(q));
    }

    std::vector<std::vector<Neighbor>> parallel(kQueries);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t q = t; q < kQueries; q += kThreads) {
                parallel[q] = index.knn(queries[q], 10, beam_of(q));
            }
        });
    }
    for (auto& th : threads) th.join();

    for (std::size_t q = 0; q < kQueries; ++q) {
        ASSERT_EQ(parallel[q].size(), serial[q].size()) << "query " << q;
        for (std::size_t r = 0; r < serial[q].size(); ++r) {
            EXPECT_EQ(parallel[q][r].label, serial[q][r].label)
                << "query " << q << " rank " << r;
            EXPECT_EQ(parallel[q][r].distance, serial[q][r].distance)
                << "query " << q << " rank " << r;
        }
    }
}

// Golden parity pin for the HNSW internals. A seeded 2000x32 build, three
// in-place drift passes, then one knn(k=32) per label. Any change to which
// distances are computed, in what order, or how ties break moves at least
// one of these values; a pure layout or bookkeeping change moves none. The
// low bits of each distance depend on the kernel table (FMA vs portable),
// so expected values are keyed by its name. ctest runs the suite under
// both tables (SPIDER_SIMD=scalar forces the portable one).
struct GoldenRun {
    std::uint64_t knn_hash = 0;
    std::uint64_t dist_comps = 0;
    std::uint64_t degree_hash = 0;
    std::uint64_t save_hash = 0;
};

struct GoldenExpected {
    std::string_view kernels;
    GoldenRun values;
};

constexpr GoldenExpected kGolden[] = {
    {"avx2+fma", {0xe553229934be2b22ULL, 7656107ULL, 0xe273ce03ed481763ULL,
                  0x41b6f26bfeedac52ULL}},
    {"portable", {0xef23968ba6766affULL, 7656098ULL, 0xe273ce03ed481763ULL,
                  0x41b6f26bfeedac52ULL}},
};

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

const GoldenRun& golden_run() {
    static const GoldenRun run = [] {
        constexpr std::size_t kDim = 32;
        constexpr std::uint32_t kPopulation = 2000;
        HnswConfig config;
        config.dim = kDim;
        HnswIndex index{config};
        util::Rng rng{2024};

        std::vector<std::vector<float>> points;
        points.reserve(kPopulation);
        for (std::uint32_t i = 0; i < kPopulation; ++i) {
            points.push_back(
                random_point(rng, kDim, static_cast<double>(i % 8)));
            index.upsert(i, points.back());
        }
        for (int pass = 0; pass < 3; ++pass) {
            for (std::uint32_t i = 0; i < kPopulation; ++i) {
                for (float& x : points[i]) {
                    x += static_cast<float>(rng.normal(0.0, 0.3));
                }
                index.upsert(i, points[i]);
            }
        }

        GoldenRun out;
        out.knn_hash = kFnvBasis;
        for (std::uint32_t i = 0; i < kPopulation; ++i) {
            for (const Neighbor& nb : index.knn(points[i], 32)) {
                const auto bits = std::bit_cast<std::uint32_t>(nb.distance);
                out.knn_hash = fnv1a(out.knn_hash, &nb.label, sizeof nb.label);
                out.knn_hash = fnv1a(out.knn_hash, &bits, sizeof bits);
            }
        }
        out.dist_comps = index.distance_computations();
        out.degree_hash = kFnvBasis;
        for (std::uint32_t i = 0; i < kPopulation; ++i) {
            const auto degree = static_cast<std::uint64_t>(index.degree(i));
            out.degree_hash = fnv1a(out.degree_hash, &degree, sizeof degree);
        }
        std::ostringstream bytes;
        save_index(index, bytes);
        const std::string blob = bytes.str();
        out.save_hash = fnv1a(kFnvBasis, blob.data(), blob.size());
        return out;
    }();
    return run;
}

const GoldenRun* golden_expected() {
    const std::string_view name = tensor::simd::active_kernels().name;
    for (const GoldenExpected& entry : kGolden) {
        if (entry.kernels == name) return &entry.values;
    }
    return nullptr;
}

// Prints the measured values in the table's own format, so a new kernel
// table can be recorded by pasting this line into kGolden.
std::string golden_row() {
    const GoldenRun& run = golden_run();
    std::ostringstream os;
    os << std::hex << "{\"" << tensor::simd::active_kernels().name
       << "\", {0x" << run.knn_hash << "ULL, " << std::dec << run.dist_comps
       << "ULL, 0x" << std::hex << run.degree_hash << "ULL, 0x"
       << run.save_hash << "ULL}}";
    return os.str();
}

TEST(HnswGolden, KnnResultsMatch) {
    const GoldenRun* expected = golden_expected();
    ASSERT_NE(expected, nullptr) << "no golden row for " << golden_row();
    EXPECT_EQ(golden_run().knn_hash, expected->knn_hash) << golden_row();
}

TEST(HnswGolden, DistanceComputationsMatch) {
    const GoldenRun* expected = golden_expected();
    ASSERT_NE(expected, nullptr) << "no golden row for " << golden_row();
    EXPECT_EQ(golden_run().dist_comps, expected->dist_comps) << golden_row();
}

TEST(HnswGolden, DegreesMatch) {
    const GoldenRun* expected = golden_expected();
    ASSERT_NE(expected, nullptr) << "no golden row for " << golden_row();
    EXPECT_EQ(golden_run().degree_hash, expected->degree_hash)
        << golden_row();
}

TEST(HnswGolden, SavedBytesMatch) {
    const GoldenRun* expected = golden_expected();
    ASSERT_NE(expected, nullptr) << "no golden row for " << golden_row();
    EXPECT_EQ(golden_run().save_hash, expected->save_hash) << golden_row();
}

}  // namespace
}  // namespace spider::ann

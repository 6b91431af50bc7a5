// Property-based suites: randomized operation sequences against invariants
// that must hold for *every* implementation — eviction-cache contracts
// shared by all five basic policies, HNSW-vs-brute-force membership
// equivalence under heavy interleaved updates, Eq. 8 schedule monotonicity,
// and two-layer cache conservation laws.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>

#include "ann/bruteforce.hpp"
#include "ann/hnsw.hpp"
#include "cache/basic_policies.hpp"
#include "cache/semantic_cache.hpp"
#include "core/elastic.hpp"
#include "util/rng.hpp"

namespace spider {
namespace {

// ------------------------------------------------ eviction-cache contracts

using PolicyFactory =
    std::function<std::unique_ptr<cache::EvictionCache>(std::size_t)>;

struct PolicyCase {
    std::string name;
    PolicyFactory make;
};

class EvictionCacheContract : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(EvictionCacheContract, RandomOpsPreserveInvariants) {
    util::Rng rng{2024};
    for (const std::size_t capacity : {0UL, 1UL, 7UL, 64UL}) {
        auto policy = GetParam().make(capacity);
        std::set<std::uint32_t> shadow;  // reference membership set

        for (int op = 0; op < 3000; ++op) {
            const auto id =
                static_cast<std::uint32_t>(rng.uniform_index(200));
            const int action = static_cast<int>(rng.uniform_index(3));
            if (action == 0) {
                // touch: hit iff resident, never changes membership.
                const bool hit = policy->touch(id);
                EXPECT_EQ(hit, shadow.contains(id));
            } else if (action == 1) {
                const bool was_resident = shadow.contains(id);
                const auto evicted = policy->admit(id);
                if (evicted.has_value()) {
                    EXPECT_TRUE(shadow.erase(*evicted))
                        << "evicted non-resident " << *evicted;
                }
                if (!was_resident && policy->contains(id)) {
                    shadow.insert(id);
                }
                // Admission of a resident id never evicts.
                if (was_resident) {
                    EXPECT_FALSE(evicted.has_value());
                }
            } else {
                EXPECT_EQ(policy->contains(id), shadow.contains(id));
            }
            // Core invariants after every operation.
            ASSERT_LE(policy->size(), capacity);
            ASSERT_EQ(policy->size(), shadow.size());
        }

        // Elastic shrink: size obeys the new bound; survivors were members.
        const std::size_t new_capacity = capacity / 2;
        policy->set_capacity(new_capacity);
        EXPECT_LE(policy->size(), new_capacity);
        std::size_t survivors = 0;
        for (std::uint32_t id : shadow) {
            survivors += policy->contains(id) ? 1 : 0;
        }
        EXPECT_EQ(survivors, policy->size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, EvictionCacheContract,
    ::testing::Values(
        PolicyCase{"Lru",
                   [](std::size_t c) {
                       return std::make_unique<cache::LruCache>(c);
                   }},
        PolicyCase{"Lfu",
                   [](std::size_t c) {
                       return std::make_unique<cache::LfuCache>(c);
                   }},
        PolicyCase{"Fifo",
                   [](std::size_t c) {
                       return std::make_unique<cache::FifoCache>(c);
                   }},
        PolicyCase{"Static",
                   [](std::size_t c) {
                       return std::make_unique<cache::StaticCache>(c);
                   }},
        PolicyCase{"Random",
                   [](std::size_t c) {
                       return std::make_unique<cache::RandomCache>(
                           c, util::Rng{99});
                   }}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
        return info.param.name;
    });

// --------------------------------------- HNSW membership under heavy churn

class HnswChurnTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HnswChurnTest, MembershipMatchesReferenceAfterInterleavedUpserts) {
    const std::size_t dim = GetParam();
    ann::HnswConfig config;
    config.dim = dim;
    config.M = 8;
    config.ef_construction = 32;
    ann::HnswIndex index{config};
    ann::BruteForceIndex exact{dim};
    util::Rng rng{55};

    std::set<std::uint32_t> inserted;
    for (int op = 0; op < 800; ++op) {
        const auto label = static_cast<std::uint32_t>(rng.uniform_index(150));
        std::vector<float> point(dim);
        for (float& x : point) x = static_cast<float>(rng.normal());
        index.upsert(label, point);
        exact.upsert(label, point);
        inserted.insert(label);

        ASSERT_EQ(index.size(), inserted.size());
        ASSERT_TRUE(index.contains(label));
        // Stored vector equals the latest upsert.
        const auto stored = index.vector_of(label);
        ASSERT_TRUE(stored.has_value());
        for (std::size_t d = 0; d < dim; ++d) {
            ASSERT_FLOAT_EQ((*stored)[d], point[d]);
        }
    }

    // After the churn, every live node must remain *reachable* (self-
    // retrieval with a full-width beam — the in-degree invariant under
    // test), and narrow-beam k-NN must still overlap strongly with brute
    // force.
    double recall_sum = 0.0;
    int queries = 0;
    for (std::uint32_t label : inserted) {
        const auto point = index.vector_of(label);
        const auto reachable = index.knn(*point, 1, inserted.size());
        ASSERT_FALSE(reachable.empty());
        EXPECT_EQ(reachable.front().label, label);

        const auto found = index.knn(*point, 5, 64);
        if (queries < 30) {
            const auto truth = exact.knn(*point, 5);
            std::set<std::uint32_t> truth_set;
            for (const auto& nb : truth) truth_set.insert(nb.label);
            int overlap = 0;
            for (const auto& nb : found) {
                overlap += truth_set.contains(nb.label) ? 1 : 0;
            }
            recall_sum += overlap / 5.0;
            ++queries;
        }
    }
    EXPECT_GE(recall_sum / queries, 0.8);
}

INSTANTIATE_TEST_SUITE_P(Dims, HnswChurnTest, ::testing::Values(4, 16, 48));

// ----------------------------------------------------- Eq. 8 monotonicity

class ElasticScheduleTest : public ::testing::TestWithParam<double> {};

TEST_P(ElasticScheduleTest, RatioMonotoneNonIncreasingOnceActivated) {
    const double gamma = GetParam();
    core::ElasticConfig config;
    config.r_start = 0.9;
    config.r_end = 0.6;
    config.gamma = gamma;
    config.slope_window = 2;
    core::ElasticCacheManager manager{config};

    double previous = 1.0;
    double accuracy = 0.2;
    for (std::size_t epoch = 0; epoch < 60; ++epoch) {
        accuracy += 0.01;  // steady growth
        const double ratio = manager.on_epoch(
            1.0 / (1.0 + static_cast<double>(epoch)), accuracy, epoch, 60);
        EXPECT_LE(ratio, previous + 1e-12) << "epoch " << epoch;
        EXPECT_GE(ratio, config.r_end - 1e-12);
        EXPECT_LE(ratio, config.r_start + 1e-12);
        previous = ratio;
    }
    EXPECT_NEAR(previous, config.r_end, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Gammas, ElasticScheduleTest,
                         ::testing::Values(0.001, 0.01, 0.1));

// --------------------------------------------- two-layer conservation law

TEST(SemanticCacheProperty, SectionCapacitiesAlwaysSumToTotal) {
    util::Rng rng{31};
    cache::TwoLayerSemanticCache cache{200, 0.9};
    for (int op = 0; op < 500; ++op) {
        const double ratio = rng.uniform(0.05, 1.0);
        cache.set_imp_ratio(ratio);
        EXPECT_EQ(cache.importance_capacity() + cache.homophily_capacity(),
                  cache.total_capacity());
        EXPECT_LE(cache.importance_size(), cache.importance_capacity());
        EXPECT_LE(cache.homophily_size(), cache.homophily_capacity());
        // Random admissions between resizes.
        cache.on_miss_fetched(static_cast<std::uint32_t>(rng.uniform_index(1000)),
                              rng.uniform());
        std::vector<std::uint32_t> neighbors{
            static_cast<std::uint32_t>(rng.uniform_index(1000))};
        cache.update_homophily(
            static_cast<std::uint32_t>(1000 + rng.uniform_index(1000)),
            neighbors);
    }
}

TEST(SemanticCacheProperty, LookupNeverMutates) {
    cache::TwoLayerSemanticCache cache{50, 0.8};
    util::Rng rng{37};
    for (std::uint32_t i = 0; i < 40; ++i) {
        cache.on_miss_fetched(i, rng.uniform());
    }
    const std::size_t imp_before = cache.importance_size();
    const std::size_t homo_before = cache.homophily_size();
    for (int i = 0; i < 500; ++i) {
        (void)cache.lookup(static_cast<std::uint32_t>(rng.uniform_index(100)));
    }
    EXPECT_EQ(cache.importance_size(), imp_before);
    EXPECT_EQ(cache.homophily_size(), homo_before);
}

}  // namespace
}  // namespace spider

// Cache policy tests: LRU/LFU/FIFO/Static/Random eviction semantics, the
// Importance Cache's min-heap admission rule, the Homophily Cache's
// neighbor-list surrogate serving with FIFO replacement, and the two-layer
// semantic cache's Cases 1-4 from the paper's Figure 9 — reproduced with
// the exact scores of the paper's worked example.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/basic_policies.hpp"
#include "cache/homophily_cache.hpp"
#include "cache/importance_cache.hpp"
#include "cache/semantic_cache.hpp"
#include "util/rng.hpp"

namespace spider::cache {
namespace {

// ------------------------------------------------------------------- LRU

TEST(Lru, EvictsLeastRecentlyUsed) {
    LruCache cache{2};
    cache.admit(1);
    cache.admit(2);
    EXPECT_TRUE(cache.touch(1));  // 1 becomes most recent
    const auto evicted = cache.admit(3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 2U);  // 2 was least recent
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(3));
}

TEST(Lru, TouchMissReturnsFalse) {
    LruCache cache{2};
    EXPECT_FALSE(cache.touch(7));
    cache.admit(7);
    EXPECT_TRUE(cache.touch(7));
}

TEST(Lru, DuplicateAdmitIsNoop) {
    LruCache cache{2};
    cache.admit(1);
    EXPECT_EQ(cache.admit(1), std::nullopt);
    EXPECT_EQ(cache.size(), 1U);
}

TEST(Lru, ShrinkEvictsFromColdEnd) {
    LruCache cache{4};
    for (std::uint32_t i = 0; i < 4; ++i) cache.admit(i);
    cache.touch(0);  // 0 hottest
    cache.set_capacity(1);
    EXPECT_EQ(cache.size(), 1U);
    EXPECT_TRUE(cache.contains(0));
}

TEST(Lru, ZeroCapacityAdmitsNothing) {
    LruCache cache{0};
    EXPECT_EQ(cache.admit(1), std::nullopt);
    EXPECT_EQ(cache.size(), 0U);
}

// ------------------------------------------------------------------- LFU

TEST(Lfu, EvictsLeastFrequentlyUsed) {
    LfuCache cache{2};
    cache.admit(1);
    cache.admit(2);
    cache.touch(1);
    cache.touch(1);
    cache.touch(2);
    const auto evicted = cache.admit(3);  // 2 has lower frequency
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 2U);
    EXPECT_TRUE(cache.contains(1));
}

TEST(Lfu, TieBrokenByRecency) {
    LfuCache cache{2};
    cache.admit(1);
    cache.admit(2);  // both frequency 1; 1 older
    const auto evicted = cache.admit(3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 1U);
}

TEST(Lfu, SetCapacityShedsColdEntries) {
    LfuCache cache{3};
    cache.admit(1);
    cache.admit(2);
    cache.admit(3);
    cache.touch(3);
    cache.touch(3);
    cache.set_capacity(1);
    EXPECT_EQ(cache.size(), 1U);
    EXPECT_TRUE(cache.contains(3));
}

// ------------------------------------------------------------------ FIFO

TEST(Fifo, EvictsInInsertionOrderRegardlessOfTouches) {
    FifoCache cache{2};
    cache.admit(1);
    cache.admit(2);
    cache.touch(1);  // FIFO ignores recency
    const auto evicted = cache.admit(3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 1U);
}

TEST(Fifo, NameAndBasics) {
    FifoCache cache{2};
    EXPECT_EQ(cache.name(), "FIFO");
    EXPECT_FALSE(cache.touch(9));
    cache.admit(9);
    EXPECT_TRUE(cache.touch(9));
}

// --------------------------------------------------------- Static (MinIO)

TEST(StaticCache, NeverReplacesOnceFull) {
    StaticCache cache{2};
    cache.admit(1);
    cache.admit(2);
    EXPECT_EQ(cache.admit(3), std::nullopt);
    EXPECT_FALSE(cache.contains(3));
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_EQ(cache.size(), 2U);
}

TEST(StaticCache, HitRatioEqualsCapacityShareUnderFullScan) {
    // CoorDL's property: with one access per sample per epoch, hit ratio
    // converges to capacity / dataset.
    const std::size_t n = 100;
    StaticCache cache{25};
    // Epoch 0: fill.
    for (std::uint32_t i = 0; i < n; ++i) {
        if (!cache.touch(i)) cache.admit(i);
    }
    // Epoch 1: measure.
    std::size_t hits = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        hits += cache.touch(i) ? 1 : 0;
    }
    EXPECT_EQ(hits, 25U);
}

// ---------------------------------------------------------------- Random

TEST(RandomCache, EvictsSomeResidentWhenFull) {
    RandomCache cache{3, util::Rng{1}};
    cache.admit(1);
    cache.admit(2);
    cache.admit(3);
    const auto evicted = cache.admit(4);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_TRUE(*evicted == 1 || *evicted == 2 || *evicted == 3);
    EXPECT_EQ(cache.size(), 3U);
    EXPECT_TRUE(cache.contains(4));
}

TEST(RandomCache, RandomResidentDrawsFromContents) {
    RandomCache cache{4, util::Rng{2}};
    EXPECT_EQ(cache.random_resident(), std::nullopt);
    cache.admit(10);
    cache.admit(20);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 100; ++i) {
        const auto r = cache.random_resident();
        ASSERT_TRUE(r.has_value());
        seen.insert(*r);
    }
    EXPECT_EQ(seen, (std::set<std::uint32_t>{10, 20}));
}

// ------------------------------------------------------- Importance Cache

TEST(ImportanceCache, AdmitsFreelyUntilFull) {
    ImportanceCache cache{2};
    EXPECT_TRUE(cache.admit_scored(1, 0.1).admitted);
    EXPECT_TRUE(cache.admit_scored(2, 0.2).admitted);
    EXPECT_EQ(cache.size(), 2U);
    EXPECT_EQ(cache.min_score(), 0.1);
}

TEST(ImportanceCache, RejectsScoresAtOrBelowMin) {
    ImportanceCache cache{2};
    cache.admit_scored(1, 0.3);
    cache.admit_scored(2, 0.5);
    // Paper Case 2: new score 0.2 <= min 0.3 -> no update.
    const auto result = cache.admit_scored(3, 0.2);
    EXPECT_FALSE(result.admitted);
    EXPECT_FALSE(result.evicted.has_value());
    EXPECT_FALSE(cache.contains(3));
    // Equal score also rejected (strict inequality).
    EXPECT_FALSE(cache.admit_scored(4, 0.3).admitted);
}

TEST(ImportanceCache, EvictsMinWhenOutscored) {
    ImportanceCache cache{2};
    cache.admit_scored(5, 0.3);  // the paper's sample e
    cache.admit_scored(1, 0.4);
    // Paper Case 4: sample d (0.6) beats e (0.3) at the heap top.
    const auto result = cache.admit_scored(4, 0.6);
    EXPECT_TRUE(result.admitted);
    ASSERT_TRUE(result.evicted.has_value());
    EXPECT_EQ(*result.evicted, 5U);
    EXPECT_EQ(cache.min_score(), 0.4);
}

TEST(ImportanceCache, UpdateScoreRepositionsEntry) {
    ImportanceCache cache{3};
    cache.admit_scored(1, 0.1);
    cache.admit_scored(2, 0.2);
    cache.admit_scored(3, 0.3);
    cache.update_score(1, 0.9);  // 1 is no longer the min
    EXPECT_EQ(cache.min_score(), 0.2);
    EXPECT_EQ(cache.score_of(1), 0.9);
    const auto result = cache.admit_scored(4, 0.25);
    ASSERT_TRUE(result.evicted.has_value());
    EXPECT_EQ(*result.evicted, 2U);
}

TEST(ImportanceCache, UpdateScoreOnAbsentIsNoop) {
    ImportanceCache cache{2};
    cache.update_score(99, 1.0);
    EXPECT_EQ(cache.size(), 0U);
    EXPECT_EQ(cache.score_of(99), std::nullopt);
}

TEST(ImportanceCache, EraseAndShrink) {
    ImportanceCache cache{3};
    cache.admit_scored(1, 0.1);
    cache.admit_scored(2, 0.2);
    cache.admit_scored(3, 0.3);
    EXPECT_TRUE(cache.erase(2));
    EXPECT_FALSE(cache.erase(2));
    EXPECT_EQ(cache.size(), 2U);
    cache.set_capacity(1);
    // Shrinking evicts the lowest scores first.
    EXPECT_EQ(cache.size(), 1U);
    EXPECT_TRUE(cache.contains(3));
}

TEST(ImportanceCache, DuplicateAdmitRejected) {
    ImportanceCache cache{3};
    EXPECT_TRUE(cache.admit_scored(1, 0.5).admitted);
    EXPECT_FALSE(cache.admit_scored(1, 0.9).admitted);
    EXPECT_EQ(cache.score_of(1), 0.5);
}

// A NaN cannot be ordered: once the policy held one, a shrink spun
// forever on a victim it had lost. Every NaN is now refused up front, so
// the section keeps exactly the finite scores it was given.
TEST(ImportanceCache, NanScoreRejectedAndShrinkFinishes) {
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    ImportanceCache cache{64};
    std::vector<double> scores(64);
    util::Rng rng{26};
    for (std::uint32_t id = 0; id < 64; ++id) {
        scores[id] = rng.uniform();
        ASSERT_TRUE(cache.admit_scored(id, scores[id]).admitted);
    }
    for (int round = 0; round < 200; ++round) {
        for (std::uint32_t id = 0; id < 64; ++id) {
            if (id % 5 == 0) {
                EXPECT_THROW(cache.update_score(id, kNan),
                             std::invalid_argument);
            } else {
                scores[id] = rng.uniform();
                ASSERT_TRUE(cache.update_score(id, scores[id]));
            }
        }
    }
    EXPECT_THROW(cache.admit_scored(100, kNan), std::invalid_argument);
    EXPECT_FALSE(cache.contains(100));
    cache.set_capacity(8);
    ASSERT_EQ(cache.size(), 8U);
    std::vector<std::pair<double, std::uint32_t>> ranked;
    for (std::uint32_t id = 0; id < 64; ++id) ranked.emplace_back(scores[id], id);
    std::sort(ranked.rbegin(), ranked.rend());
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(cache.score_of(ranked[i].second), ranked[i].first);
    }
}

// -------------------------------------------------------- Homophily Cache
// The two-layer cache's neighbor index serves surrogates, so those checks
// run on a TwoLayerSemanticCache at the minimum ratio: a small cache's
// importance slice rounds down to zero.

/// The surrogate `lookup(id)` serves, or nullopt on anything but Case 3.
std::optional<std::uint32_t> surrogate(const TwoLayerSemanticCache& cache,
                                       std::uint32_t id) {
    const Lookup hit = cache.lookup(id);
    if (hit.kind != HitKind::kHomophily) return std::nullopt;
    return hit.served_id;
}

TEST(HomophilyCache, ServesSurrogateForNeighbors) {
    TwoLayerSemanticCache cache{4, TwoLayerSemanticCache::kMinImpRatio};
    ASSERT_EQ(cache.homophily_capacity(), 4U);
    const std::vector<std::uint32_t> neighbors = {10, 11, 12};
    cache.update_homophily(1, neighbors);
    EXPECT_EQ(surrogate(cache, 1), 1U);  // the key serves itself
    EXPECT_EQ(surrogate(cache, 11), 1U);
    EXPECT_EQ(surrogate(cache, 99), std::nullopt);
}

TEST(HomophilyCache, FifoEvictionRemovesNeighborMappings) {
    TwoLayerSemanticCache cache{2, TwoLayerSemanticCache::kMinImpRatio};
    ASSERT_EQ(cache.homophily_capacity(), 2U);
    cache.update_homophily(1, std::vector<std::uint32_t>{10});
    cache.update_homophily(2, std::vector<std::uint32_t>{20});
    const auto evicted =
        cache.update_homophily(3, std::vector<std::uint32_t>{30});
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 1U);  // oldest out first
    EXPECT_EQ(cache.lookup(1).kind, HitKind::kMiss);
    EXPECT_EQ(surrogate(cache, 10), std::nullopt);
    EXPECT_EQ(surrogate(cache, 20), 2U);
}

TEST(HomophilyCache, ResidentKeyNotReinserted) {
    // Paper: "the highest-degree node ..., which was not previously in the
    // Homophily Cache, is selected".
    TwoLayerSemanticCache cache{2, TwoLayerSemanticCache::kMinImpRatio};
    cache.update_homophily(1, std::vector<std::uint32_t>{10});
    EXPECT_EQ(cache.update_homophily(1, std::vector<std::uint32_t>{20}),
              std::nullopt);
    EXPECT_EQ(cache.homophily_size(), 1U);
    // Original neighbor list kept.
    EXPECT_EQ(surrogate(cache, 10), 1U);
    EXPECT_EQ(surrogate(cache, 20), std::nullopt);
}

TEST(HomophilyCache, OverlappingNeighborListsPreferNewest) {
    TwoLayerSemanticCache cache{4, TwoLayerSemanticCache::kMinImpRatio};
    cache.update_homophily(1, std::vector<std::uint32_t>{10, 11});
    cache.update_homophily(2, std::vector<std::uint32_t>{11, 12});
    EXPECT_EQ(surrogate(cache, 11), 2U);  // freshest embedding wins
    EXPECT_EQ(surrogate(cache, 10), 1U);
}

TEST(HomophilyCache, NeighborsOfExposesList) {
    HomophilyCache cache{2};
    const std::vector<std::uint32_t> neighbors = {5, 6};
    cache.update(9, neighbors);
    const auto stored = cache.neighbors_of(9);
    ASSERT_EQ(stored.size(), 2U);
    EXPECT_EQ(stored[0], 5U);
    EXPECT_TRUE(cache.neighbors_of(1234).empty());
}

TEST(HomophilyCache, ShrinkEvictsOldestFirst) {
    HomophilyCache cache{3};
    cache.update(1, std::vector<std::uint32_t>{10});
    cache.update(2, std::vector<std::uint32_t>{20});
    cache.update(3, std::vector<std::uint32_t>{30});
    cache.set_capacity(1);
    EXPECT_EQ(cache.size(), 1U);
    EXPECT_TRUE(cache.contains_key(3));
    // An elastic shrink of the two-layer cache's homophily slice (3 -> 1)
    // also retracts the evicted keys' surrogates.
    TwoLayerSemanticCache two_layer{100, 0.97};
    ASSERT_EQ(two_layer.homophily_capacity(), 3U);
    two_layer.update_homophily(1, std::vector<std::uint32_t>{10});
    two_layer.update_homophily(2, std::vector<std::uint32_t>{20});
    two_layer.update_homophily(3, std::vector<std::uint32_t>{30});
    two_layer.set_imp_ratio(0.99);
    EXPECT_EQ(surrogate(two_layer, 10), std::nullopt);
    EXPECT_EQ(surrogate(two_layer, 30), 3U);
}

TEST(HomophilyCache, ZeroCapacityIsInert) {
    HomophilyCache cache{0};
    EXPECT_EQ(cache.update(1, std::vector<std::uint32_t>{10}), std::nullopt);
    EXPECT_EQ(cache.size(), 0U);
}

// -------------------------------------------------- Two-layer (Figure 9)

class SemanticCacheFigure9 : public ::testing::Test {
protected:
    // Reproduce the paper's worked example: Importance Cache holds
    // a (0.4) and e (0.3, the min-heap top); Homophily Cache holds node h
    // whose neighbor list contains c.
    SemanticCacheFigure9() : cache_{10, 0.5} {
        cache_.on_miss_fetched(kA, 0.4);
        cache_.on_miss_fetched(kE, 0.3);
        // Fill to capacity so admission requires beating the min.
        cache_.on_miss_fetched(90, 0.9);
        cache_.on_miss_fetched(91, 0.8);
        cache_.on_miss_fetched(92, 0.7);
        cache_.update_homophily(kH, std::vector<std::uint32_t>{kC});
    }

    static constexpr std::uint32_t kA = 1, kB = 2, kC = 3, kD = 4, kE = 5,
                                   kH = 8;
    TwoLayerSemanticCache cache_;
};

TEST_F(SemanticCacheFigure9, Case1ImportanceHitServedDirectly) {
    const Lookup lookup = cache_.lookup(kA);
    EXPECT_EQ(lookup.kind, HitKind::kImportance);
    EXPECT_EQ(lookup.served_id, kA);
}

TEST_F(SemanticCacheFigure9, Case2LowScoreMissDoesNotUpdate) {
    const Lookup lookup = cache_.lookup(kB);
    EXPECT_EQ(lookup.kind, HitKind::kMiss);
    // b's score 0.2 does not beat e's 0.3 at the heap top.
    const auto result = cache_.on_miss_fetched(kB, 0.2);
    EXPECT_FALSE(result.admitted);
    EXPECT_EQ(cache_.lookup(kE).kind, HitKind::kImportance);
    EXPECT_EQ(cache_.lookup(kB).kind, HitKind::kMiss);
}

TEST_F(SemanticCacheFigure9, Case3HomophilyNeighborServedSurrogate) {
    const Lookup lookup = cache_.lookup(kC);
    EXPECT_EQ(lookup.kind, HitKind::kHomophily);
    EXPECT_EQ(lookup.served_id, kH);  // h fetched as replacement
}

TEST_F(SemanticCacheFigure9, Case4HighScoreMissEvictsMin) {
    const Lookup lookup = cache_.lookup(kD);
    EXPECT_EQ(lookup.kind, HitKind::kMiss);
    const auto result = cache_.on_miss_fetched(kD, 0.6);
    EXPECT_TRUE(result.admitted);
    ASSERT_TRUE(result.evicted.has_value());
    EXPECT_EQ(*result.evicted, kE);  // e (0.3) evicted, d inserted
    EXPECT_EQ(cache_.lookup(kD).kind, HitKind::kImportance);
}

TEST_F(SemanticCacheFigure9, ResidentHomophilyKeyIsItsOwnSurrogate) {
    const Lookup lookup = cache_.lookup(kH);
    EXPECT_EQ(lookup.kind, HitKind::kHomophily);
    EXPECT_EQ(lookup.served_id, kH);
}

TEST(SemanticCache, SectionsSizedByImpRatio) {
    TwoLayerSemanticCache cache{100, 0.9};
    EXPECT_EQ(cache.importance_capacity(), 90U);
    EXPECT_EQ(cache.homophily_capacity(), 10U);
    cache.set_imp_ratio(0.5);
    EXPECT_EQ(cache.importance_capacity(), 50U);
    EXPECT_EQ(cache.homophily_capacity(), 50U);
    EXPECT_DOUBLE_EQ(cache.imp_ratio(), 0.5);
}

TEST(SemanticCache, ShrinkingImportanceSectionEvictsLowScores) {
    TwoLayerSemanticCache cache{10, 1.0};
    for (std::uint32_t i = 0; i < 10; ++i) {
        cache.on_miss_fetched(i, 0.1 * (i + 1));
    }
    cache.set_imp_ratio(0.5);
    EXPECT_EQ(cache.importance_size(), 5U);
    // Top scores survive, low scores are evicted.
    EXPECT_EQ(cache.lookup(9).kind, HitKind::kImportance);
    EXPECT_EQ(cache.lookup(0).kind, HitKind::kMiss);
}

// Section exclusivity (paper §4.2: "no data exchange" between sections) —
// an id resident in one section must never be admitted to the other, in
// either order.
TEST(SemanticCache, HomophilyKeyNotAdmittedToImportance) {
    TwoLayerSemanticCache cache{10, 0.5};
    const std::uint32_t nb[] = {100, 101};
    cache.update_homophily(7, nb);
    ASSERT_EQ(cache.lookup(7).kind, HitKind::kHomophily);
    // A very high score would win admission — exclusivity must veto it.
    const auto result = cache.on_miss_fetched(7, 0.99);
    EXPECT_FALSE(result.admitted);
    EXPECT_FALSE(result.evicted.has_value());
    EXPECT_EQ(cache.lookup(7).kind, HitKind::kHomophily);
    EXPECT_EQ(cache.importance_size() + cache.homophily_size(), 1U);
}

TEST(SemanticCache, ImportanceResidentNotInsertedAsHomophilyKey) {
    TwoLayerSemanticCache cache{10, 0.5};
    cache.on_miss_fetched(7, 0.9);
    ASSERT_EQ(cache.lookup(7).kind, HitKind::kImportance);
    const std::uint32_t nb[] = {100, 101};
    EXPECT_EQ(cache.update_homophily(7, nb), std::nullopt);
    EXPECT_EQ(cache.homophily_size(), 0U);
    EXPECT_EQ(cache.lookup(7).kind, HitKind::kImportance);
    // Its would-be neighbors gained no surrogate either.
    EXPECT_EQ(cache.lookup(100).kind, HitKind::kMiss);
    EXPECT_EQ(cache.importance_size() + cache.homophily_size(), 1U);
}

TEST(SemanticCache, ExclusivityHoldsWhenSharded) {
    TwoLayerSemanticCache cache{32, 0.5, 4};
    const std::uint32_t nb[] = {100};
    cache.update_homophily(7, nb);
    EXPECT_FALSE(cache.on_miss_fetched(7, 0.99).admitted);
    cache.on_miss_fetched(9, 0.9);
    EXPECT_EQ(cache.update_homophily(9, nb), std::nullopt);
    EXPECT_EQ(cache.homophily_size(), 1U);  // still only key 7
    EXPECT_EQ(cache.lookup(9).kind, HitKind::kImportance);
}

TEST(SemanticCache, RejectsBadRatio) {
    EXPECT_THROW((TwoLayerSemanticCache{10, 0.0}), std::invalid_argument);
    EXPECT_THROW((TwoLayerSemanticCache{10, 1.5}), std::invalid_argument);
    EXPECT_THROW(
        (TwoLayerSemanticCache{10, std::numeric_limits<double>::quiet_NaN()}),
        std::invalid_argument);
}

TEST(SemanticCache, RatioClampedOnUpdate) {
    TwoLayerSemanticCache cache{10, 0.9};
    cache.set_imp_ratio(-5.0);  // clamped to a small positive floor
    EXPECT_GT(cache.imp_ratio(), 0.0);
    cache.set_imp_ratio(2.0);
    EXPECT_LE(cache.imp_ratio(), 1.0);
}

TEST(SemanticCache, NanRatioRejectedOnUpdate) {
    TwoLayerSemanticCache cache{10, 0.5};
    EXPECT_THROW(cache.set_imp_ratio(std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_EQ(cache.imp_ratio(), 0.5);
}

}  // namespace
}  // namespace spider::cache

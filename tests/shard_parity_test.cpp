// Shard-parity suite for the TwoLayerSemanticCache (DESIGN.md §8).
//
// Part 1 — legacy parity: a `shards = 1` cache must reproduce the original
// unsharded implementation *exactly* — same Lookup kinds and served ids,
// same AdmitResults (admitted flag and evicted victim), same homophily
// evictions, same section sizes — over a long randomized op sequence that
// interleaves lookups, miss admissions, homophily updates, and elastic
// repartitions. The reference model below is a line-for-line transcription
// of the pre-sharding TwoLayerSemanticCache built from the same section
// primitives, plus the section-exclusivity rule (paper §4.2: an id resident
// in one section is never admitted to the other) that both models enforce.
//
// Part 2 — sharded invariants: for S > 1 the per-op interleaving is
// intentionally different (per-shard admission minima), so the contract is
// structural instead: capacity is partitioned exactly, each shard respects
// its own slices, Case 2/4 admission compares against the *shard* minimum,
// and cross-shard surrogate lookups resolve through the external
// neighbor index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "cache/homophily_cache.hpp"
#include "cache/importance_cache.hpp"
#include "cache/semantic_cache.hpp"
#include "util/rng.hpp"

namespace spider::cache {
namespace {

// ------------------------------------------------------------------------
// Reference model: the pre-sharding TwoLayerSemanticCache, verbatim.

class LegacyTwoLayer {
public:
    LegacyTwoLayer(std::size_t total_capacity, double imp_ratio)
        : total_capacity_{total_capacity},
          importance_{imp_items(imp_ratio)},
          homophily_{total_capacity - imp_items(imp_ratio)} {}

    [[nodiscard]] Lookup lookup(std::uint32_t id) const {
        if (importance_.contains(id)) return {HitKind::kImportance, id};
        if (homophily_.contains_key(id)) return {HitKind::kHomophily, id};
        if (const auto surrogate = homophily_.surrogate_for(id)) {
            return {HitKind::kHomophily, *surrogate};
        }
        return {HitKind::kMiss, id};
    }

    ImportanceCache::AdmitResult on_miss_fetched(std::uint32_t id,
                                                 double score) {
        if (homophily_.contains_key(id)) return {};  // section exclusivity
        return importance_.admit_scored(id, score);
    }

    std::optional<std::uint32_t> update_homophily(
        std::uint32_t key, std::span<const std::uint32_t> neighbors) {
        if (importance_.contains(key)) return std::nullopt;  // exclusivity
        return homophily_.update(key, neighbors);
    }

    void set_imp_ratio(double imp_ratio) {
        imp_ratio = std::clamp(imp_ratio, 0.01, 1.0);
        const std::size_t imp = imp_items(imp_ratio);
        importance_.set_capacity(imp);
        homophily_.set_capacity(total_capacity_ - imp);
    }

    [[nodiscard]] std::size_t importance_size() const {
        return importance_.size();
    }
    [[nodiscard]] std::size_t homophily_size() const {
        return homophily_.size();
    }

private:
    [[nodiscard]] std::size_t imp_items(double ratio) const {
        const auto items = static_cast<std::size_t>(std::llround(
            static_cast<double>(total_capacity_) * ratio));
        return std::min(items, total_capacity_);
    }

    std::size_t total_capacity_;
    ImportanceCache importance_;
    HomophilyCache homophily_;
};

// ------------------------------------------------------------------------
// Part 1: shards = 1 vs legacy, op-for-op.

TEST(ShardParity, SingleShardMatchesLegacyTraceExactly) {
    constexpr std::size_t kCapacity = 64;
    constexpr double kRatio = 0.7;
    constexpr std::uint32_t kIdSpace = 500;
    constexpr int kOps = 20000;

    LegacyTwoLayer legacy{kCapacity, kRatio};
    TwoLayerSemanticCache sharded{kCapacity, kRatio, /*shards=*/1};
    ASSERT_EQ(sharded.num_shards(), 1U);

    util::Rng rng{0xBEEFULL};
    const double ratios[] = {0.3, 0.5, 0.7, 0.9};
    for (int op = 0; op < kOps; ++op) {
        const auto id =
            static_cast<std::uint32_t>(rng.uniform_index(kIdSpace));
        const double roll = rng.uniform();
        if (roll < 0.55) {
            const Lookup a = legacy.lookup(id);
            const Lookup b = sharded.lookup(id);
            ASSERT_EQ(a.kind, b.kind) << "op " << op << " id " << id;
            ASSERT_EQ(a.served_id, b.served_id) << "op " << op;
        } else if (roll < 0.85) {
            const double score = rng.uniform();
            const auto a = legacy.on_miss_fetched(id, score);
            const auto b = sharded.on_miss_fetched(id, score);
            ASSERT_EQ(a.admitted, b.admitted) << "op " << op << " id " << id;
            ASSERT_EQ(a.evicted, b.evicted) << "op " << op;
        } else if (roll < 0.98) {
            std::vector<std::uint32_t> neighbors;
            const int fanout = static_cast<int>(1 + rng.uniform_index(6));
            for (int k = 0; k < fanout; ++k) {
                neighbors.push_back(static_cast<std::uint32_t>(
                    rng.uniform_index(kIdSpace)));
            }
            const auto a = legacy.update_homophily(id, neighbors);
            const auto b = sharded.update_homophily(id, neighbors);
            ASSERT_EQ(a, b) << "op " << op << " key " << id;
        } else {
            const double ratio = ratios[rng.uniform_index(4)];
            legacy.set_imp_ratio(ratio);
            sharded.set_imp_ratio(ratio);
        }
        ASSERT_EQ(legacy.importance_size(), sharded.importance_size())
            << "op " << op;
        ASSERT_EQ(legacy.homophily_size(), sharded.homophily_size())
            << "op " << op;
    }
}

// ------------------------------------------------------------------------
// Seqlock parity (DESIGN.md §8.4): with lock-free reads on, lookup/probe
// must return the exact Case 1/3/miss sequence the locked path produces.
// Single-threaded, so the residency view is always quiescent — any
// divergence is a writer that failed to publish a mutation to the view.

class SeqlockParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SeqlockParity, LocklessLookupMatchesLockedTraceExactly) {
    const std::size_t shards = GetParam();
    constexpr std::size_t kCapacity = 64;
    constexpr double kRatio = 0.7;
    constexpr std::uint32_t kIdSpace = 500;
    constexpr int kOps = 20000;

    TwoLayerSemanticCache lockfree{kCapacity, kRatio, shards,
                                   /*lockfree_reads=*/true};
    TwoLayerSemanticCache locked{kCapacity, kRatio, shards,
                                 /*lockfree_reads=*/false};
    ASSERT_TRUE(lockfree.lockfree_reads());
    ASSERT_FALSE(locked.lockfree_reads());

    util::Rng rng{0xBEEFULL};
    const double ratios[] = {0.3, 0.5, 0.7, 0.9};
    for (int op = 0; op < kOps; ++op) {
        const auto id =
            static_cast<std::uint32_t>(rng.uniform_index(kIdSpace));
        const double roll = rng.uniform();
        if (roll < 0.55) {
            const Lookup a = locked.lookup(id);
            const Lookup b = lockfree.lookup(id);
            ASSERT_EQ(a.kind, b.kind) << "op " << op << " id " << id;
            ASSERT_EQ(a.served_id, b.served_id) << "op " << op;
            ASSERT_EQ(locked.probe(id), lockfree.probe(id)) << "op " << op;
        } else if (roll < 0.85) {
            const double score = rng.uniform();
            const auto a = locked.on_miss_fetched(id, score);
            const auto b = lockfree.on_miss_fetched(id, score);
            ASSERT_EQ(a.admitted, b.admitted) << "op " << op << " id " << id;
            ASSERT_EQ(a.evicted, b.evicted) << "op " << op;
        } else if (roll < 0.93) {
            std::vector<std::uint32_t> neighbors;
            const int fanout = static_cast<int>(1 + rng.uniform_index(6));
            for (int k = 0; k < fanout; ++k) {
                neighbors.push_back(static_cast<std::uint32_t>(
                    rng.uniform_index(kIdSpace)));
            }
            const auto a = locked.update_homophily(id, neighbors);
            const auto b = lockfree.update_homophily(id, neighbors);
            ASSERT_EQ(a, b) << "op " << op << " key " << id;
        } else if (roll < 0.98) {
            // Score churn: exercises the wait-free no-op pre-check.
            const double score = rng.uniform();
            locked.update_importance_score(id, score);
            lockfree.update_importance_score(id, score);
        } else {
            const double ratio = ratios[rng.uniform_index(4)];
            locked.set_imp_ratio(ratio);
            lockfree.set_imp_ratio(ratio);
        }
        ASSERT_EQ(locked.importance_size(), lockfree.importance_size())
            << "op " << op;
        ASSERT_EQ(locked.homophily_size(), lockfree.homophily_size())
            << "op " << op;
    }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, SeqlockParity,
                         ::testing::Values(1, 4));

TEST(ShardParity, SingleShardLegacyAccessorsStillWork) {
    TwoLayerSemanticCache cache{10, 0.5};
    cache.importance().admit_scored(1, 0.9);
    EXPECT_TRUE(cache.importance().contains(1));
    EXPECT_EQ(cache.lookup(1).kind, HitKind::kImportance);
}

// ------------------------------------------------------------------------
// Part 2: sharded structural invariants.

class ShardedInvariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedInvariants, CapacityIsPartitionedExactly) {
    const std::size_t shards = GetParam();
    constexpr std::size_t kCapacity = 103;  // prime: exercises remainders
    TwoLayerSemanticCache cache{kCapacity, 0.6, shards};
    ASSERT_EQ(cache.num_shards(), shards);

    std::size_t total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t cap = cache.shard_capacity(s);
        EXPECT_EQ(cache.shard_importance_capacity(s) +
                      cache.shard_homophily_capacity(s),
                  cap)
            << "shard " << s;
        total += cap;
    }
    EXPECT_EQ(total, kCapacity);
    EXPECT_EQ(cache.importance_capacity() + cache.homophily_capacity(),
              kCapacity);
}

TEST_P(ShardedInvariants, SizesNeverExceedPerShardSlices) {
    const std::size_t shards = GetParam();
    TwoLayerSemanticCache cache{96, 0.5, shards};
    util::Rng rng{7ULL};
    for (int op = 0; op < 5000; ++op) {
        const auto id = static_cast<std::uint32_t>(rng.uniform_index(800));
        cache.on_miss_fetched(id, rng.uniform());
        if (op % 7 == 0) {
            const std::uint32_t nb[] = {id ^ 0x55U, id + 13};
            cache.update_homophily(id, nb);
        }
        if (op % 911 == 0) cache.set_imp_ratio(op % 2 == 0 ? 0.3 : 0.8);
    }
    for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_LE(cache.shard_importance_size(s),
                  cache.shard_importance_capacity(s))
            << "shard " << s;
        EXPECT_LE(cache.shard_homophily_size(s),
                  cache.shard_homophily_capacity(s))
            << "shard " << s;
    }
}

TEST_P(ShardedInvariants, AdmissionComparesAgainstShardMinimum) {
    const std::size_t shards = GetParam();
    // Large capacity so every shard's importance slice is non-trivial.
    TwoLayerSemanticCache cache{shards * 8, 1.0, shards};

    // Fill every shard to capacity with mid-range scores.
    for (std::uint32_t id = 0; id < 100000 &&
                               cache.importance_size() <
                                   cache.importance_capacity();
         ++id) {
        cache.on_miss_fetched(id, 0.5);
    }
    ASSERT_EQ(cache.importance_size(), cache.importance_capacity());

    for (std::size_t s = 0; s < shards; ++s) {
        const auto min = cache.shard_min_score(s);
        ASSERT_TRUE(min.has_value()) << "shard " << s;
        // Find a fresh id hashing to this shard.
        std::uint32_t probe = 200000;
        while (cache.shard_of(probe) != s ||
               cache.lookup(probe).kind != HitKind::kMiss) {
            ++probe;
        }
        // Case 2: at-or-below the shard minimum — rejected.
        const auto reject = cache.on_miss_fetched(probe, *min - 0.1);
        EXPECT_FALSE(reject.admitted) << "shard " << s;
        // Case 4: above the shard minimum — admitted, shard stays full.
        const auto admit = cache.on_miss_fetched(probe, *min + 0.1);
        EXPECT_TRUE(admit.admitted) << "shard " << s;
        ASSERT_TRUE(admit.evicted.has_value()) << "shard " << s;
        EXPECT_EQ(cache.shard_of(*admit.evicted), s)
            << "victim must come from the same shard";
        EXPECT_EQ(cache.shard_importance_size(s),
                  cache.shard_importance_capacity(s));
    }
}

TEST_P(ShardedInvariants, SurrogateLookupCrossesShardBoundaries) {
    const std::size_t shards = GetParam();
    if (shards < 2) GTEST_SKIP() << "needs at least two shards";
    TwoLayerSemanticCache cache{64, 0.2, shards};

    // Pick a key and a neighbor guaranteed to live on different shards.
    const std::uint32_t key = 1;
    std::uint32_t neighbor = 2;
    while (cache.shard_of(neighbor) == cache.shard_of(key)) ++neighbor;

    const std::uint32_t nb[] = {neighbor};
    cache.update_homophily(key, nb);
    ASSERT_EQ(cache.homophily_size(), 1U);

    // The high-degree key serves itself...
    EXPECT_EQ(cache.lookup(key).kind, HitKind::kHomophily);
    EXPECT_EQ(cache.lookup(key).served_id, key);
    // ...and its neighbor on the *other* shard resolves to it (Case 3).
    const Lookup via = cache.lookup(neighbor);
    EXPECT_EQ(via.kind, HitKind::kHomophily);
    EXPECT_EQ(via.served_id, key);
}

TEST_P(ShardedInvariants, EvictedHomophilyKeyStopsServingSurrogates) {
    const std::size_t shards = GetParam();
    if (shards < 2) GTEST_SKIP() << "needs at least two shards";
    // Tiny homophily slices force FIFO evictions fast.
    TwoLayerSemanticCache cache{2 * shards, 0.5, shards};

    util::Rng rng{11ULL};
    std::vector<std::pair<std::uint32_t, std::uint32_t>> inserted;
    for (std::uint32_t key = 0; key < 64; ++key) {
        const std::uint32_t neighbor = 1000 + key;
        const std::uint32_t nb[] = {neighbor};
        cache.update_homophily(key, nb);
        inserted.emplace_back(key, neighbor);
    }
    // Every surrogate the cache still serves must name a *resident* key.
    for (const auto& [key, neighbor] : inserted) {
        const Lookup via = cache.lookup(neighbor);
        if (via.kind == HitKind::kMiss) continue;
        EXPECT_EQ(via.kind, HitKind::kHomophily);
        const Lookup direct = cache.lookup(via.served_id);
        EXPECT_EQ(direct.kind, HitKind::kHomophily)
            << "surrogate " << via.served_id << " is not resident";
        EXPECT_EQ(direct.served_id, via.served_id);
    }
}

TEST_P(ShardedInvariants, ElasticRepartitionPreservesTotalCapacity) {
    const std::size_t shards = GetParam();
    TwoLayerSemanticCache cache{80, 0.7, shards};
    util::Rng rng{3ULL};
    for (int i = 0; i < 2000; ++i) {
        cache.on_miss_fetched(static_cast<std::uint32_t>(i % 640),
                              rng.uniform());
    }
    for (const double ratio : {0.1, 0.9, 0.33, 1.0, 0.5}) {
        cache.set_imp_ratio(ratio);
        EXPECT_EQ(cache.importance_capacity() + cache.homophily_capacity(),
                  cache.total_capacity());
        EXPECT_LE(cache.importance_size(), cache.importance_capacity());
        EXPECT_LE(cache.homophily_size(), cache.homophily_capacity());
    }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedInvariants,
                         ::testing::Values(2, 4, 7, 16));

TEST(ShardParity, ShardedAccessorsThrowOnDirectSectionAccess) {
    TwoLayerSemanticCache cache{32, 0.5, 4};
    EXPECT_THROW((void)cache.importance(), std::logic_error);
    EXPECT_THROW((void)cache.homophily(), std::logic_error);
}

TEST(ShardParity, AutoShardsIsBoundedAndPositive) {
    const std::size_t s = TwoLayerSemanticCache::auto_shards();
    EXPECT_GE(s, 1U);
    EXPECT_LE(s, 16U);
    TwoLayerSemanticCache cache{64, 0.5, TwoLayerSemanticCache::kAutoShards};
    EXPECT_EQ(cache.num_shards(), s);

    // Capacities below the core count never yield a zero-capacity shard:
    // the shard count is capped at the item count (and is at least 1).
    for (const std::size_t capacity : {0U, 1U, 2U, 3U}) {
        TwoLayerSemanticCache small{capacity, 0.5,
                                    TwoLayerSemanticCache::kAutoShards};
        EXPECT_EQ(small.num_shards(),
                  std::min(s, std::max<std::size_t>(capacity, 1)))
            << "capacity " << capacity;
        if (capacity == 0) continue;
        for (std::size_t shard = 0; shard < small.num_shards(); ++shard) {
            EXPECT_GE(small.shard_importance_capacity(shard) +
                          small.shard_homophily_capacity(shard),
                      1U)
                << "capacity " << capacity << " shard " << shard;
        }
    }
}

}  // namespace
}  // namespace spider::cache

// Shard-parity suite for the TwoLayerSemanticCache (DESIGN.md §8).
//
// Part 1 — legacy parity: a `shards = 1` cache must reproduce the original
// unsharded implementation *exactly* — same Lookup kinds and served ids,
// same AdmitResults (admitted flag and evicted victim), same homophily
// evictions, same section sizes — over a long randomized op sequence that
// interleaves lookups, miss admissions, homophily updates, and elastic
// repartitions. The reference model below is the pre-sharding
// TwoLayerSemanticCache built from the same section primitives and its own
// neighbor index, plus the section-exclusivity rule (paper §4.2: an id
// resident in one section is never admitted to the other) that both models
// enforce.
//
// Part 2 — golden decision traces (CacheGolden.*), pinned in tests/golden/.
//
// Part 3 — sharded invariants, at every shard count including 1: for
// S > 1 the per-op interleaving is intentionally different (per-shard
// admission minima), so the contract is structural instead: capacity is
// partitioned exactly, each shard respects its own slices, Case 2/4
// admission compares against the *shard* minimum, and surrogate lookups
// resolve through the neighbor index even across shard boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/homophily_cache.hpp"
#include "cache/importance_cache.hpp"
#include "cache/semantic_cache.hpp"
#include "golden_rows.hpp"
#include "util/rng.hpp"
#include "view_oracle.hpp"

namespace spider::cache {
namespace {

using golden::expect_golden;
using golden::expect_same_rows;
using golden::row_of;

// ------------------------------------------------------------------------
// Reference model: the pre-sharding TwoLayerSemanticCache — one Importance
// section, one Homophily section, and one neighbor index (neighbor id ->
// resident keys listing it, newest last) kept beside them.

class LegacyTwoLayer {
public:
    LegacyTwoLayer(std::size_t total_capacity, double imp_ratio)
        : total_capacity_{total_capacity},
          importance_{imp_items(imp_ratio)},
          homophily_{total_capacity - imp_items(imp_ratio)} {}

    [[nodiscard]] Lookup lookup(std::uint32_t id) const {
        if (importance_.contains(id)) return {HitKind::kImportance, id};
        if (homophily_.contains_key(id)) return {HitKind::kHomophily, id};
        const auto it = neighbor_index_.find(id);
        if (it != neighbor_index_.end()) {
            return {HitKind::kHomophily, it->second.back()};
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
        if (homophily_.contains_key(key) || homophily_.capacity() == 0) {
            return std::nullopt;
        }
        std::optional<std::uint32_t> evicted;
        if (homophily_.size() >= homophily_.capacity()) {
            evicted = evict_oldest();
        }
        homophily_.update(key, neighbors);
        for (std::uint32_t neighbor : neighbors) {
            neighbor_index_[neighbor].push_back(key);
        }
        return evicted;
    }

    void set_imp_ratio(double imp_ratio) {
        imp_ratio = std::clamp(imp_ratio, 0.01, 1.0);
        const std::size_t imp = imp_items(imp_ratio);
        importance_.set_capacity(imp);
        const std::size_t hom = total_capacity_ - imp;
        while (homophily_.size() > hom) evict_oldest();
        homophily_.set_capacity(hom);
    }

    [[nodiscard]] bool probe(std::uint32_t id) const {
        return lookup(id).kind != HitKind::kMiss;
    }

    void update_importance_score(std::uint32_t id, double score) {
        importance_.update_score(id, score);
    }

    [[nodiscard]] std::size_t importance_size() const {
        return importance_.size();
    }
    [[nodiscard]] std::size_t homophily_size() const {
        return homophily_.size();
    }

private:
    /// Evicts the homophily victim and drops it from the neighbor index.
    std::uint32_t evict_oldest() {
        const auto [victim, neighbors] = *homophily_.evict_oldest();
        for (std::uint32_t neighbor : neighbors) {
            auto& keys = neighbor_index_[neighbor];
            keys.erase(std::remove(keys.begin(), keys.end(), victim),
                       keys.end());
            if (keys.empty()) neighbor_index_.erase(neighbor);
        }
        return victim;
    }

    [[nodiscard]] std::size_t imp_items(double ratio) const {
        const auto items = static_cast<std::size_t>(std::llround(
            static_cast<double>(total_capacity_) * ratio));
        return std::min(items, total_capacity_);
    }

    std::size_t total_capacity_;
    ImportanceCache importance_;
    HomophilyCache homophily_;
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>
        neighbor_index_;
};

// ------------------------------------------------------------------------
// Op-mix replay, shared by every trace test below. The seeded mix (seed
// 0xBEEF, capacity 64, ratio 0.7, id space 500, 20k ops) interleaves
// lookups with probes, miss admissions, homophily updates, score updates
// and ratio changes. Row i renders op i: its outcome plus both section
// sizes. The inputs are regenerated from the seed, so rows carry none.
// With `tied_scores`, every score is one of eight values (k / 8), so
// equal scores meet at the semantic gate and in victim order.
//
// Row formats (sizes = importance_size homophily_size):
//   L <I|H|M> <served_id> <probe> <sizes>    lookup + probe
//   A <admitted> <evicted|-> <sizes>         miss admission
//   U <victim|-> <sizes>                     homophily update
//   S <sizes>                                score update
//   R <sizes>                                ratio change

constexpr std::size_t kTraceCapacity = 64;
constexpr double kTraceRatio = 0.7;
constexpr int kTraceOps = 20000;

std::string id_or_dash(const std::optional<std::uint32_t>& id) {
    return id.has_value() ? std::to_string(*id) : "-";
}

/// Replays the op mix against `cache`, one row per op. Without
/// `score_updates` the score-update band goes to homophily updates.
template <typename Cache>
std::vector<std::string> replay_ops(Cache& cache, bool score_updates,
                                    bool tied_scores = false) {
    constexpr std::uint32_t kIdSpace = 500;
    const double homophily_until = score_updates ? 0.93 : 0.98;
    std::vector<std::string> rows;
    util::Rng rng{0xBEEFULL};
    const auto score = [&rng, tied_scores] {
        return tied_scores
                   ? static_cast<double>(rng.uniform_index(8)) / 8.0
                   : rng.uniform();
    };
    const double ratios[] = {0.3, 0.5, 0.7, 0.9};
    for (int op = 0; op < kTraceOps; ++op) {
        const auto id =
            static_cast<std::uint32_t>(rng.uniform_index(kIdSpace));
        const double roll = rng.uniform();
        std::string row;
        if (roll < 0.55) {
            const Lookup hit = cache.lookup(id);
            row = row_of("L %c %u %d", "IHM"[static_cast<int>(hit.kind)],
                         hit.served_id, cache.probe(id) ? 1 : 0);
        } else if (roll < 0.85) {
            const auto result = cache.on_miss_fetched(id, score());
            row = row_of("A %d ", result.admitted ? 1 : 0) +
                  id_or_dash(result.evicted);
        } else if (roll < homophily_until) {
            std::vector<std::uint32_t> neighbors;
            const int fanout = static_cast<int>(1 + rng.uniform_index(6));
            for (int k = 0; k < fanout; ++k) {
                neighbors.push_back(static_cast<std::uint32_t>(
                    rng.uniform_index(kIdSpace)));
            }
            row = "U " + id_or_dash(cache.update_homophily(id, neighbors));
        } else if (roll < 0.98) {
            cache.update_importance_score(id, score());
            row = "S";
        } else {
            cache.set_imp_ratio(ratios[rng.uniform_index(4)]);
            row = "R";
        }
        rows.push_back(row + row_of(" %zu %zu", cache.importance_size(),
                                    cache.homophily_size()));
    }
    return rows;
}

// ------------------------------------------------------------------------
// Part 1: shards = 1 vs legacy, op-for-op.

TEST(ShardParity, SingleShardMatchesLegacyTraceExactly) {
    LegacyTwoLayer legacy{kTraceCapacity, kTraceRatio};
    TwoLayerSemanticCache sharded{kTraceCapacity, kTraceRatio, /*shards=*/1};
    ASSERT_EQ(sharded.num_shards(), 1U);
    expect_same_rows(replay_ops(legacy, /*score_updates=*/false),
                     replay_ops(sharded, /*score_updates=*/false),
                     "legacy model vs one shard");
}

// ------------------------------------------------------------------------
// Seqlock parity (DESIGN.md §8.4): with lock-free reads on, lookup/probe
// must return the exact Case 1/3/miss sequence the locked path produces.
// Single-threaded, so the residency view is always quiescent — any
// divergence is a writer that failed to publish a mutation to the view.

class SeqlockParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SeqlockParity, LocklessLookupMatchesLockedTraceExactly) {
    const std::size_t shards = GetParam();
    TwoLayerSemanticCache lockfree{kTraceCapacity, kTraceRatio, shards,
                                   /*lockfree_reads=*/true};
    TwoLayerSemanticCache locked{kTraceCapacity, kTraceRatio, shards,
                                 /*lockfree_reads=*/false};
    ASSERT_TRUE(lockfree.lockfree_reads());
    ASSERT_FALSE(locked.lockfree_reads());
    expect_same_rows(replay_ops(locked, /*score_updates=*/true),
                     replay_ops(lockfree, /*score_updates=*/true),
                     "locked vs lock-free reads");
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, SeqlockParity,
                         ::testing::Values(1, 4));

// ------------------------------------------------------------------------
// Part 2: golden decision traces. The op mix with score updates (rows 0 to
// kTraceOps - 1), then a freeze() summary, compared against the files under
// tests/golden/: full traces for shards 1, 4 and 8, tie-heavy traces for
// shards 1 and 4, and one hash per section-policy pair, each under both
// read modes. On a mismatch the test
// names the first divergent row and writes the full actual file next to
// the test binary as `<name>.actual.txt`.

/// freeze() rendered order-independently: importance pairs by id, homophily
/// keys in FIFO order, neighbor-index entries by neighbor (key lists kept
/// newest-last), and view entries by id. A view slot's surrogate is only
/// meaningful under kSurrogate, so it is printed only then. With
/// `imp_scores_on_view`, an importance view row also carries that id's
/// section score: the hashes in cache_policy_pairs.txt were pinned over
/// that rendering.
void append_freeze(const TwoLayerSemanticCache& cache,
                   std::vector<std::string>& rows,
                   bool imp_scores_on_view = false) {
    const auto joined = [](std::string row, const auto& ids) {
        for (std::uint32_t id : ids) row += ' ' + std::to_string(id);
        return row;
    };
    const auto state = cache.freeze();
    for (std::size_t s = 0; s < state.shards.size(); ++s) {
        auto shard = state.shards[s];
        rows.push_back(row_of("shard %zu cap %zu %zu", s,
                              shard.importance_capacity,
                              shard.homophily_capacity));
        std::sort(shard.importance.begin(), shard.importance.end());
        for (const auto& [id, score] : shard.importance) {
            rows.push_back(row_of("imp %u %a", id, score));
        }
        rows.push_back(joined("hom", shard.homophily_keys));
        std::sort(shard.neighbor_index.begin(), shard.neighbor_index.end());
        for (const auto& [neighbor, keys] : shard.neighbor_index) {
            rows.push_back(joined("nbr " + std::to_string(neighbor), keys));
        }
        std::sort(shard.view.begin(), shard.view.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (const auto& [id, probe] : shard.view) {
            std::string row = row_of("view %u %u", id, probe.flags);
            if (imp_scores_on_view &&
                (probe.flags & ShardResidencyView::kImportance)) {
                const auto it = std::lower_bound(
                    shard.importance.begin(), shard.importance.end(), id,
                    [](const auto& entry, std::uint32_t key) {
                        return entry.first < key;
                    });
                row += row_of(" score %a", it->second);
            }
            if (probe.flags & ShardResidencyView::kSurrogate) {
                row += " sur " + std::to_string(probe.surrogate);
            }
            rows.push_back(row);
        }
    }
}

std::vector<std::string> golden_trace(std::size_t shards, bool lockfree_reads,
                                      SectionPolicies policies = {},
                                      bool tied_scores = false,
                                      bool imp_scores_on_view = false) {
    TwoLayerSemanticCache cache{kTraceCapacity, kTraceRatio, shards,
                                lockfree_reads, policies};
    auto rows = replay_ops(cache, /*score_updates=*/true, tied_scores);
    append_freeze(cache, rows, imp_scores_on_view);
    return rows;
}

TEST(CacheGolden, TracesAtOneFourAndEightShards) {
    for (const std::size_t shards : {1U, 4U, 8U}) {
        for (const bool lockfree : {true, false}) {
            expect_golden("cache_trace_s" + std::to_string(shards) + ".txt",
                          golden_trace(shards, lockfree),
                          lockfree ? "lock-free reads" : "locked reads");
        }
    }
}

TEST(CacheGolden, TiedScoresAtOneAndFourShards) {
    // The same mix with scores from eight values: the gate must reject a
    // score equal to the shard minimum, and victims tie on the lower id.
    for (const std::size_t shards : {1U, 4U}) {
        for (const bool lockfree : {true, false}) {
            expect_golden(
                "cache_trace_ties_s" + std::to_string(shards) + ".txt",
                golden_trace(shards, lockfree, {}, /*tied_scores=*/true),
                lockfree ? "lock-free reads" : "locked reads");
        }
    }
}

/// FNV-1a 64 over the rows, each terminated by '\n'.
std::uint64_t fnv1a(const std::vector<std::string>& rows) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const auto& row : rows) {
        for (const char c : row + '\n') {
            hash ^= static_cast<unsigned char>(c);
            hash *= 0x100000001b3ULL;
        }
    }
    return hash;
}

TEST(CacheGolden, EveryPolicyPair) {
    // One line per (shards, importance policy, homophily policy) in enum
    // order, eligible pairs only: the hash of that configuration's trace.
    constexpr int kKinds = static_cast<int>(PolicyKind::kStatic) + 1;
    for (const bool lockfree : {true, false}) {
        std::vector<std::string> rows;
        for (const std::size_t shards : {1U, 4U}) {
            for (int i = 0; i < kKinds; ++i) {
                for (int h = 0; h < kKinds; ++h) {
                    const SectionPolicies policies{static_cast<PolicyKind>(i),
                                                   static_cast<PolicyKind>(h)};
                    if (!importance_policy_ok(policies.importance) ||
                        !homophily_policy_ok(policies.homophily)) {
                        continue;
                    }
                    rows.push_back(row_of(
                        "s%zu %s %s %016llx", shards,
                        to_string(policies.importance).c_str(),
                        to_string(policies.homophily).c_str(),
                        static_cast<unsigned long long>(
                            fnv1a(golden_trace(
                                shards, lockfree, policies,
                                /*tied_scores=*/false,
                                /*imp_scores_on_view=*/true)))));
                }
            }
        }
        expect_golden("cache_policy_pairs.txt", rows,
                      lockfree ? "lock-free reads" : "locked reads");
    }
}

// ------------------------------------------------------------------------
// Part 3: sharded structural invariants.

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
    TwoLayerSemanticCache cache{64, 0.2, shards};

    // Pick a key and a neighbor on different shards (when there are two).
    const std::uint32_t key = 1;
    std::uint32_t neighbor = 2;
    while (shards > 1 && cache.shard_of(neighbor) == cache.shard_of(key)) {
        ++neighbor;
    }

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
    // Tiny homophily slices force FIFO evictions fast.
    TwoLayerSemanticCache cache{2 * shards, 0.5, shards};

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

TEST_P(ShardedInvariants, RepartitionKeepsTheViewExact) {
    // Full sections, then ratios that shrink the importance slices, keep
    // them, grow them (shrinking the homophily slices) and empty the
    // homophily slices. After each set_imp_ratio every shard's view must
    // be exactly the projection of its sections and neighbor-index slice.
    const std::size_t shards = GetParam();
    TwoLayerSemanticCache cache{120, 0.5, shards};
    util::Rng rng{27ULL};
    const auto burst = [&cache, &rng] {
        for (int op = 0; op < 600; ++op) {
            const auto id = static_cast<std::uint32_t>(rng.uniform_index(900));
            cache.on_miss_fetched(id, rng.uniform());
            if (op % 3 == 0) {
                const std::uint32_t nb[] = {id + 1000, id * 7 + 5000,
                                            (id ^ 0x2AU) + 1000};
                cache.update_homophily(id + 20000, nb);
            }
        }
    };
    const auto expect_exact = [&cache](double ratio) {
        const auto frozen = cache.freeze();
        for (std::size_t s = 0; s < frozen.shards.size(); ++s) {
            EXPECT_EQ(oracle::view_mismatch(frozen.shards[s]), "")
                << "shard " << s << " after ratio " << ratio;
        }
    };
    burst();
    for (const double ratio : {0.2, 0.2, 0.8, 0.8, 0.35, 1.0, 0.5}) {
        cache.set_imp_ratio(ratio);
        expect_exact(ratio);
        burst();
        expect_exact(ratio);
    }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedInvariants,
                         ::testing::Values(1, 2, 4, 7, 16));

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

// Concurrency stress suite for the sharded TwoLayerSemanticCache, its
// residency view, the PrefetchPipeline, and the RemoteStore fetch-slot cap
// (DESIGN.md §8). Every test name contains "Concurrent" or
// "ResidencyView" so the whole file runs under the ThreadSanitizer tier
// of tools/run_tier1.sh.
//
// The assertions are quiescent-state invariants (sizes within capacity,
// exclusivity, conserved counters) — under real interleavings the exact
// hit/miss sequence is unspecified, but the structures must never corrupt
// and never exceed their slices, even while an elastic thread repartitions
// the sections mid-flight.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cache/semantic_cache.hpp"
#include "core/prefetch.hpp"
#include "data/dataset.hpp"
#include "storage/remote_store.hpp"
#include "util/rng.hpp"
#include "view_oracle.hpp"

namespace spider {
namespace {

// ------------------------------------------------------- TwoLayer, sharded

// Both read-path modes (DESIGN.md §8.4): true = seqlock residency view,
// false = every read through the shard mutex. Invariants must hold in both.
class CacheConcurrencyMode : public ::testing::TestWithParam<bool> {};

TEST_P(CacheConcurrencyMode, ConcurrentMixedOpsPreserveInvariants) {
    constexpr std::size_t kCapacity = 256;
    constexpr std::size_t kThreads = 4;
    constexpr int kOpsPerThread = 20000;
    constexpr std::uint32_t kIdSpace = 4096;

    cache::TwoLayerSemanticCache cache{kCapacity, 0.7, /*shards=*/8,
                                       /*lockfree_reads=*/GetParam()};

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&cache, t] {
            util::Rng rng{0x5EED0000ULL + t};
            for (int op = 0; op < kOpsPerThread; ++op) {
                const auto id = static_cast<std::uint32_t>(
                    rng.uniform_index(kIdSpace));
                const double roll = rng.uniform();
                if (roll < 0.80) {
                    (void)cache.lookup(id);
                } else if (roll < 0.95) {
                    cache.on_miss_fetched(id, rng.uniform());
                } else if (roll < 0.99) {
                    const std::uint32_t nb[] = {id + 1, id + 2, id + 3};
                    cache.update_homophily(id, nb);
                } else {
                    cache.update_importance_score(id, rng.uniform());
                }
            }
        });
    }
    // Elastic thread: repartition while the workers hammer the sections.
    std::atomic<bool> stop{false};
    std::thread elastic{[&cache, &stop] {
        bool high = false;
        while (!stop.load(std::memory_order_relaxed)) {
            cache.set_imp_ratio(high ? 0.9 : 0.3);
            high = !high;
            std::this_thread::yield();
        }
    }};
    for (auto& w : workers) w.join();
    stop.store(true, std::memory_order_relaxed);
    elastic.join();

    // Quiescent invariants: capacity partition intact, no slice overflow,
    // sections exclusive per shard.
    EXPECT_EQ(cache.importance_capacity() + cache.homophily_capacity(),
              kCapacity);
    for (std::size_t s = 0; s < cache.num_shards(); ++s) {
        EXPECT_LE(cache.shard_importance_size(s),
                  cache.shard_importance_capacity(s))
            << "shard " << s;
        EXPECT_LE(cache.shard_homophily_size(s),
                  cache.shard_homophily_capacity(s))
            << "shard " << s;
    }
    EXPECT_LE(cache.importance_size() + cache.homophily_size(), kCapacity);
}

TEST_P(CacheConcurrencyMode, ConcurrentLookupsDuringElasticRepartition) {
    cache::TwoLayerSemanticCache cache{128, 0.5, /*shards=*/4,
                                       /*lockfree_reads=*/GetParam()};
    for (std::uint32_t id = 0; id < 512; ++id) {
        cache.on_miss_fetched(id, 0.5 + 0.001 * static_cast<double>(id));
    }

    std::atomic<std::uint64_t> hits{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&cache, &hits, t] {
            util::Rng rng{0xABC0ULL + static_cast<std::uint64_t>(t)};
            for (int op = 0; op < 30000; ++op) {
                const auto id =
                    static_cast<std::uint32_t>(rng.uniform_index(512));
                if (cache.lookup(id).kind != cache::HitKind::kMiss) {
                    hits.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (const double ratio : {0.1, 0.9, 0.2, 0.8, 0.5}) {
        cache.set_imp_ratio(ratio);
        std::this_thread::yield();
    }
    for (auto& r : readers) r.join();
    // Some residents must have survived every repartition.
    EXPECT_GT(hits.load(), 0U);
}

// Regression (dangling-surrogate window): sharded update_homophily inserts
// the key under its shard's lock, releases it, then publishes the
// neighbor-index slices. An eviction of the key inside that window (here:
// an elastic shrink of the homophily section to zero, injected through the
// publish hook) used to run its unindex pass before the entries existed —
// the publish loop then left index entries pointing at a non-resident key
// forever. The fix re-checks the key's insert generation after publishing
// and retracts its own entries when the generation is gone.
TEST(CacheConcurrency, ConcurrentEvictionDuringPublishLeavesNoDanglingIndex) {
    cache::TwoLayerSemanticCache cache{32, 0.5, /*shards=*/4};

    const std::uint32_t key = 1;
    // Neighbors spread over shards other than the key's.
    std::vector<std::uint32_t> neighbors;
    for (std::uint32_t candidate = 100; neighbors.size() < 3; ++candidate) {
        if (cache.shard_of(candidate) != cache.shard_of(key)) {
            neighbors.push_back(candidate);
        }
    }

    bool fired = false;
    cache.set_homophily_publish_hook([&cache, &fired] {
        if (fired) return;  // the shrink below must not re-trigger itself
        fired = true;
        // Concurrent-eviction stand-in: shrink homophily to zero — the key
        // is evicted and unindexed before its index entries are published.
        cache.set_imp_ratio(1.0);
    });
    cache.update_homophily(key, neighbors);
    ASSERT_TRUE(fired);
    ASSERT_EQ(cache.homophily_size(), 0U);

    // No neighbor may resolve to the evicted key (pre-fix: all three did,
    // permanently — the index entries had no owner left to retract them).
    for (const std::uint32_t neighbor : neighbors) {
        const cache::Lookup via = cache.lookup(neighbor);
        EXPECT_EQ(via.kind, cache::HitKind::kMiss)
            << "neighbor " << neighbor << " still serves surrogate "
            << via.served_id;
    }
    const auto frozen = cache.freeze();
    for (const auto& shard : frozen.shards) {
        EXPECT_TRUE(shard.neighbor_index.empty());
    }
}

// Randomized multi-threaded oracle: workers hammer the cache with the full
// op mix (including elastic repartitions); a checker repeatedly pauses
// them at op boundaries, freezes the cache (all shard locks), and checks
// the cross-shard invariants the lock protocol is supposed to preserve:
//  (a) every neighbor-index value names a resident homophily key,
//  (b) no id is resident in both sections,
//  (c) aggregate sizes never exceed capacities,
//  (d) each shard's seqlock residency view mirrors its sections exactly.
TEST_P(CacheConcurrencyMode, ConcurrentOracleFreezeFindsNoInvariantBreach) {
    constexpr std::size_t kCapacity = 192;
    constexpr std::size_t kThreads = 4;
    constexpr int kOpsPerThread = 12000;
    constexpr std::uint32_t kIdSpace = 2048;
    constexpr int kFreezes = 25;

    cache::TwoLayerSemanticCache cache{kCapacity, 0.6, /*shards=*/8,
                                       /*lockfree_reads=*/GetParam()};

    std::atomic<bool> pause{false};
    std::atomic<std::size_t> parked{0};
    std::atomic<std::size_t> running{kThreads};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            util::Rng rng{0x0AC1E000ULL + t};
            for (int op = 0; op < kOpsPerThread; ++op) {
                // Invariant (a) only holds between operations (inside one
                // update_homophily the index is legitimately mid-rewrite),
                // so workers park at op boundaries while the oracle runs.
                if (pause.load(std::memory_order_acquire)) {
                    parked.fetch_add(1, std::memory_order_acq_rel);
                    while (pause.load(std::memory_order_acquire)) {
                        std::this_thread::yield();
                    }
                    parked.fetch_sub(1, std::memory_order_acq_rel);
                }
                const auto id = static_cast<std::uint32_t>(
                    rng.uniform_index(kIdSpace));
                const double roll = rng.uniform();
                if (roll < 0.70) {
                    (void)cache.lookup(id);
                    (void)cache.probe(id);
                } else if (roll < 0.88) {
                    cache.on_miss_fetched(id, rng.uniform());
                } else if (roll < 0.95) {
                    const std::uint32_t nb[] = {id + 1, id + 7, id + 21};
                    cache.update_homophily(id, nb);
                } else if (roll < 0.99) {
                    cache.update_importance_score(id, rng.uniform());
                } else {
                    cache.set_imp_ratio(0.2 + 0.6 * rng.uniform());
                }
            }
            running.fetch_sub(1, std::memory_order_acq_rel);
        });
    }

    for (int round = 0; round < kFreezes; ++round) {
        pause.store(true, std::memory_order_release);
        while (parked.load(std::memory_order_acquire) <
               running.load(std::memory_order_acquire)) {
            std::this_thread::yield();
        }
        const auto frozen = cache.freeze();

        std::unordered_set<std::uint32_t> importance_ids;
        std::unordered_set<std::uint32_t> hom_keys;
        std::size_t imp_size = 0;
        std::size_t hom_size = 0;
        for (const auto& shard : frozen.shards) {
            for (const auto& [id, score] : shard.importance) {
                importance_ids.insert(id);
            }
            for (const std::uint32_t key : shard.homophily_keys) {
                hom_keys.insert(key);
            }
            imp_size += shard.importance.size();
            hom_size += shard.homophily_keys.size();
            // (c) per-shard slices respected.
            ASSERT_LE(shard.importance.size(), shard.importance_capacity);
            ASSERT_LE(shard.homophily_keys.size(), shard.homophily_capacity);
        }
        // (b) sections exclusive.
        for (const std::uint32_t key : hom_keys) {
            ASSERT_FALSE(importance_ids.contains(key))
                << "id " << key << " resident in both sections";
        }
        // (a) index soundness: every listed key is a resident hom key.
        for (const auto& shard : frozen.shards) {
            for (const auto& [neighbor, keys] : shard.neighbor_index) {
                for (const std::uint32_t key : keys) {
                    ASSERT_TRUE(hom_keys.contains(key))
                        << "neighbor " << neighbor
                        << " names non-resident surrogate " << key;
                }
            }
        }
        // (d) each shard's view is exactly its sections' projection.
        for (std::size_t s = 0; s < frozen.shards.size(); ++s) {
            ASSERT_EQ(cache::oracle::view_mismatch(frozen.shards[s]), "")
                << "shard " << s;
        }
        pause.store(false, std::memory_order_release);
        if (running.load(std::memory_order_acquire) == 0) break;
        std::this_thread::yield();
    }
    pause.store(false, std::memory_order_release);
    for (auto& w : workers) w.join();
}

INSTANTIATE_TEST_SUITE_P(ReadModes, CacheConcurrencyMode,
                         ::testing::Values(true, false));

// ------------------------------------------------------------ Residency view

using View = cache::ShardResidencyView;

/// A fresh id from the whole 32-bit space, not yet in `live`.
std::uint32_t fresh_id(util::Rng& rng, std::unordered_set<std::uint32_t>& live) {
    for (;;) {
        const auto id = static_cast<std::uint32_t>(rng.next());
        if (live.insert(id).second) return id;
    }
}

// kLive residents under steady churn: each op admits an id from a wide id
// space and evicts the oldest. Deletion leaves nothing behind, so the
// table keeps the slots it was built with. Growth always doubles, so an
// unchanged slot count also means no table was retired.
TEST(ResidencyView, ChurnKeepsItsTable) {
    constexpr std::size_t kLive = 256;
    constexpr int kOps = 2'000'000;
    View view{kLive};
    const std::size_t slots = view.slot_count();
    util::Rng rng{0xC0FFEEULL};
    std::unordered_set<std::uint32_t> live;
    std::deque<std::uint32_t> fifo;
    for (int op = 0; op < kOps; ++op) {
        const std::uint32_t id = fresh_id(rng, live);
        const View::WriteSection ws{view};
        // Odd ids also carry a surrogate, so evictions clear two flags.
        view.set_importance(id);
        if (id & 1U) view.set_surrogate(id, id ^ 1U);
        fifo.push_back(id);
        if (fifo.size() > kLive) {
            view.clear_surrogate(fifo.front());
            view.clear_importance(fifo.front());
            live.erase(fifo.front());
            fifo.pop_front();
        }
    }
    EXPECT_EQ(view.slot_count(), slots);
    EXPECT_EQ(view.entries().size(), kLive);
    for (const std::uint32_t id : fifo) {
        const auto probe = view.try_probe(id);
        ASSERT_TRUE(probe.has_value());
        if (id & 1U) {
            EXPECT_EQ(probe->flags, View::kImportance | View::kSurrogate) << id;
            EXPECT_EQ(probe->surrogate, id ^ 1U) << id;
        } else {
            EXPECT_EQ(probe->flags, View::kImportance) << id;
        }
    }
}

// A pinned resident set shares a ~3/4-full table with ids that one writer
// churns. The pinned ids go in after the churn has filled the table, so
// many sit past their home slots, and the backward shifts of the churn's
// evictions move them. Every validated probe must still find each pinned
// id with its flags and surrogate.
TEST(ResidencyView, ConcurrentReadersFindMovedEntries) {
    constexpr std::uint32_t kPinned = 48;
    constexpr std::size_t kChurnLive = 140;
    constexpr int kChurnOps = 100'000;
    constexpr int kReaders = 2;
    View view{64};  // 256 slots: the churn stays just below the growth bound
    const std::size_t slots = view.slot_count();
    util::Rng rng{0x5E7ULL};
    std::unordered_set<std::uint32_t> live;
    std::deque<std::uint32_t> fifo;
    const auto churn = [&view, &rng, &live, &fifo] {
        const std::uint32_t id = fresh_id(rng, live);
        const View::WriteSection ws{view};
        view.set_hom_key(id);
        fifo.push_back(id);
        if (fifo.size() > kChurnLive) {
            view.clear_hom_key(fifo.front());
            live.erase(fifo.front());
            fifo.pop_front();
        }
    };
    for (std::size_t i = 0; i < kChurnLive; ++i) churn();
    std::vector<std::uint32_t> pinned;
    {
        const View::WriteSection ws{view};
        for (std::uint32_t i = 0; i < kPinned; ++i) {
            pinned.push_back(fresh_id(rng, live));
            if (i % 2 == 0) {
                view.set_importance(pinned.back());
            } else {
                view.set_surrogate(pinned.back(), i);
            }
        }
    }
    const auto expected_flags = [](std::uint32_t i) {
        return i % 2 == 0 ? View::kImportance : View::kSurrogate;
    };

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> validated{0};
    std::atomic<std::uint64_t> wrong{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            do {
                for (std::uint32_t i = 0; i < kPinned; ++i) {
                    const auto probe = view.try_probe(pinned[i]);
                    if (!probe) continue;  // torn every attempt: no verdict
                    validated.fetch_add(1, std::memory_order_relaxed);
                    const bool ok =
                        probe->flags == expected_flags(i) &&
                        (probe->flags != View::kSurrogate ||
                         probe->surrogate == i);
                    if (!ok) wrong.fetch_add(1, std::memory_order_relaxed);
                }
            } while (!done.load(std::memory_order_acquire));
        });
    }
    for (int op = 0; op < kChurnOps; ++op) churn();
    done.store(true, std::memory_order_release);
    for (auto& reader : readers) reader.join();

    EXPECT_EQ(wrong.load(), 0U);
    EXPECT_GT(validated.load(), 0U);
    EXPECT_EQ(view.slot_count(), slots);  // moves were shifts, not rehashes
}

// ---------------------------------------------------------- PrefetchPipeline

TEST(PrefetchConcurrency, ConcurrentPrefetchDedupsAndBoundsWindow) {
    std::atomic<std::uint64_t> fetches{0};
    core::PrefetchPipeline::Config pc;
    pc.threads = 2;
    pc.max_in_flight = 64;
    core::PrefetchPipeline pipeline{
        [](std::uint32_t id) { return id % 5 == 0; },  // every 5th resident
        [&fetches](std::uint32_t) {
            fetches.fetch_add(1, std::memory_order_relaxed);
        },
        pc};

    std::vector<std::uint32_t> ids(512);
    for (std::uint32_t i = 0; i < 512; ++i) ids[i] = i % 128;  // heavy dups

    std::vector<std::thread> issuers;
    for (int t = 0; t < 4; ++t) {
        issuers.emplace_back([&pipeline, &ids] { pipeline.prefetch(ids); });
    }
    for (auto& th : issuers) th.join();
    pipeline.drain();

    const auto stats = pipeline.stats();
    // Dedup: at most one issue per distinct non-resident id at any moment;
    // the window bounds what is outstanding, never the totals conservation.
    EXPECT_EQ(stats.issued, fetches.load());
    EXPECT_EQ(stats.requested, stats.issued + stats.skipped_cached +
                                   stats.skipped_in_flight +
                                   stats.skipped_window);
    EXPECT_LE(stats.issued, 128U);  // <= distinct ids ever offered
    EXPECT_GT(stats.skipped_in_flight + stats.skipped_window, 0U);
}

TEST(PrefetchConcurrency, ConcurrentConsumeHidesCompletedFetches) {
    core::PrefetchPipeline::Config pc;
    pc.threads = 2;
    pc.max_in_flight = 256;
    core::PrefetchPipeline pipeline{
        [](std::uint32_t) { return false; },
        [](std::uint32_t) { std::this_thread::yield(); }, pc};

    std::vector<std::uint32_t> ids(200);
    for (std::uint32_t i = 0; i < 200; ++i) ids[i] = i;
    const std::size_t issued = pipeline.prefetch(ids);
    EXPECT_EQ(issued, 200U);

    // Demand side from several threads: every issued id must be consumed
    // exactly once (true), unknown ids never (false).
    std::atomic<std::uint64_t> consumed{0};
    std::vector<std::thread> demanders;
    for (int t = 0; t < 4; ++t) {
        demanders.emplace_back([&pipeline, &consumed, t] {
            for (std::uint32_t id = static_cast<std::uint32_t>(t); id < 200;
                 id += 4) {
                if (pipeline.consume(id)) {
                    consumed.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto& th : demanders) th.join();
    EXPECT_EQ(consumed.load(), 200U);
    EXPECT_FALSE(pipeline.consume(9999));
    const auto stats = pipeline.stats();
    EXPECT_EQ(stats.hidden + stats.waited, 200U);
}

TEST(PrefetchConcurrency, ConcurrentFetchExceptionsPropagateToConsumers) {
    core::PrefetchPipeline::Config pc;
    pc.threads = 2;
    pc.max_in_flight = 128;
    core::PrefetchPipeline pipeline{
        [](std::uint32_t) { return false; },
        [](std::uint32_t id) {
            if (id % 2 == 1) throw std::runtime_error{"backend down"};
        },
        pc};

    std::vector<std::uint32_t> ids(100);
    for (std::uint32_t i = 0; i < 100; ++i) ids[i] = i;
    EXPECT_EQ(pipeline.prefetch(ids), 100U);

    // Several demand threads: even ids consume clean, odd ids rethrow the
    // background failure to exactly the consumer that claims them.
    std::atomic<std::uint64_t> clean{0};
    std::atomic<std::uint64_t> rethrown{0};
    std::vector<std::thread> demanders;
    for (int t = 0; t < 4; ++t) {
        demanders.emplace_back([&pipeline, &clean, &rethrown, t] {
            for (std::uint32_t id = static_cast<std::uint32_t>(t); id < 100;
                 id += 4) {
                try {
                    if (pipeline.consume(id)) {
                        clean.fetch_add(1, std::memory_order_relaxed);
                    }
                } catch (const std::runtime_error&) {
                    rethrown.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto& th : demanders) th.join();
    EXPECT_EQ(clean.load(), 50U);
    EXPECT_EQ(rethrown.load(), 50U);
    EXPECT_EQ(pipeline.stats().failed, 50U);

    // Every slot (including the failed ones) must have been released:
    // a full window's worth of new ids is accepted and drains clean.
    std::vector<std::uint32_t> refill(128);
    for (std::uint32_t i = 0; i < 128; ++i) refill[i] = 1000 + 2 * i;
    EXPECT_EQ(pipeline.prefetch(refill), 128U);
    pipeline.drain();
}

// The importance sampler draws with replacement, so two loader workers can
// wait on the same in-flight id. Exactly one of them may claim the fetch's
// outcome (the rethrow of a failure, or `true` for a success); the other
// gets `false` and fetches on demand.
struct ClaimCounts {
    int rethrown = 0;
    int claimed = 0;
    int unclaimed = 0;
};

ClaimCounts two_waiters_on_one_fetch(bool fetch_fails) {
    std::atomic<bool> gate{false};
    core::PrefetchPipeline::Config pc;
    pc.threads = 1;
    pc.max_in_flight = 8;
    core::PrefetchPipeline pipeline{
        [](std::uint32_t) { return false; },
        [&gate, fetch_fails](std::uint32_t) {
            while (!gate.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            if (fetch_fails) throw std::runtime_error{"backend down"};
        },
        pc};
    const std::vector<std::uint32_t> ids{5};
    EXPECT_EQ(pipeline.prefetch(ids), 1U);

    std::mutex mu;
    ClaimCounts counts;
    std::vector<std::thread> waiters;
    for (int t = 0; t < 2; ++t) {
        waiters.emplace_back([&] {
            try {
                const bool claimed = pipeline.consume(5);
                const std::lock_guard lock{mu};
                ++(claimed ? counts.claimed : counts.unclaimed);
            } catch (const std::runtime_error&) {
                const std::lock_guard lock{mu};
                ++counts.rethrown;
            }
        });
    }
    // `waited` is bumped under the pipeline lock that the wait releases, so
    // seeing 2 means both consumers are blocked on the in-flight fetch.
    while (pipeline.stats().waited < 2) std::this_thread::yield();
    gate.store(true, std::memory_order_release);
    for (auto& th : waiters) th.join();
    pipeline.drain();  // the failure, if any, was claimed: no rethrow here
    return counts;
}

TEST(PrefetchConcurrency, ConcurrentWaitersOnFailedFetchRethrowOnce) {
    const ClaimCounts counts = two_waiters_on_one_fetch(/*fetch_fails=*/true);
    EXPECT_EQ(counts.rethrown, 1);
    EXPECT_EQ(counts.claimed, 0);
    EXPECT_EQ(counts.unclaimed, 1);
}

TEST(PrefetchConcurrency, ConcurrentWaitersOnGoodFetchClaimOnce) {
    const ClaimCounts counts = two_waiters_on_one_fetch(/*fetch_fails=*/false);
    EXPECT_EQ(counts.rethrown, 0);
    EXPECT_EQ(counts.claimed, 1);
    EXPECT_EQ(counts.unclaimed, 1);
}

TEST(PrefetchConcurrency, ConcurrentDrainRethrowsUnclaimedFailure) {
    core::PrefetchPipeline::Config pc;
    pc.threads = 2;
    pc.max_in_flight = 8;
    core::PrefetchPipeline pipeline{
        [](std::uint32_t) { return false; },
        [](std::uint32_t id) {
            if (id == 3) throw std::runtime_error{"lost sample"};
        },
        pc};

    std::vector<std::uint32_t> ids{1, 2, 3, 4};
    EXPECT_EQ(pipeline.prefetch(ids), 4U);
    // Nobody consumes id 3: its failure must surface at the drain barrier
    // instead of passing silently.
    EXPECT_THROW(pipeline.drain(), std::runtime_error);
    // The failure was claimed by the throw; the next drain is clean and
    // the window slot was not leaked.
    pipeline.drain();
    EXPECT_EQ(pipeline.discard_ready(), 3U);
    std::vector<std::uint32_t> refill{10, 11, 12, 13, 14, 15, 16, 17};
    EXPECT_EQ(pipeline.prefetch(refill), 8U);
    pipeline.drain();
}

TEST(PrefetchConcurrency, ConcurrentReissueSupersedesStaleFailure) {
    std::atomic<bool> failing{true};
    core::PrefetchPipeline::Config pc;
    pc.threads = 1;
    pc.max_in_flight = 8;
    core::PrefetchPipeline pipeline{
        [](std::uint32_t) { return false; },
        [&failing](std::uint32_t) {
            if (failing.load(std::memory_order_relaxed)) {
                throw std::runtime_error{"transient"};
            }
        },
        pc};

    std::vector<std::uint32_t> ids{7};
    EXPECT_EQ(pipeline.prefetch(ids), 1U);
    while (pipeline.stats().failed == 0) std::this_thread::yield();

    // The backend recovers and the id is re-issued: the stale failure must
    // not shadow the successful retry.
    failing.store(false, std::memory_order_relaxed);
    EXPECT_EQ(pipeline.prefetch(ids), 1U);
    EXPECT_TRUE(pipeline.consume(7));
    pipeline.drain();
}

TEST(PrefetchConcurrency, ConcurrentDiscardReadyFreesWindowSlots) {
    core::PrefetchPipeline::Config pc;
    pc.threads = 1;
    pc.max_in_flight = 8;
    core::PrefetchPipeline pipeline{[](std::uint32_t) { return false; },
                                    [](std::uint32_t) {}, pc};

    std::vector<std::uint32_t> first{1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(pipeline.prefetch(first), 8U);
    pipeline.drain();
    // Window full of completed-but-unconsumed entries: new ids are dropped.
    std::vector<std::uint32_t> second{11, 12};
    EXPECT_EQ(pipeline.prefetch(second), 0U);
    EXPECT_EQ(pipeline.discard_ready(), 8U);
    EXPECT_EQ(pipeline.prefetch(second), 2U);
    pipeline.drain();
}

// --------------------------------------------------- RemoteStore fetch slots

TEST(RemoteStoreConcurrency, ConcurrentFetchesRespectSlotCap) {
    data::DatasetSpec spec;
    spec.name = "slots";
    spec.num_samples = 256;
    spec.num_classes = 4;
    spec.feature_dim = 8;
    data::SyntheticDataset dataset{spec};
    storage::RemoteStore store{dataset, {}};
    constexpr std::size_t kCap = 3;
    store.set_fetch_slot_cap(kCap);

    std::vector<std::thread> fetchers;
    for (int t = 0; t < 8; ++t) {
        fetchers.emplace_back([&store, t] {
            for (std::uint32_t i = 0; i < 200; ++i) {
                (void)store.fetch((static_cast<std::uint32_t>(t) * 200 + i) %
                                  256);
            }
        });
    }
    for (auto& f : fetchers) f.join();

    EXPECT_EQ(store.total_fetches(), 8U * 200U);
    EXPECT_LE(store.peak_in_flight(), kCap);
    store.set_fetch_slot_cap(0);  // uncapped mode still works afterwards
    (void)store.fetch(0);
    EXPECT_EQ(store.total_fetches(), 8U * 200U + 1U);
}

// Regression: lowering the cap — and in particular dropping it to 0
// (uncapped) — while fetchers are parked on the slot gate must wake every
// waiter. The old wait predicate ignored cap changes, so a thread blocked
// under cap=1 stayed blocked forever once the cap was lifted.
TEST(RemoteStoreConcurrency, ConcurrentCapChurnNeverStrandsWaiters) {
    data::DatasetSpec spec;
    spec.name = "slots-churn";
    spec.num_samples = 256;
    spec.num_classes = 4;
    spec.feature_dim = 8;
    data::SyntheticDataset dataset{spec};
    storage::RemoteStore store{dataset, {}};
    store.set_fetch_slot_cap(1);  // maximal contention from the start

    constexpr std::size_t kThreads = 8;
    constexpr std::uint32_t kPerThread = 400;
    std::atomic<bool> go{false};
    std::vector<std::thread> fetchers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        fetchers.emplace_back([&store, &go, t] {
            while (!go.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            for (std::uint32_t i = 0; i < kPerThread; ++i) {
                (void)store.fetch(
                    (static_cast<std::uint32_t>(t) * kPerThread + i) % 256);
            }
        });
    }
    // Churn the cap through raises, lowers, and full removal while the
    // fetchers hammer the gate. Every transition must wake the parked
    // threads or the joins below deadlock.
    go.store(true, std::memory_order_release);
    constexpr std::size_t kCaps[] = {1, 3, 0, 2, 1, 0, 4, 1};
    for (int round = 0; round < 50; ++round) {
        store.set_fetch_slot_cap(kCaps[static_cast<std::size_t>(round) % 8]);
        std::this_thread::yield();
    }
    store.set_fetch_slot_cap(0);  // finish uncapped: all waiters released
    for (auto& f : fetchers) f.join();

    EXPECT_EQ(store.total_fetches(), kThreads * kPerThread);
}

}  // namespace
}  // namespace spider

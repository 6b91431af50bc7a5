// cluster::CooperativeCache: consistent-hash ownership and single-owner
// admission, the local < peer < remote cost ordering, the communication
// budget, straggler hedging, peer-brownout failover, ring rebalancing on
// join/leave, the simulator's multi-node mode, and the nodes=1 parity
// guarantee. The Concurrent suite runs under the --cluster TSan tier.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cooperative_cache.hpp"
#include "data/presets.hpp"
#include "sim/simulator.hpp"
#include "storage/remote_store.hpp"
#include "storage/resilient_store.hpp"

namespace spider::cluster {
namespace {

class CooperativeCacheTest : public ::testing::Test {
protected:
    CooperativeCacheTest()
        : dataset_{data::cifar10_like(0.01, 7)},  // 500 samples
          remote_{dataset_,
                  storage::RemoteStoreConfig{
                      .latency_per_sample = storage::from_ms(4.5),
                      .bytes_per_ms = 1.25e6,
                      .parallelism = 2,
                  }},
          storage_{remote_, {}, {}} {}

    [[nodiscard]] ClusterConfig base_config(std::size_t nodes) const {
        ClusterConfig cc;
        cc.nodes = nodes;
        cc.node_cache_items = 64;
        cc.seed = 11;
        return cc;
    }

    /// First id in [0, dataset) owned by `owner` on `coop`'s ring.
    [[nodiscard]] std::uint32_t id_owned_by(const CooperativeCache& coop,
                                            std::uint32_t owner) const {
        for (std::uint32_t id = 0;
             id < static_cast<std::uint32_t>(dataset_.size()); ++id) {
            if (coop.owner_of(id) == owner) return id;
        }
        throw std::logic_error{"no id owned by node"};
    }

    data::SyntheticDataset dataset_;
    storage::RemoteStore remote_;
    storage::ResilientStore storage_;  // fault-free client of remote_
};

TEST_F(CooperativeCacheTest, CostOrderingLocalPeerRemote) {
    const CooperativeCache coop{dataset_, storage_, base_config(4)};
    EXPECT_LT(storage::from_ms(0.02), coop.peer_cost());
    EXPECT_LT(coop.peer_cost(), coop.remote_cost());
    // The wire envelope prices the real protocol frames plus the sample.
    EXPECT_GT(coop.wire_bytes_per_fetch(), dataset_.spec().bytes_per_sample);
}

TEST_F(CooperativeCacheTest, OwnerAdmitsAndPeersHitAfterwards) {
    CooperativeCache coop{dataset_, storage_, base_config(4)};
    const storage::SimDuration now{};
    const std::uint32_t owner = 2;
    const std::uint32_t requester = 0;
    const std::uint32_t id = id_owned_by(coop, owner);

    // Cold: the owner misses too, fetches remote, admits, forwards.
    const ServiceResult first = coop.service(requester, id, now);
    EXPECT_EQ(first.source, ServeSource::kPeerMiss);
    EXPECT_EQ(first.cost, coop.peer_cost() + coop.remote_cost());
    EXPECT_TRUE(coop.resident(owner, id));
    EXPECT_FALSE(coop.resident(requester, id));  // only the owner admits

    // Warm: a pure peer hit at wire price.
    const ServiceResult second = coop.service(requester, id, now);
    EXPECT_EQ(second.source, ServeSource::kPeerHit);
    EXPECT_EQ(second.cost, coop.peer_cost());

    // The owner itself gets it at local-hit price.
    const ServiceResult third = coop.service(owner, id, now);
    EXPECT_EQ(third.source, ServeSource::kLocalHit);
    EXPECT_EQ(third.cost, storage::from_ms(0.02));

    const ClusterCounters c = coop.counters();
    EXPECT_EQ(c.peer_misses, 1U);
    EXPECT_EQ(c.peer_hits, 1U);
    EXPECT_EQ(c.local_hits, 1U);
    EXPECT_EQ(c.remote_fetches, 1U);
}

TEST_F(CooperativeCacheTest, OwnSliceMissGoesStraightToRemote) {
    CooperativeCache coop{dataset_, storage_, base_config(4)};
    const std::uint32_t owner = 1;
    const std::uint32_t id = id_owned_by(coop, owner);
    const ServiceResult r = coop.service(owner, id, storage::SimDuration{});
    EXPECT_EQ(r.source, ServeSource::kRemote);
    EXPECT_EQ(r.cost, coop.remote_cost());
    EXPECT_TRUE(coop.resident(owner, id));
}

TEST_F(CooperativeCacheTest, StorageOnlyBaselineNeverTouchesPeers) {
    ClusterConfig cc = base_config(4);
    cc.peer_fetch_enabled = false;
    CooperativeCache coop{dataset_, storage_, cc};
    const storage::SimDuration now{};
    for (std::uint32_t id = 0; id < 100; ++id) {
        const ServiceResult r = coop.service(id % 4, id, now);
        EXPECT_TRUE(r.source == ServeSource::kRemote ||
                    r.source == ServeSource::kLocalHit);
    }
    // Re-touching through the same node hits its own independent cache,
    // whoever the ring owner would have been.
    const ServiceResult again = coop.service(0, 0, now);
    EXPECT_EQ(again.source, ServeSource::kLocalHit);
    const ClusterCounters c = coop.counters();
    EXPECT_EQ(c.peer_hits + c.peer_misses + c.peer_bytes, 0U);
}

TEST_F(CooperativeCacheTest, CommBudgetThrottlesToRemote) {
    ClusterConfig cc = base_config(2);
    cc.comm_budget_mb = 0.01;  // ~3 exchanges at CIFAR sample size
    CooperativeCache coop{dataset_, storage_, cc};
    coop.begin_epoch();
    const storage::SimDuration now{};

    const std::uint64_t limit =
        static_cast<std::uint64_t>(cc.comm_budget_mb * 1024.0 * 1024.0);
    std::uint64_t peer_served = 0;
    std::uint64_t throttled = 0;
    for (std::uint32_t id = 0; id < 64; ++id) {
        const std::uint32_t owner = coop.owner_of(id);
        const std::uint32_t requester = owner == 0 ? 1 : 0;
        const ServiceResult r = coop.service(requester, id, now);
        if (r.throttled) {
            ++throttled;
            EXPECT_EQ(r.source, ServeSource::kRemote);
            EXPECT_EQ(r.cost, coop.remote_cost());
        } else {
            ++peer_served;
        }
    }
    EXPECT_GT(peer_served, 0U);
    EXPECT_GT(throttled, 0U);
    EXPECT_LE(coop.budget_spent(), limit);  // hard cap, not advisory
    EXPECT_EQ(coop.counters().throttled, throttled);

    // A new epoch refills the budget.
    coop.begin_epoch();
    EXPECT_EQ(coop.budget_spent(), 0U);
    const std::uint32_t id = id_owned_by(coop, 1);
    EXPECT_FALSE(coop.service(0, id, now).throttled);
}

TEST_F(CooperativeCacheTest, HedgingRescuesTheStragglerTail) {
    const auto run = [&](bool hedge) {
        ClusterConfig cc = base_config(4);
        cc.node_cache_items = 256;
        cc.straggler_node = 2;
        cc.straggler_spike_prob = 0.6;
        cc.straggler_spike_mult = 10.0;
        cc.hedge_enabled = hedge;
        cc.hedge_delay_ms = 1.0;  // fixed: deterministic trigger point
        storage::RemoteStore remote{dataset_,
                                    storage::RemoteStoreConfig{
                                        .latency_per_sample = storage::from_ms(4.5),
                                        .bytes_per_ms = 1.25e6,
                                        .parallelism = 2,
                                    }};
        storage::ResilientStore client{remote, {}, {}};
        CooperativeCache coop{dataset_, client, cc};
        const storage::SimDuration now{};

        // Warm the straggler's slice through a peer, then hammer it.
        std::vector<std::uint32_t> ids;
        for (std::uint32_t id = 0;
             id < static_cast<std::uint32_t>(dataset_.size()) &&
             ids.size() < 32;
             ++id) {
            if (coop.owner_of(id) == 2) ids.push_back(id);
        }
        for (const std::uint32_t id : ids) (void)coop.service(0, id, now);
        storage::SimDuration total{};
        for (int round = 0; round < 8; ++round) {
            for (const std::uint32_t id : ids) {
                const ServiceResult r = coop.service(1, id, now);
                EXPECT_EQ(r.source, ServeSource::kPeerHit);
                total += r.cost;
            }
        }
        return std::pair{total, coop.counters()};
    };

    const auto [hedged_total, hedged_counters] = run(true);
    const auto [unhedged_total, unhedged_counters] = run(false);
    EXPECT_GT(hedged_counters.hedges, 0U);
    EXPECT_GT(hedged_counters.hedge_wins, 0U);
    EXPECT_EQ(unhedged_counters.hedges, 0U);
    // The duplicate bounds spiked exchanges near hedge_delay + nominal,
    // so the hedged total must come in well under the unhedged one.
    EXPECT_LT(storage::to_ms(hedged_total),
              0.85 * storage::to_ms(unhedged_total));
}

TEST_F(CooperativeCacheTest, PeerBrownoutFailsOverToRemote) {
    ClusterConfig cc = base_config(2);
    cc.peer_transient_prob = 1.0;  // every peer attempt fails
    cc.max_attempts = 2;
    CooperativeCache coop{dataset_, storage_, cc};
    const storage::SimDuration now{};
    const std::uint32_t id = id_owned_by(coop, 1);

    const ServiceResult r = coop.service(0, id, now);
    EXPECT_EQ(r.source, ServeSource::kRemote);
    EXPECT_TRUE(r.failover);
    EXPECT_GE(r.cost, coop.remote_cost());  // wasted envelope + fallback
    EXPECT_EQ(coop.counters().failovers, 1U);
    // The batch barrier feeds the envelope's breaker without incident.
    coop.on_batch_end(now);
}

TEST_F(CooperativeCacheTest, JoinMovesBoundedOwnershipLeaveRestores) {
    CooperativeCache coop{dataset_, storage_, base_config(4)};
    const auto n = static_cast<std::uint32_t>(dataset_.size());
    std::vector<std::uint32_t> before;
    before.reserve(n);
    for (std::uint32_t id = 0; id < n; ++id) {
        before.push_back(coop.owner_of(id));
    }

    const std::uint32_t fresh = coop.add_node();
    EXPECT_EQ(fresh, 4U);
    std::uint32_t moved = 0;
    for (std::uint32_t id = 0; id < n; ++id) {
        if (coop.owner_of(id) != before[id]) {
            EXPECT_EQ(coop.owner_of(id), fresh);  // moves only to the joiner
            ++moved;
        }
    }
    EXPECT_GT(moved, 0U);
    EXPECT_LT(static_cast<double>(moved) / n, 2.0 / 5.0);  // ~1/(N+1)

    // Leave restores the original map exactly (pure-hash ring points).
    coop.remove_node(fresh);
    for (std::uint32_t id = 0; id < n; ++id) {
        EXPECT_EQ(coop.owner_of(id), before[id]);
    }
    EXPECT_THROW(coop.remove_node(fresh), std::invalid_argument);  // gone
}

TEST_F(CooperativeCacheTest, ServiceAfterRebalanceConsultsNewOwnerOnly) {
    CooperativeCache coop{dataset_, storage_, base_config(2)};
    const storage::SimDuration now{};
    const std::uint32_t id = id_owned_by(coop, 1);
    (void)coop.service(0, id, now);
    ASSERT_TRUE(coop.resident(1, id));

    const std::uint32_t fresh = coop.add_node();
    if (coop.owner_of(id) == fresh) {
        // Moved key: the old owner's stale copy is never consulted; the
        // new owner admits on the next service.
        const ServiceResult r = coop.service(0, id, now);
        EXPECT_EQ(r.source, ServeSource::kPeerMiss);
        EXPECT_TRUE(coop.resident(fresh, id));
    } else {
        const ServiceResult r = coop.service(0, id, now);
        EXPECT_EQ(r.source, coop.owner_of(id) == 0 ? ServeSource::kLocalHit
                                                   : ServeSource::kPeerHit);
    }
}

TEST(ClusterConcurrent, ServiceCountersStayConsistent) {
    const data::SyntheticDataset dataset{data::cifar10_like(0.01, 7)};
    storage::RemoteStore remote{dataset, storage::RemoteStoreConfig{}};
    storage::ResilientStore client{remote, {}, {}};
    ClusterConfig cc;
    cc.nodes = 4;
    cc.node_cache_items = 32;  // tiny: force concurrent evictions
    cc.comm_budget_mb = 0.5;
    cc.seed = 3;
    CooperativeCache coop{dataset, client, cc};
    coop.begin_epoch();

    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kOps = 4000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            const auto node = static_cast<std::uint32_t>(t);
            for (std::size_t i = 0; i < kOps; ++i) {
                const auto id = static_cast<std::uint32_t>(
                    (i * 13 + t * 977) % dataset.size());
                (void)coop.service(node, id, storage::SimDuration{});
            }
        });
    }
    for (std::thread& w : workers) w.join();
    coop.on_batch_end(storage::SimDuration{});

    // Every service lands in exactly one source bucket. remote_fetches
    // counts own-shard misses, throttles, failovers, AND the remote leg
    // of peer misses, so kRemote-sourced ops = remote_fetches - peer_misses.
    const ClusterCounters c = coop.counters();
    const std::uint64_t remote_sourced = c.remote_fetches - c.peer_misses;
    EXPECT_EQ(c.local_hits + c.peer_hits + c.peer_misses + remote_sourced,
              kThreads * kOps);
    EXPECT_EQ(c.failovers, 0U);  // fault model is off on every peer link
}

}  // namespace
}  // namespace spider::cluster

// ----------------------------------------------------- simulator integration

namespace spider::sim {
namespace {

[[nodiscard]] SimConfig small_config() {
    SimConfig config;
    config.dataset = data::cifar10_like(0.02, 5);  // 1000 samples
    config.epochs = 3;
    config.batch_size = 64;
    config.cache_fraction = 0.20;
    config.seed = 9;
    return config;
}

TEST(ClusterSim, NodesOneIsBehaviorallyIdenticalToSingleNode) {
    const metrics::RunResult base = TrainingSimulator{small_config()}.run();

    SimConfig clustered = small_config();
    clustered.cluster.nodes = 1;  // cluster tier stays off
    clustered.cluster.peer_latency_ms = 0.9;
    clustered.cluster.comm_budget_mb = 1.0;
    clustered.cluster_node_cache_fraction = 0.5;
    const metrics::RunResult same = TrainingSimulator{clustered}.run();

    ASSERT_EQ(same.epochs.size(), base.epochs.size());
    for (std::size_t e = 0; e < base.epochs.size(); ++e) {
        EXPECT_EQ(same.epochs[e].hits, base.epochs[e].hits);
        EXPECT_EQ(same.epochs[e].misses, base.epochs[e].misses);
        EXPECT_EQ(same.epochs[e].epoch_time, base.epochs[e].epoch_time);
        EXPECT_EQ(same.epochs[e].peer_hits, 0U);
        EXPECT_EQ(same.epochs[e].cluster_remote, 0U);
    }
    EXPECT_EQ(same.total_time, base.total_time);
    EXPECT_DOUBLE_EQ(same.final_accuracy, base.final_accuracy);
}

TEST(ClusterSim, MultiNodeRunServesPeersAndBalancesBooks) {
    SimConfig config = small_config();
    config.cluster.nodes = 4;
    config.cluster_node_cache_fraction = 0.10;
    const metrics::RunResult result = TrainingSimulator{config}.run();

    std::uint64_t peer_hits = 0;
    for (const metrics::EpochMetrics& e : result.epochs) {
        // Every frontend miss was serviced by exactly one cluster source.
        EXPECT_EQ(e.cluster_local_hits + e.peer_hits + e.peer_misses +
                      e.cluster_remote,
                  e.misses);
        peer_hits += e.peer_hits;
    }
    EXPECT_GT(peer_hits, 0U) << "warm epochs must serve from peer shards";
    EXPECT_GT(result.final_accuracy, 0.15) << "training still converges";
}

TEST(ClusterSim, MultiNodeThreadedAggregatesStayExact) {
    SimConfig config = small_config();
    config.epochs = 2;
    config.cluster.nodes = 4;
    config.worker_threads = 4;
    const metrics::RunResult result = TrainingSimulator{config}.run();
    for (const metrics::EpochMetrics& e : result.epochs) {
        EXPECT_EQ(e.cluster_local_hits + e.peer_hits + e.peer_misses +
                      e.cluster_remote,
                  e.misses);
        EXPECT_EQ(e.accesses, e.hits + e.misses);
    }
}

TEST(ClusterSim, JoinAndLeaveEpochsRebalanceWithoutLosingBooks) {
    SimConfig config = small_config();
    config.epochs = 4;
    config.cluster.nodes = 3;
    config.cluster_join_epoch = 1;
    config.cluster_leave_epoch = 3;
    const metrics::RunResult result = TrainingSimulator{config}.run();
    for (const metrics::EpochMetrics& e : result.epochs) {
        EXPECT_EQ(e.cluster_local_hits + e.peer_hits + e.peer_misses +
                      e.cluster_remote,
                  e.misses);
    }
}

TEST(ClusterSim, CommBudgetSurfacesInEpochMetrics) {
    SimConfig config = small_config();
    config.epochs = 2;
    config.cluster.nodes = 4;
    config.cluster.comm_budget_mb = 0.05;  // starves the peer path
    const metrics::RunResult result = TrainingSimulator{config}.run();
    std::uint64_t throttled = 0;
    for (const metrics::EpochMetrics& e : result.epochs) {
        throttled += e.peer_throttled;
    }
    EXPECT_GT(throttled, 0U);
}

// Cluster mode still excludes the served loader and prefetching; faults
// compose with it now (ComposesWithFaults below), so that pair passes.
TEST(ClusterSim, ClusterIsExclusiveWithFaultsServedAndPrefetch) {
    SimConfig faulted = small_config();
    faulted.cluster.nodes = 2;
    faulted.faults.enabled = true;
    EXPECT_NO_THROW(validate(faulted));

    SimConfig prefetching = small_config();
    prefetching.cluster.nodes = 2;
    prefetching.prefetch_enabled = true;
    EXPECT_THROW(TrainingSimulator{prefetching}.run(), std::invalid_argument);

    SimConfig served = small_config();
    served.cluster.nodes = 2;
    served.served_port = 4242;
    EXPECT_THROW(TrainingSimulator{served}.run(), std::invalid_argument);
}

// Cluster x faults: the cluster's remote legs go through the simulator's
// resilient client, so transient failures and an outage reach the
// cooperative path, and a failed leg takes the same degradation ladder as
// a failed direct fetch. Serial and with four loader workers.
TEST(ClusterSim, ComposesWithFaults) {
    for (const std::size_t workers : {1U, 4U}) {
        SimConfig config = small_config();
        config.worker_threads = workers;
        config.cluster.nodes = 4;
        config.faults.enabled = true;
        config.faults.transient_failure_prob = 0.05;
        config.faults.timeout_ms = 25.0;
        config.faults.outage_start_ms = 400.0;
        config.faults.outage_duration_ms = 250.0;
        config.resilience.max_attempts = 3;
        config.resilience.breaker_failure_threshold = 8;
        config.resilience.breaker_cooldown_ms = 200.0;
        config.resilience.max_substitute_fraction = 0.05;
        const metrics::RunResult result = TrainingSimulator{config}.run();

        ASSERT_EQ(result.epochs.size(), config.epochs) << workers;
        std::uint64_t retries = 0;
        std::uint64_t degraded = 0;
        std::uint64_t peer_hits = 0;
        for (const metrics::EpochMetrics& e : result.epochs) {
            EXPECT_EQ(e.hits + e.misses, e.accesses) << workers;
            EXPECT_EQ(e.cluster_local_hits + e.peer_hits + e.peer_misses +
                          e.cluster_remote,
                      e.misses)
                << workers;
            EXPECT_LE(e.substituted_fraction(),
                      config.resilience.max_substitute_fraction + 1e-12)
                << workers;
            retries += e.fetch_retries;
            degraded += e.fault_substitutions + e.fault_skips;
            peer_hits += e.peer_hits;
        }
        EXPECT_GT(retries, 0U) << workers;
        EXPECT_GT(degraded, 0U) << "the outage must fail some remote legs";
        EXPECT_GT(peer_hits, 0U) << workers;
        EXPECT_GT(result.total_fault_time().count(), 0) << workers;
        EXPECT_GT(result.final_accuracy, 0.15) << workers;
    }
}

}  // namespace
}  // namespace spider::sim

#pragma once

// Multi-node cooperative cache (DESIGN.md §11): N simulated training
// nodes, each owning a consistent-hash slice of the sample-id space
// (util::HashRing with virtual-node weighting) and holding its own
// TwoLayerSemanticCache shard. A node that misses locally asks the id's
// ring owner over a peer-fetch path priced between a local hit and
// remote storage; only the owner ever admits an id, so the aggregate
// cache holds each sample at most once and peer hits substitute for
// full-price remote fetches.
//
// The peer wire is a RemoteStore priced from the PR-6 protocol framing
// (server::get_request_wire_len / get_reply_wire_len fold the real
// encoded GET exchange into the link latency) wrapped in a per-peer
// ResilientStore: peers can brown out or straggle, and the existing
// retry/hedge/breaker machinery — including hedged duplicates against a
// latency-spiking straggler node — is what rescues the tail. A
// GreenDyGNN-style per-epoch communication budget throttles peer bytes:
// once spent, misses fall back to remote storage. Every remote leg goes
// through the caller's ResilientStore, so storage faults reach this layer
// too: a failed remote leg is reported (ServiceResult::ok == false) and
// the simulator's degradation ladder above this layer takes over.
//
// Concurrency: service() is safe from any number of loader workers.
// Membership changes (add_node / remove_node) and epoch/batch
// boundaries are main-thread only, with workers quiesced — the same
// contract the simulator's batch barrier already provides. After a
// rebalance, entries stranded on a no-longer-owning node simply age out
// of that shard: requests only ever consult the current ring owner, so
// a stale resident is never served.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/semantic_cache.hpp"
#include "data/dataset.hpp"
#include "storage/remote_store.hpp"
#include "storage/resilient_store.hpp"
#include "util/hash_ring.hpp"

namespace spider::cluster {

struct ClusterConfig {
    /// Simulated training nodes. The simulator engages the cooperative
    /// path only when > 1 (1 keeps the single-node code bit-identical).
    std::size_t nodes = 2;
    /// Ring points per unit of node weight (util::HashRing).
    std::size_t vnodes_per_node = 64;
    /// Items per node shard (the simulator derives this from
    /// cluster.node_cache_fraction of the dataset).
    std::size_t node_cache_items = 256;
    /// Shard count / read path of each node's TwoLayerSemanticCache.
    std::size_t cache_shards = 1;
    bool cache_lockfree_reads = true;

    /// false = no peer path at all: every node runs an independent
    /// cache and misses go straight to remote storage (the
    /// "storage-only" baseline of bench_multinode).
    bool peer_fetch_enabled = true;
    /// Virtual cost of serving a resident sample to the local trainer.
    double local_hit_ms = 0.02;
    /// Peer link round-trip latency (must sit between local_hit_ms and
    /// the remote fetch cost for the peer path to pay off).
    double peer_latency_ms = 0.45;
    /// Peer link transfer rate, bytes per virtual millisecond
    /// (intra-cluster 100 Gbps ~ 1.25e7).
    double peer_bytes_per_ms = 1.25e7;

    /// Hedged duplicates against slow peer exchanges (tail-at-scale).
    bool hedge_enabled = true;
    /// Fixed hedge delay; 0 = auto (observed p99 exchange latency).
    double hedge_delay_ms = 0.0;
    /// Retry attempts per peer envelope before failing over to remote.
    std::size_t max_attempts = 2;

    /// Per-epoch peer-traffic budget in MiB; 0 = unthrottled. Spent
    /// per exchange (request + reply frames + sample payload); when a
    /// reservation would overshoot, the miss falls back to remote
    /// storage and is counted as throttled.
    double comm_budget_mb = 0.0;

    /// Per-attempt transient-failure probability of every peer link
    /// (peers brown out too; failures fail over to remote storage).
    double peer_transient_prob = 0.0;
    /// Straggler node (-1 = none): its *serving* link draws latency
    /// spikes with this probability/multiplier, so exchanges against it
    /// are the ones hedging must rescue.
    std::int64_t straggler_node = -1;
    double straggler_spike_prob = 0.5;
    double straggler_spike_mult = 8.0;

    /// Seed of the per-peer fault-draw streams (independent per node).
    std::uint64_t seed = 1;
};

/// Where a serviced miss was ultimately satisfied.
enum class ServeSource : std::uint8_t {
    kLocalHit = 0,   ///< requester owns the id and had it resident
    kPeerHit = 1,    ///< ring owner had it resident; paid the wire
    kPeerMiss = 2,   ///< owner fetched remote on our behalf (wire + remote)
    kRemote = 3,     ///< no peer path: own-shard miss, throttle, or failover
};

struct ServiceResult {
    /// false = the remote leg failed (the sample did not arrive); the
    /// caller degrades (substitute / skip and refill).
    bool ok = true;
    ServeSource source = ServeSource::kRemote;
    /// Virtual time of the whole exchange as seen by the requester.
    storage::SimDuration cost{};
    bool hedged = false;
    bool hedge_won = false;
    /// Peer path skipped because the communication budget is spent.
    bool throttled = false;
    /// Peer envelope failed (retries exhausted / breaker open) and the
    /// miss failed over to remote storage.
    bool failover = false;
};

/// Monotone aggregate counters (snapshot-diff for per-epoch rows).
struct ClusterCounters {
    std::uint64_t local_hits = 0;
    std::uint64_t peer_hits = 0;
    std::uint64_t peer_misses = 0;  ///< includes failed remote legs
    /// Remote legs attempted, including every peer miss's; services
    /// sourced kRemote = remote_fetches - peer_misses.
    std::uint64_t remote_fetches = 0;
    std::uint64_t hedges = 0;
    std::uint64_t hedge_wins = 0;
    std::uint64_t throttled = 0;
    std::uint64_t failovers = 0;
    std::uint64_t peer_bytes = 0;
};

class CooperativeCache {
public:
    /// @param remote  The resilient client of the shared remote-storage
    ///                backend; every miss the cluster cannot absorb runs
    ///                one fetch() through it, so its totals keep their
    ///                single-node meaning.
    CooperativeCache(const data::SyntheticDataset& dataset,
                     storage::ResilientStore& remote, ClusterConfig config);

    /// Services a node-local cache miss for `id` raised on `node` at
    /// virtual time `now`. Thread-safe; `node` must be active.
    ServiceResult service(std::uint32_t node, std::uint32_t id,
                          storage::SimDuration now);

    /// Epoch boundary (main thread): resets the communication budget.
    void begin_epoch();
    /// Batch barrier (main thread): advances every peer envelope's
    /// breaker / auto-hedge state with the batch's outcome totals.
    void on_batch_end(storage::SimDuration now);

    /// Adds a fresh node (next unused id) with `weight`; returns its id.
    /// Main thread only, workers quiesced.
    std::uint32_t add_node(double weight = 1.0);
    /// Removes `node` from the ring; its shard's entries are simply
    /// abandoned (requests consult the ring, so they can never be
    /// served stale). Throws when removing the last node.
    void remove_node(std::uint32_t node);

    [[nodiscard]] std::vector<std::uint32_t> active_nodes() const {
        return ring_.nodes();
    }
    [[nodiscard]] std::size_t num_nodes() const { return ring_.num_nodes(); }
    [[nodiscard]] std::uint32_t owner_of(std::uint32_t id) const {
        return ring_.owner_of(id);
    }
    [[nodiscard]] const util::HashRing& ring() const { return ring_; }

    /// Is `id` resident in `node`'s shard? (test/bench inspection)
    [[nodiscard]] bool resident(std::uint32_t node, std::uint32_t id) const;

    [[nodiscard]] ClusterCounters counters() const;
    /// Peer bytes spent since begin_epoch().
    [[nodiscard]] std::uint64_t budget_spent() const {
        return budget_spent_.load(std::memory_order_relaxed);
    }
    /// Wire bytes charged per peer exchange (frames + sample payload).
    [[nodiscard]] std::size_t wire_bytes_per_fetch() const {
        return wire_bytes_;
    }
    /// Nominal (fault-free) virtual cost of one peer exchange.
    [[nodiscard]] storage::SimDuration peer_cost() const;
    /// Virtual cost of one fault-free remote-storage fetch.
    [[nodiscard]] storage::SimDuration remote_cost() const {
        return remote_.nominal_cost();
    }

private:
    struct Node {
        /// This node's slice of the cooperative cache.
        std::unique_ptr<cache::TwoLayerSemanticCache> shard;
        /// The link *to* this node as a peer server: a RemoteStore
        /// priced at peer cost, wrapped in the resilient envelope that
        /// models its brownouts/straggling.
        std::unique_ptr<storage::RemoteStore> link;
        std::unique_ptr<storage::ResilientStore> envelope;
        /// Batch tallies feeding the envelope's breaker at the barrier.
        std::atomic<std::uint64_t> batch_ok{0};
        std::atomic<std::uint64_t> batch_failed{0};
        bool active = false;
    };

    [[nodiscard]] std::unique_ptr<Node> make_node(std::uint32_t id) const;
    /// Bumps and returns the id's access-frequency score (admission /
    /// re-key input of the owner shard).
    [[nodiscard]] double touch_score(std::uint32_t id);
    /// Reserves `wire_bytes_` against the epoch budget; false = spent.
    [[nodiscard]] bool reserve_budget();
    /// One remote leg at virtual time `now` (counted in remote_fetches).
    storage::FetchResult fetch_remote(std::uint32_t id,
                                      storage::SimDuration now);

    const data::SyntheticDataset& dataset_;
    storage::ResilientStore& remote_;
    ClusterConfig config_;
    util::HashRing ring_;

    // Indexed by node id (ids are never reused, so removed slots stay
    // behind as inactive tombstones). unique_ptr: Node holds atomics.
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::atomic<std::uint32_t>> freq_;  // per-id access count

    std::size_t wire_bytes_ = 0;
    storage::SimDuration peer_cost_{};
    std::uint64_t budget_limit_ = 0;  // bytes per epoch; 0 = unlimited
    std::atomic<std::uint64_t> budget_spent_{0};

    std::atomic<std::uint64_t> local_hits_{0};
    std::atomic<std::uint64_t> peer_hits_{0};
    std::atomic<std::uint64_t> peer_misses_{0};
    std::atomic<std::uint64_t> remote_fetches_{0};
    std::atomic<std::uint64_t> hedges_{0};
    std::atomic<std::uint64_t> hedge_wins_{0};
    std::atomic<std::uint64_t> throttled_{0};
    std::atomic<std::uint64_t> failovers_{0};
    std::atomic<std::uint64_t> peer_bytes_{0};
};

}  // namespace spider::cluster

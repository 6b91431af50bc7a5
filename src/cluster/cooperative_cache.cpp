#include "cluster/cooperative_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "server/protocol.hpp"

namespace spider::cluster {

namespace {

/// Fault-draw context of remote legs: a cluster miss is the simulator's
/// demand fetch, so it draws from the demand stream (1).
constexpr std::uint32_t kRemoteContext = 1;
/// Fault-draw context of peer exchanges: independent of the simulator's
/// demand (1) and prefetch (2) streams against remote storage.
constexpr std::uint32_t kPeerContext = 3;

/// Per-node perturbation of the fault-draw seed, so two peers never
/// replay each other's weather.
[[nodiscard]] std::uint64_t node_seed(std::uint64_t seed, std::uint32_t id) {
    return seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(id) + 1));
}

}  // namespace

CooperativeCache::CooperativeCache(const data::SyntheticDataset& dataset,
                                   storage::ResilientStore& remote,
                                   ClusterConfig config)
    : dataset_{dataset},
      remote_{remote},
      config_{std::move(config)},
      ring_{std::max<std::size_t>(config_.vnodes_per_node, 1)},
      freq_(dataset.size()) {
    if (config_.nodes == 0) {
        throw std::invalid_argument{"CooperativeCache: nodes must be >= 1"};
    }
    config_.node_cache_items =
        std::max<std::size_t>(config_.node_cache_items, 1);
    // One GET exchange on the wire: request frame + reply frame + the
    // sample payload riding with the reply.
    wire_bytes_ = server::get_request_wire_len() +
                  server::get_reply_wire_len() +
                  dataset_.spec().bytes_per_sample;
    budget_limit_ = static_cast<std::uint64_t>(config_.comm_budget_mb *
                                               1024.0 * 1024.0);
    nodes_.reserve(config_.nodes);
    for (std::size_t i = 0; i < config_.nodes; ++i) {
        nodes_.push_back(make_node(static_cast<std::uint32_t>(i)));
        ring_.add_node(static_cast<std::uint32_t>(i));
    }
    peer_cost_ = nodes_.front()->link->fetch_cost(0);
}

std::unique_ptr<CooperativeCache::Node> CooperativeCache::make_node(
    std::uint32_t id) const {
    auto node = std::make_unique<Node>();
    // The cluster tier is an exact-id cache: imp_ratio 1.0 gives the
    // whole shard to the Importance section (Case 2/4 admission against
    // the frequency score). Semantic surrogate serving stays in the
    // node-local frontend, which owns the labels and embeddings.
    node->shard = std::make_unique<cache::TwoLayerSemanticCache>(
        config_.node_cache_items, 1.0, config_.cache_shards,
        config_.cache_lockfree_reads);

    // The link *to* this node as a peer server. The protocol frames are
    // folded into the per-request latency; the payload transfer term
    // comes from fetch_cost's bytes_per_sample / bytes_per_ms.
    const double frame_ms =
        static_cast<double>(server::get_request_wire_len() +
                            server::get_reply_wire_len()) /
        config_.peer_bytes_per_ms;
    node->link = std::make_unique<storage::RemoteStore>(
        dataset_, storage::RemoteStoreConfig{
                      .latency_per_sample =
                          storage::from_ms(config_.peer_latency_ms + frame_ms),
                      .bytes_per_ms = config_.peer_bytes_per_ms,
                      .parallelism = 4,
                  });

    const bool straggler =
        config_.straggler_node >= 0 &&
        id == static_cast<std::uint32_t>(config_.straggler_node);
    storage::FaultModelConfig faults;
    faults.enabled = config_.peer_transient_prob > 0.0 || straggler;
    faults.seed = node_seed(config_.seed, id);
    faults.transient_failure_prob = config_.peer_transient_prob;
    if (straggler) {
        faults.latency_spike_prob = config_.straggler_spike_prob;
        faults.latency_spike_mult = config_.straggler_spike_mult;
    }
    storage::ResiliencePolicy policy;
    policy.max_attempts = std::max<std::size_t>(config_.max_attempts, 1);
    // Backoff at wire scale, not storage scale.
    policy.backoff_base_ms = config_.peer_latency_ms;
    policy.backoff_max_ms = config_.peer_latency_ms * 8.0;
    policy.hedge_enabled = config_.hedge_enabled;
    policy.hedge_delay_ms = config_.hedge_delay_ms;
    node->envelope = std::make_unique<storage::ResilientStore>(
        *node->link, faults, policy);
    node->active = true;
    return node;
}

double CooperativeCache::touch_score(std::uint32_t id) {
    return static_cast<double>(
        freq_[id].fetch_add(1, std::memory_order_relaxed) + 1);
}

bool CooperativeCache::reserve_budget() {
    const auto bytes = static_cast<std::uint64_t>(wire_bytes_);
    if (budget_limit_ != 0) {
        // Atomic reservation: an overshooting reservation is rolled back
        // before any wire traffic, so the budget is a hard cap.
        const std::uint64_t prev =
            budget_spent_.fetch_add(bytes, std::memory_order_relaxed);
        if (prev + bytes > budget_limit_) {
            budget_spent_.fetch_sub(bytes, std::memory_order_relaxed);
            return false;
        }
    } else {
        budget_spent_.fetch_add(bytes, std::memory_order_relaxed);
    }
    peer_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return true;
}

storage::FetchResult CooperativeCache::fetch_remote(std::uint32_t id,
                                                   storage::SimDuration now) {
    remote_fetches_.fetch_add(1, std::memory_order_relaxed);
    return remote_.fetch(id, now, kRemoteContext);
}

ServiceResult CooperativeCache::service(std::uint32_t node, std::uint32_t id,
                                        storage::SimDuration now) {
    ServiceResult r;
    const double score = touch_score(id);
    // Remote leg after `wire` of peer traffic: the requester pays both.
    // On success `admit` (the deciding shard, if any) takes the id.
    const auto from_remote = [&](cache::TwoLayerSemanticCache* admit,
                                 ServeSource source,
                                 storage::SimDuration wire) {
        const storage::FetchResult fr = fetch_remote(id, now);
        r.ok = fr.ok;
        r.source = source;
        r.cost = wire + fr.cost;
        if (fr.ok && admit != nullptr) admit->on_miss_fetched(id, score);
        return r;
    };

    // Without a peer path every node is the owner of every id: the
    // storage-only baseline of independent per-node caches.
    const std::uint32_t owner =
        config_.peer_fetch_enabled ? ring_.owner_of(id) : node;
    Node& own = *nodes_[owner];
    if (owner == node) {
        if (own.shard->lookup(id).kind != cache::HitKind::kMiss) {
            own.shard->update_importance_score(id, score);
            local_hits_.fetch_add(1, std::memory_order_relaxed);
            r.source = ServeSource::kLocalHit;
            r.cost = storage::from_ms(config_.local_hit_ms);
            return r;
        }
        return from_remote(own.shard.get(), ServeSource::kRemote, {});
    }

    // Peer path. Budget first: a throttled miss never touches the wire.
    if (!reserve_budget()) {
        throttled_.fetch_add(1, std::memory_order_relaxed);
        r.throttled = true;
        return from_remote(nullptr, ServeSource::kRemote, {});
    }

    const storage::FetchResult fr = own.envelope->fetch(id, now, kPeerContext);
    r.hedged = fr.hedged;
    r.hedge_won = fr.hedge_won;
    if (fr.hedged) {
        hedges_.fetch_add(1, std::memory_order_relaxed);
        // The duplicate is a second full exchange on the wire.
        budget_spent_.fetch_add(wire_bytes_, std::memory_order_relaxed);
        peer_bytes_.fetch_add(wire_bytes_, std::memory_order_relaxed);
    }
    if (fr.hedge_won) hedge_wins_.fetch_add(1, std::memory_order_relaxed);
    if (!fr.ok) {
        own.batch_failed.fetch_add(1, std::memory_order_relaxed);
        failovers_.fetch_add(1, std::memory_order_relaxed);
        r.failover = true;
        return from_remote(nullptr, ServeSource::kRemote, fr.cost);
    }
    own.batch_ok.fetch_add(1, std::memory_order_relaxed);

    if (own.shard->lookup(id).kind != cache::HitKind::kMiss) {
        own.shard->update_importance_score(id, score);
        peer_hits_.fetch_add(1, std::memory_order_relaxed);
        r.source = ServeSource::kPeerHit;
        r.cost = fr.cost;
        return r;
    }
    // Owner misses too: it fetches from remote on the requester's
    // behalf, admits into its own shard (only the owner ever admits),
    // and forwards the sample — the requester pays wire + remote.
    peer_misses_.fetch_add(1, std::memory_order_relaxed);
    return from_remote(own.shard.get(), ServeSource::kPeerMiss, fr.cost);
}

void CooperativeCache::begin_epoch() {
    budget_spent_.store(0, std::memory_order_relaxed);
}

void CooperativeCache::on_batch_end(storage::SimDuration now) {
    for (const std::unique_ptr<Node>& node : nodes_) {
        if (!node->active) continue;
        const std::uint64_t failed =
            node->batch_failed.exchange(0, std::memory_order_relaxed);
        const std::uint64_t ok =
            node->batch_ok.exchange(0, std::memory_order_relaxed);
        node->envelope->on_batch_end(failed, ok, now);
    }
}

std::uint32_t CooperativeCache::add_node(double weight) {
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(make_node(id));
    ring_.add_node(id, weight);
    return id;
}

void CooperativeCache::remove_node(std::uint32_t node) {
    if (ring_.num_nodes() <= 1) {
        throw std::invalid_argument{
            "CooperativeCache: cannot remove the last node"};
    }
    ring_.remove_node(node);  // throws when not a member
    nodes_[node]->active = false;
}

bool CooperativeCache::resident(std::uint32_t node, std::uint32_t id) const {
    return nodes_[node]->shard->probe(id);
}

storage::SimDuration CooperativeCache::peer_cost() const { return peer_cost_; }

ClusterCounters CooperativeCache::counters() const {
    ClusterCounters c;
    c.local_hits = local_hits_.load(std::memory_order_relaxed);
    c.peer_hits = peer_hits_.load(std::memory_order_relaxed);
    c.peer_misses = peer_misses_.load(std::memory_order_relaxed);
    c.remote_fetches = remote_fetches_.load(std::memory_order_relaxed);
    c.hedges = hedges_.load(std::memory_order_relaxed);
    c.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
    c.throttled = throttled_.load(std::memory_order_relaxed);
    c.failovers = failovers_.load(std::memory_order_relaxed);
    c.peer_bytes = peer_bytes_.load(std::memory_order_relaxed);
    return c;
}

}  // namespace spider::cluster

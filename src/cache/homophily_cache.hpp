#pragma once

// Homophily Cache (paper Section 4.2, part 2): stores high-degree graph
// nodes together with their neighbor-ID lists. A request that misses the
// Importance Cache but appears in some resident node's neighbor list is
// served the *high-degree node itself* as a semantic surrogate — similar
// samples affect the model near-identically, so I/O is saved at negligible
// accuracy cost. Updates are FIFO ("all samples are regularly replaced,
// fostering diversity"), one candidate per processed batch.
//
// This class holds the resident nodes and their lists only. The index from
// a neighbor id to the node that serves it lives in the shards of
// TwoLayerSemanticCache (semantic_cache.hpp), which keeps it in step with
// every insert and with the victim lists that evict_oldest() returns.
//
// Victim choice is the section's policy (DESIGN.md §13): the default
// PolicyKind::kFifo is the paper's FIFO (FifoCache); kLru/kLfu/kGdsf/kCost
// are selectable. Iteration and snapshots follow insertion order (each
// entry's `seq`) under every policy. A policy's access signal is the
// re-offer stream: update() on an already-resident key counts as a touch
// (the read path is seqlock wait-free and cannot take recency
// bookkeeping).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/policy.hpp"
#include "util/id_map.hpp"

namespace spider::cache {

class HomophilyCache {
public:
    explicit HomophilyCache(std::size_t capacity,
                            PolicyKind kind = PolicyKind::kFifo);

    [[nodiscard]] std::string name() const { return "Homophily"; }
    [[nodiscard]] PolicyKind policy() const { return kind_; }
    /// Number of resident high-degree nodes (each entry holds one sample
    /// payload; the neighbor-ID lists are metadata, not payload).
    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

    /// Is `id` itself a resident high-degree node?
    [[nodiscard]] bool contains_key(std::uint32_t id) const;

    /// Inserts the batch's highest-degree node with its neighbor list,
    /// unless it is already resident (paper: "which was not previously in
    /// the Homophily Cache"). Evicts the active policy's victim when full
    /// (FIFO head by default). Returns the evicted node id, if any.
    std::optional<std::uint32_t> update(std::uint32_t key,
                                        std::span<const std::uint32_t> neighbors);

    /// Access signal for the policy: the key was re-offered as a batch's
    /// high-degree candidate while already resident (FIFO ignores it).
    /// Returns residency.
    bool touch_key(std::uint32_t key);

    /// Neighbor list of a resident node (empty span if absent) — used by
    /// tests and by the metrics layer.
    [[nodiscard]] std::span<const std::uint32_t> neighbors_of(
        std::uint32_t key) const;

    /// Newest resident key (highest `seq`) accepted by `pred` (degraded-
    /// mode surrogate search; newest first, as recency correlates with
    /// score freshness).
    template <typename Pred>
    [[nodiscard]] std::optional<std::uint32_t> find_key_if(Pred pred) const {
        std::optional<std::uint32_t> best;
        std::uint64_t best_seq = 0;  // every seq is >= 1
        entries_.for_each([&](std::uint32_t key, const Entry& entry) {
            if (entry.seq > best_seq && pred(key)) {
                best = key;
                best_seq = entry.seq;
            }
        });
        return best;
    }

    /// Monotonic insert-generation counter of a resident key (nullopt when
    /// absent). Every successful insert of a key — including a re-insert
    /// after an eviction — gets a fresh value, so a caller that published
    /// derived state (the sharded neighbor index) can later detect that
    /// the generation it published for no longer exists (ABA-safe).
    [[nodiscard]] std::optional<std::uint64_t> seq_of(std::uint32_t key) const;

    /// Visits every resident key in insertion order (ascending `seq`,
    /// oldest first) — view-rebuild and snapshot helper.
    template <typename Fn>
    void for_each_key(Fn fn) const {
        std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
        order.reserve(entries_.size());
        entries_.for_each([&order](std::uint32_t key, const Entry& entry) {
            order.emplace_back(entry.seq, key);
        });
        std::sort(order.begin(), order.end());
        for (const auto& [seq, key] : order) fn(key);
    }

    /// Evicts the policy's next victim (the FIFO head by default) and
    /// returns it with its neighbor list, so the two-layer cache can drop
    /// the victim from its neighbor index.
    std::optional<std::pair<std::uint32_t, std::vector<std::uint32_t>>>
    evict_oldest();

    /// Shrink evicts in the policy's victim order.
    void set_capacity(std::size_t capacity);

private:
    struct Entry {
        std::vector<std::uint32_t> neighbors;
        std::uint64_t seq = 0;
    };

    std::size_t capacity_;
    PolicyKind kind_;
    std::unique_ptr<EvictionCache> policy_;
    std::uint64_t next_seq_ = 0;
    util::IdMap<Entry> entries_;
};

}  // namespace spider::cache

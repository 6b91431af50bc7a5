#pragma once

// Semantic-aware two-layer cache (paper Section 4.2, Figure 9): an
// Importance Cache section and a Homophily Cache section that are exclusive
// (no data exchange). The lookup order and update rules implement
// Algorithm 1 lines 4-13 and the paper's Cases 1-4:
//
//   Case 1  hit Importance Cache                 -> serve as-is
//   Case 3  miss Importance, neighbor match      -> serve the resident
//                                                   high-degree surrogate
//   Case 2  miss both, score <= resident min     -> remote fetch, no admit
//   Case 4  miss both, score >  resident min     -> remote fetch, evict the
//                                                   min, admit the sample
//
// The split between sections is `imp_ratio` of total capacity, adjusted at
// runtime by the Elastic Cache Manager (Section 4.3).
//
// Concurrency (DESIGN.md §8): the cache is sharded by id hash into S
// independent shards, each owning a mutex, an Importance section slice, a
// Homophily section slice, and the slice of the one neighbor index for ids
// hashing to it. Every shard count, 1 included, runs the same code. Every
// public operation locks exactly one shard at a time (homophily updates
// touch the key's shard, then each neighbor's shard in turn), so trainer
// workers on different shards never serialize and no operation can
// deadlock. With one shard the hit/miss/eviction sequence is the original
// unsharded cache's; with S > 1 the Case 2/4 admission rule compares
// against the *per-shard* resident minimum. tests/golden/ pins the
// decisions at 1, 4 and 8 shards.
//
// Lock-free reads (DESIGN.md §8.4): when `lockfree_reads` is on (default),
// `lookup`, `probe`, and the no-op pre-check of `update_importance_score`
// never take the shard mutex. Each shard carries a seqlock-versioned
// residency view (`ShardResidencyView`, seqlock.hpp) that every writer
// keeps in sync under the shard mutex; the sections are reachable only
// through this class, so the view is never behind them. Readers validate
// the version counter around a wait-free table probe, retry on a torn
// snapshot, and fall back to the locked path after a bounded number of
// torn reads.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cache/homophily_cache.hpp"
#include "cache/importance_cache.hpp"
#include "cache/residency_log.hpp"
#include "cache/seqlock.hpp"
#include "util/id_map.hpp"

namespace spider::cache {

enum class HitKind : std::uint8_t {
    kImportance,  // Case 1
    kHomophily,   // Case 3 (served a surrogate)
    kMiss,        // Cases 2 and 4
};

struct Lookup {
    HitKind kind = HitKind::kMiss;
    /// For kHomophily: the surrogate id actually served instead of the
    /// requested one. Otherwise equals the requested id.
    std::uint32_t served_id = 0;
};

class TwoLayerSemanticCache {
public:
    /// Sentinel for the `shards` parameter: resolve to auto_shards(),
    /// capped at max(1, total_capacity) so no shard is left empty.
    static constexpr std::size_t kAutoShards = 0;
    /// Default shard count for concurrent use: min(16, hw_concurrency).
    [[nodiscard]] static std::size_t auto_shards();

    /// Smallest Importance-section fraction the cache operates at. Both
    /// the constructor and set_imp_ratio() clamp valid input up to this
    /// floor, so elastic output and construction agree at the boundary.
    static constexpr double kMinImpRatio = 0.01;

    /// @param total_capacity  Items across both sections and all shards.
    /// @param imp_ratio       Initial Importance-section fraction (0..1];
    ///                        clamped up to kMinImpRatio.
    /// @param shards          Shard count (kAutoShards = min(16,
    ///                        hw_concurrency, max(1, total_capacity))).
    /// @param lockfree_reads  Serve lookup/probe from the seqlock view
    ///                        (off = every read takes the shard mutex).
    /// @param policies        Per-section eviction policies (DESIGN.md
    ///                        §13). The default — semantic importance +
    ///                        FIFO homophily — is the paper's Algorithm 1.
    TwoLayerSemanticCache(std::size_t total_capacity, double imp_ratio,
                          std::size_t shards = 1, bool lockfree_reads = true,
                          SectionPolicies policies = {});

    [[nodiscard]] std::size_t total_capacity() const { return total_capacity_; }
    [[nodiscard]] SectionPolicies section_policies() const {
        const std::lock_guard lock{policies_mu_};
        return policies_;
    }
    [[nodiscard]] double imp_ratio() const {
        return imp_ratio_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
    [[nodiscard]] bool lockfree_reads() const { return lockfree_reads_; }
    /// Which shard `id` hashes to (stable across the cache's lifetime).
    [[nodiscard]] std::size_t shard_of(std::uint32_t id) const;

    /// Read path (Algorithm 1 lines 5-11): Importance first, then the
    /// Homophily neighbor lists. Does not mutate either section. With
    /// lock-free reads on, served from the shard's residency view without
    /// taking the shard mutex; otherwise locks the requested id's shard
    /// only. Safe from any thread.
    [[nodiscard]] Lookup lookup(std::uint32_t id) const;

    /// Wait-free residency probe: would `lookup(id)` hit (Case 1 or 3)?
    /// The prefetch pipeline calls this once per lookahead id; with
    /// lock-free reads on it never blocks behind admissions.
    [[nodiscard]] bool probe(std::uint32_t id) const;

    /// Miss path (line 10): called after the sample was fetched remotely.
    /// Applies the Case 2/4 admission rule with the sample's current score
    /// against the id's shard minimum. Ids resident as Homophily *keys*
    /// are not admitted (paper §4.2: the sections are exclusive). Safe
    /// from any thread.
    ImportanceCache::AdmitResult on_miss_fetched(std::uint32_t id, double score);

    /// Batch-end path (line 22): offer the batch's highest-degree node.
    /// Ids resident in the Importance section are not inserted (section
    /// exclusivity). Safe from any thread; locks one shard at a time.
    std::optional<std::uint32_t> update_homophily(
        std::uint32_t key, std::span<const std::uint32_t> neighbors);

    /// Re-keys a resident importance entry after its global score changed
    /// (scores drift every epoch). No-op when absent — with lock-free
    /// reads on, the no-op case is detected from the residency view
    /// without taking the shard mutex. Safe from any thread.
    void update_importance_score(std::uint32_t id, double score);

    /// Elastic repartition: resizes both sections of every shard to match
    /// `imp_ratio` of the unchanged total capacity (Eq. 8 output, clamped
    /// to [kMinImpRatio, 1]). A shrinking section evicts in its policy's
    /// victim order, and only those victims leave the residency view, in
    /// one write section per shard. Locks shards one at a time; concurrent
    /// lookups/admissions stay valid.
    void set_imp_ratio(double imp_ratio);

    /// Live policy switch (shadow-tuner apply path, DESIGN.md §13):
    /// rebuilds both sections of every shard under the new eviction
    /// policies, preserving the current residency set, scores, and
    /// homophily insertion order. Locks shards one at a time; concurrent
    /// *reads* stay valid throughout. Callers must quiesce concurrent
    /// writers (the tuner applies at an epoch boundary on the driver
    /// thread). No-op when `policies` equals the active pair. Residency
    /// is unchanged, so the neighbor index and the residency view are
    /// left alone and nothing is streamed to the WAL listener.
    void set_section_policies(const SectionPolicies& policies);

    /// Degraded-mode surrogate scan (fault-tolerance ladder, DESIGN.md
    /// §9): any resident id accepted by `accept`, preferring the requested
    /// id's own shard and its Importance section (highest score first).
    /// Read-only; locks one shard at a time. Nullopt when nothing resident
    /// qualifies.
    [[nodiscard]] std::optional<std::uint32_t> find_resident_if(
        std::uint32_t near,
        const std::function<bool(std::uint32_t)>& accept) const;

    // ---- Aggregate inspection (sums over shards, locking each in turn).
    [[nodiscard]] std::size_t importance_size() const;
    [[nodiscard]] std::size_t homophily_size() const;
    [[nodiscard]] std::size_t importance_capacity() const;
    [[nodiscard]] std::size_t homophily_capacity() const;

    // ---- Per-shard inspection (invariant tests and the concurrency bench).
    [[nodiscard]] std::size_t shard_capacity(std::size_t s) const;
    [[nodiscard]] std::size_t shard_importance_capacity(std::size_t s) const;
    [[nodiscard]] std::size_t shard_importance_size(std::size_t s) const;
    [[nodiscard]] std::size_t shard_homophily_capacity(std::size_t s) const;
    [[nodiscard]] std::size_t shard_homophily_size(std::size_t s) const;
    /// Lowest resident importance score of shard `s` (the per-shard
    /// admission threshold).
    [[nodiscard]] std::optional<double> shard_min_score(std::size_t s) const;

    // ---- Whole-cache freeze (cross-shard invariant oracle).

    /// Consistent snapshot of one shard taken with its mutex held.
    struct FrozenShard {
        std::vector<std::pair<std::uint32_t, double>> importance;
        std::vector<std::uint32_t> homophily_keys;
        /// Neighbor-index slice: (neighbor id, resident keys newest-last).
        std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>>
            neighbor_index;
        /// Residency-view dump, for view<->section parity checks.
        std::vector<std::pair<std::uint32_t, ShardResidencyView::Probe>> view;
        std::size_t importance_capacity = 0;
        std::size_t homophily_capacity = 0;
    };
    struct FrozenState {
        std::vector<FrozenShard> shards;
    };

    /// Takes every shard lock (ascending index — safe because no other
    /// operation ever holds two) and dumps the full state. Invariant-test
    /// oracle; O(total residency), not a hot path.
    [[nodiscard]] FrozenState freeze() const;

    /// Test seam: invoked in `update_homophily` after the key was
    /// inserted (key shard unlocked) and before the neighbor-index publish
    /// loop — the window where a concurrent eviction of the key used to
    /// leave dangling index entries. Set before any concurrent use.
    void set_homophily_publish_hook(std::function<void()> hook) {
        publish_hook_ = std::move(hook);
    }

    // ---- Crash-safe warm restart (DESIGN.md §12).

    /// Streams admissions / evictions / score re-keys to `listener`
    /// (typically storage::CacheWal::append). Invoked with the affected
    /// shard's mutex held, so the listener must not call back into the
    /// cache. Set before concurrent use — and *after* restore_from_wal,
    /// or the restore itself gets re-logged. Elastic repartition
    /// evictions are NOT streamed; owners reconcile them by compacting a
    /// dump_residency() snapshot at the next stable point.
    void set_residency_listener(ResidencyListener listener) {
        residency_listener_ = std::move(listener);
    }

    /// Folds the full residency into a RestoreImage (importance pairs,
    /// homophily FIFO oldest-first) for WAL compaction. Takes every shard
    /// lock like freeze(); not a hot path.
    [[nodiscard]] RestoreImage dump_residency() const;

    /// Rebuilds residency from a recovered image through the normal
    /// admission paths (importance re-admitted highest score first, equal
    /// scores by ascending id, then homophily keys in FIFO order), so
    /// section exclusivity, per-shard capacity slices, and the neighbor
    /// index hold by construction even when the shard count changed
    /// across the restart. Returns how many
    /// items are resident afterwards. Call on a fresh cache before
    /// concurrent use.
    std::size_t restore_from_wal(const RestoreImage& image);

private:
    struct Shard {
        Shard(std::size_t imp_capacity, std::size_t hom_capacity,
              const SectionPolicies& policies)
            : importance{imp_capacity, policies.importance},
              homophily{hom_capacity, policies.homophily},
              view{imp_capacity + hom_capacity} {}

        mutable std::mutex mu;
        ImportanceCache importance;
        HomophilyCache homophily;
        /// This shard's slice of the cache's one neighbor index, keyed by
        /// *neighbor* id (so a surrogate probe for id only touches id's
        /// shard). Values are resident homophily keys — possibly in other
        /// shards — newest last.
        util::IdMap<std::vector<std::uint32_t>> neighbor_index;
        /// Seqlock-versioned id -> {section flags, surrogate} table
        /// mirroring the three structures above; written under `mu`, read
        /// without it (DESIGN.md §8.4).
        mutable ShardResidencyView view;
    };

    /// Capacity slice owned by shard `s` of `shards` (total split evenly,
    /// remainder to the low shards).
    [[nodiscard]] static std::size_t slice_capacity(std::size_t total,
                                                    std::size_t shards,
                                                    std::size_t s);
    [[nodiscard]] static std::size_t imp_items_for(std::size_t capacity,
                                                   double ratio);
    void unindex_evicted(std::uint32_t victim,
                         std::span<const std::uint32_t> neighbors);
    /// Locked read path (exact legacy semantics). Caller holds no lock.
    [[nodiscard]] Lookup lookup_locked(const Shard& shard,
                                       std::uint32_t id) const;

    /// Forwards a residency change to the listener, if any. Called with
    /// the affected shard's mutex held.
    void emit(const ResidencyRecord& record) const {
        if (residency_listener_) residency_listener_(record);
    }

    std::size_t total_capacity_;
    std::atomic<double> imp_ratio_;
    bool lockfree_reads_;
    mutable std::mutex policies_mu_;  // guards policies_ (rarely written)
    SectionPolicies policies_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::function<void()> publish_hook_;
    ResidencyListener residency_listener_;
};

}  // namespace spider::cache

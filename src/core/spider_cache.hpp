#pragma once

// SpiderCache facade — the library's primary public API, wiring together
// Algorithm 1 end to end:
//
//   data path     lookup() / on_miss_fetched()        (Section 4.2)
//   learning path observe_batch()                      (Section 4.1)
//   control path  end_epoch()                          (Section 4.3)
//   sampling      epoch_order()                        (graph-based IS)
//
// A typical training loop (see examples/quickstart.cpp):
//
//   spider::core::SpiderCache cache{config};
//   for (epoch ...) {
//     auto order = cache.epoch_order();
//     for (batch : order) {
//       for (id : batch) {
//         auto r = cache.lookup(id);
//         if (r.kind == cache::HitKind::kMiss) { fetch(id); cache.on_miss_fetched(id); }
//         else use r.served_id;
//       }
//       auto out = model.forward(...);
//       model.backward_and_step(...);
//       cache.observe_batch(batch_ids, out.embeddings);
//     }
//     cache.end_epoch(test_accuracy);
//   }

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ann/hnsw.hpp"
#include "cache/semantic_cache.hpp"
#include "core/elastic.hpp"
#include "core/graph_scorer.hpp"
#include "core/samplers.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace spider::core {

struct SpiderCacheConfig {
    /// Total number of samples in the training set (score-table size).
    std::size_t dataset_size = 0;
    /// Label accessor for the graph scorer.
    GraphImportanceScorer::LabelFn label_of;
    /// Total cache capacity, in items.
    std::size_t cache_items = 0;
    /// Embedding dimensionality produced by the model.
    std::size_t embedding_dim = 32;

    ScorerConfig scorer;
    ElasticConfig elastic;
    ann::HnswConfig ann;  // dim is overwritten with embedding_dim

    /// Planned number of training epochs (T in Eq. 8).
    std::size_t total_epochs = 100;
    /// Uniform mixing floor of the multinomial sampler, as a fraction of
    /// the mean score: keeps low-score samples reachable so training
    /// retains coverage of the full distribution.
    double sampler_uniform_floor = 0.10;
    /// Disable the elastic manager to pin a static imp-ratio (the paper's
    /// "Imp-Ratio 90%" ablation).
    bool elastic_enabled = true;
    /// Disable the homophily section entirely (the "SpiderCache-imp"
    /// ablation of Figures 14/15).
    bool homophily_enabled = true;

    /// Worker threads for the scoring half of observe_batch (0 or 1 =
    /// serial). Scores are bitwise-identical either way — the parallel
    /// path only fans out read-only knn queries; `label_of` must then be
    /// safe to call from multiple threads.
    std::size_t scoring_threads = 0;

    /// Shard count of the two-layer cache. 1 (default) reproduces the
    /// unsharded cache's exact hit/miss/eviction sequence; 0 means
    /// min(16, hw_concurrency). Use > 1 when several trainer workers call
    /// lookup/on_miss_fetched concurrently (the data path is thread-safe
    /// at any shard count; sharding is what makes it scale).
    std::size_t cache_shards = 1;

    /// Serve lookup/probe from the cache's seqlock residency view instead
    /// of taking the shard mutex (DESIGN.md §8.4). Semantics are identical
    /// either way; off forces every read through the locked path.
    bool cache_lockfree_reads = true;

    /// Per-section eviction policies (DESIGN.md §13). The default —
    /// semantic importance + FIFO homophily — is the paper's Algorithm 1.
    cache::SectionPolicies cache_policies;

    std::uint64_t seed = 2025;
};

class SpiderCache {
public:
    explicit SpiderCache(SpiderCacheConfig config);

    // ------------------------------------------------ data path (Alg. 1, 4-12)
    [[nodiscard]] cache::Lookup lookup(std::uint32_t id) const;
    /// Wait-free would-it-hit probe (Case 1 or 3) — the prefetch pipeline's
    /// per-lookahead-id check. Never blocks behind admissions when
    /// cache_lockfree_reads is on.
    [[nodiscard]] bool probe(std::uint32_t id) const { return cache_.probe(id); }
    /// After a remote fetch (Alg. 1 line 10): Case 2/4 admission.
    cache::ImportanceCache::AdmitResult on_miss_fetched(std::uint32_t id);

    // -------------------------------------------- learning path (Alg. 1, 14-22)
    /// Feeds the batch's embeddings into the ANN graph, refreshes the
    /// global scores of those samples, and offers the batch's highest-
    /// degree node to the Homophily Cache.
    void observe_batch(std::span<const std::uint32_t> ids,
                       const tensor::Matrix& embeddings);

    /// The most recent observe_batch's homophily offer: the batch's
    /// highest-degree node and its surrogate-safe neighbor list, recorded
    /// even when the live insert was rejected (already resident, section
    /// exclusivity). Empty neighbors => the batch produced no offer. Lets
    /// the shadow tuner replay the exact offer stream. Cleared at the next
    /// observe_batch.
    struct HomophilyOffer {
        std::uint32_t key = 0;
        std::vector<std::uint32_t> neighbors;
    };
    [[nodiscard]] const HomophilyOffer& last_homophily_offer() const {
        return last_offer_;
    }

    // ------------------------------------------------ control path (Alg. 1, 24)
    /// Per-epoch: feeds the Elastic Cache Manager and repartitions the
    /// cache. Returns the imp-ratio now in force.
    double end_epoch(double test_accuracy);

    // ------------------------------------------------------------- sampling
    /// Graph-IS multinomial order for the next epoch.
    [[nodiscard]] std::vector<std::uint32_t> epoch_order();

    /// Epoch-crossing lookahead (DESIGN.md §8.3): the order epoch e+1
    /// *will* use, drawn now. Call during epoch e's tail — the graph-IS
    /// scores are final once the epoch's last observe_batch has run, so
    /// the draw is bit-identical to the one the post-end_epoch
    /// epoch_order() call would make (the draw is cached and returned by
    /// that call; repeated peeks are free).
    [[nodiscard]] const std::vector<std::uint32_t>& peek_next_epoch_order();

    // ------------------------------------------------- degraded mode (§9)
    /// Best resident stand-in for `id` when its remote fetch failed: the
    /// Case-3 homophily surrogate if one exists, otherwise the highest-
    /// scored resident sample of the same class. Read-only (no admission,
    /// no counters); nullopt when nothing compatible is resident. Safe
    /// from any thread.
    [[nodiscard]] std::optional<std::uint32_t> degraded_surrogate(
        std::uint32_t id) const;

    // --------------------------------------------- warm restart (§12)
    /// Rebuilds the two-layer residency from a recovered WAL image (see
    /// TwoLayerSemanticCache::restore_from_wal) and seeds the global
    /// score table with the logged scores — the scorer refines them as
    /// training resumes. Returns the resident item count afterwards.
    /// Call on a fresh instance, before any listener is attached.
    std::size_t restore_from_wal(const cache::RestoreImage& image);

    // ----------------------------------------------------------- inspection
    [[nodiscard]] std::span<const double> scores() const { return scores_; }
    [[nodiscard]] double score_std() const;
    [[nodiscard]] const cache::TwoLayerSemanticCache& cache() const {
        return cache_;
    }
    [[nodiscard]] cache::TwoLayerSemanticCache& cache() { return cache_; }
    [[nodiscard]] double imp_ratio() const { return cache_.imp_ratio(); }
    [[nodiscard]] const ElasticCacheManager& elastic() const { return elastic_; }
    [[nodiscard]] const GraphImportanceScorer& scorer() const { return scorer_; }
    [[nodiscard]] const ann::HnswIndex& index() const { return index_; }
    [[nodiscard]] std::size_t current_epoch() const { return epoch_; }

private:
    SpiderCacheConfig config_;
    ann::HnswIndex index_;
    GraphImportanceScorer scorer_;
    cache::TwoLayerSemanticCache cache_;
    ElasticCacheManager elastic_;
    std::vector<double> scores_;
    GraphIsSampler sampler_;
    HomophilyOffer last_offer_;
    std::size_t epoch_ = 0;
    /// Present iff config_.scoring_threads > 1.
    std::unique_ptr<util::ThreadPool> scoring_pool_;
};

}  // namespace spider::core

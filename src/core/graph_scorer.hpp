#pragma once

// Graph-based importance scoring (paper Section 4.1). Each sample is a node
// in a similarity graph over embeddings, maintained incrementally inside an
// HNSW index. A sample's global importance (Eq. 4) is
//
//     score(x) = ln( 1/x_same + x_other/neighbor_max + 1 )
//
// where x_same / x_other count edge-connected neighbors sharing /
// differing from x's class. The sample itself is indexed before scoring and
// counts as its own same-class neighbor (distance 0), which keeps Part 1
// finite — the paper's four sample states then order exactly as described:
// well-classified < {boundary, isolated} < misclassified.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ann/hnsw.hpp"
#include "util/thread_pool.hpp"

namespace spider::core {

struct ScorerConfig {
    /// Eq. 2 decay rate.
    double lambda = 2.0;
    /// Eq. 3 similarity threshold for an edge.
    double alpha = 0.15;
    /// L2-normalize embeddings before indexing. Keeps the edge threshold
    /// meaningful across training: raw MLP/CNN embedding norms grow as the
    /// model trains, which would push every pairwise distance past a fixed
    /// threshold and empty the graph. Unit-norm embeddings make Eq. 3
    /// scale-invariant (distances live in [0, 2]).
    bool normalize_embeddings = true;
    /// Similarity floor for *surrogate* edges: a neighbor may stand in for
    /// a sample in the Homophily Cache only when sim(x,y) > surrogate_alpha
    /// (a much stricter bar than the scoring threshold alpha — surrogates
    /// must be near-duplicates, not merely same-cluster).
    double surrogate_alpha = 0.35;
    /// Neighbors requested from the ANN index per scoring query.
    std::size_t neighbor_k = 32;
    /// Eq. 4 normalizer. The paper sets this to 500, the hnswlib default
    /// neighbor-list bound, because it scores against *unbounded* HNSW
    /// adjacency; with a bounded k-NN scoring query the equivalent
    /// normalizer is the maximum achievable degree (~2k), keeping Part 2's
    /// dynamic range the same as in the paper's dense regions.
    std::size_t neighbor_max = 64;
    /// ANN beam width for scoring queries (0 = index default).
    std::size_t ef_search = 0;
    /// Skip re-indexing an embedding that moved less than this L2
    /// distance (after normalization) since its last upsert; the sample
    /// is then scored against its stored vector. 0 re-indexes every time.
    /// The default stays 0: embeddings move further than 0.1 between
    /// visits almost always, so smaller thresholds skip next to nothing
    /// (EXPERIMENTS.md, "min_update_distance sweep").
    double min_update_distance = 0.0;
};

struct ScoreResult {
    double score = 0.0;
    std::uint32_t x_same = 0;   // includes the sample itself
    std::uint32_t x_other = 0;
    /// Edge-connected neighbor ids (excluding the sample itself) — the
    /// graph edges of Eq. 3, used for degree analysis.
    std::vector<std::uint32_t> neighbor_ids;
    /// The subset of neighbor_ids within the stricter surrogate threshold —
    /// the neighbor list stored with high-degree nodes in the Homophily
    /// Cache (safe to substitute in training).
    std::vector<std::uint32_t> close_neighbor_ids;
};

class GraphImportanceScorer {
public:
    using LabelFn = std::function<std::uint32_t(std::uint32_t)>;

    GraphImportanceScorer(ann::HnswIndex& index, ScorerConfig config,
                          LabelFn label_of);

    [[nodiscard]] const ScorerConfig& config() const { return config_; }
    [[nodiscard]] double distance_threshold() const { return threshold_; }

    /// Inserts/refreshes a sample's embedding in the ANN index (Algorithm 1
    /// line 15). Returns whether the index was actually touched (false when
    /// the embedding moved less than min_update_distance).
    bool update_embedding(std::uint32_t id, std::span<const float> embedding);

    /// Eq. 4 for one sample, querying the current graph (Algorithm 1
    /// line 17). The sample must have been indexed first.
    [[nodiscard]] ScoreResult score(std::uint32_t id) const;

    /// Scores a whole batch. With a pool of >= 2 threads the per-sample
    /// normalize+knn+count work fans out via ThreadPool::parallel_for —
    /// safe because knn queries are concurrent readers of the index (see
    /// hnsw.hpp's phase contract; no upserts may run during the call) —
    /// and `label_of` must be callable from multiple threads. Results are
    /// positionally identical to calling score(ids[i]) serially; an id
    /// that repeats in the batch is queried once and its result copied.
    [[nodiscard]] std::vector<ScoreResult> score_batch(
        std::span<const std::uint32_t> ids,
        util::ThreadPool* pool = nullptr) const;

    /// Number of upserts actually applied (perf counter).
    [[nodiscard]] std::uint64_t applied_updates() const { return updates_; }
    [[nodiscard]] std::uint64_t skipped_updates() const { return skips_; }

private:
    /// Copies + optionally L2-normalizes an embedding for indexing.
    [[nodiscard]] std::vector<float> prepare(
        std::span<const float> embedding) const;

    ann::HnswIndex& index_;
    ScorerConfig config_;
    LabelFn label_of_;
    double threshold_;
    double surrogate_threshold_;
    std::uint64_t updates_ = 0;
    std::uint64_t skips_ = 0;
};

}  // namespace spider::core

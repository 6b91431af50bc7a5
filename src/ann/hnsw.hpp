#pragma once

// Hierarchical Navigable Small World graph (Malkov & Yashunin, 2018),
// implemented from scratch: multi-layer greedy search, heuristic neighbor
// selection, dynamic insert and in-place update. This is the ANN substrate
// the paper builds its semantic graph on (it uses the hnswlib library; we
// reproduce the algorithm).
//
// Thread-safety: reader/writer *phase* contract. Queries (knn, vector_of,
// degree, contains) may run concurrently with each other — each holds a
// shared lock, uses pooled per-query search state, and adds its distance
// count to the relaxed-atomic counter once. upsert() is a writer: it takes
// the lock exclusively, so interleaving upserts with queries is correct
// but serializes. The intended shape (and what the batch scorer does) is
// phased: an update phase of upserts, then a scoring phase that fans knn
// across a thread pool. Spans returned by vector_of() point into the
// index's vector arena and are invalidated by the next upsert, exactly
// like iterator invalidation on a std::vector.
//
// Ties: candidates order by (distance, internal id), and internal ids
// follow insertion order, so equal distances come back from knn (and feed
// neighbour selection) in the order their labels were first inserted.
//
// Inputs: upsert and knn reject a vector with a NaN or infinite component
// (std::invalid_argument), so every distance is a finite non-negative
// float or +inf from overflow, and distances order as their bit patterns
// do. An index holds fewer than 2^31 nodes: upsert rejects the new label
// that would make size() reach 2^31.

#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "ann/bruteforce.hpp"  // Neighbor
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace spider::ann {

struct HnswConfig {
    std::size_t dim = 32;
    /// Link budget per node on layers > 0; layer 0 allows 2*M. A list
    /// gaining back-links may run M/2 past its budget before it is pruned
    /// back to it, so layer-0 out-degree stays within 2*M + M/2, apart
    /// from the rare last in-edges a prune must keep.
    std::size_t M = 12;
    /// Beam width during construction.
    std::size_t ef_construction = 64;
    /// Default beam width during search (raise for higher recall).
    std::size_t ef_search = 48;
    std::uint64_t seed = 7;
};

class HnswIndex {
public:
    explicit HnswIndex(HnswConfig config);

    // Movable (indexes are built in factories and returned by value) but
    // not copyable; moving must not race with concurrent queries.
    HnswIndex(HnswIndex&& other) noexcept;
    HnswIndex& operator=(HnswIndex&& other) noexcept;
    HnswIndex(const HnswIndex&) = delete;
    HnswIndex& operator=(const HnswIndex&) = delete;
    ~HnswIndex() = default;

    [[nodiscard]] const HnswConfig& config() const { return config_; }
    [[nodiscard]] std::size_t size() const { return nodes_.size(); }
    [[nodiscard]] bool contains(std::uint32_t label) const;

    /// Inserts a new vector, or — when `label` already exists — replaces
    /// its vector in place and rewires its links at every level (the
    /// "dynamic sample update" the paper relies on: embeddings drift every
    /// epoch as the model trains). Writer: takes the phase lock exclusively.
    /// Throws std::invalid_argument, changing nothing, on a wrong
    /// dimension, a non-finite component, or a new label when size() is
    /// already 2^31 - 1.
    void upsert(std::uint32_t label, std::span<const float> vec);

    /// K nearest neighbors by Euclidean distance, ascending. `ef` overrides
    /// ef_search when nonzero. The query label itself is *not* excluded.
    /// Reader: safe to call from many threads concurrently. Throws
    /// std::invalid_argument on a wrong dimension or a non-finite component.
    [[nodiscard]] std::vector<Neighbor> knn(std::span<const float> query,
                                            std::size_t k,
                                            std::size_t ef = 0) const;

    /// Current stored vector for a label (empty if absent).
    [[nodiscard]] std::optional<std::span<const float>> vector_of(
        std::uint32_t label) const;

    /// Layer-0 out-degree of a label's node (0 if absent). High-degree
    /// nodes are the homophily-cache candidates.
    [[nodiscard]] std::size_t degree(std::uint32_t label) const;

    /// Estimated resident bytes of the graph + vectors (Table 2 support).
    [[nodiscard]] std::size_t memory_bytes() const;

    /// Number of distance computations since construction (perf counters
    /// for the microbench). Exact even under concurrent queries — each
    /// query or upsert adds its own count to a relaxed atomic once.
    [[nodiscard]] std::uint64_t distance_computations() const {
        return dist_comps_.load(std::memory_order_relaxed);
    }

    // Binary persistence (ann/serialize.hpp).
    friend void save_index(const HnswIndex& index, std::ostream& os);
    friend HnswIndex load_index(std::istream& is);

private:
    struct Node {
        std::uint32_t label = 0;
        /// links[l] = neighbor internal-ids at layer l; size() = level + 1.
        std::vector<std::vector<std::uint32_t>> links;
        /// in_degree[l] = number of edges pointing at this node at layer l.
        /// The pruning paths preserve in_degree >= 1 so every node stays
        /// reachable by the directed greedy search even under heavy
        /// update churn (embeddings drift every epoch).
        std::vector<std::uint32_t> in_degree;
    };

    struct Candidate {
        float distance;
        std::uint32_t id;
        bool operator<(const Candidate& other) const {
            return distance < other.distance ||
                   (distance == other.distance && id < other.id);
        }
    };

    /// Epoch-stamped id set: stamp[id] == epoch means "in the set", so
    /// starting a fresh set is one increment, not a clear.
    struct Marks {
        std::vector<std::uint32_t> stamp;
        std::uint32_t epoch = 0;

        /// Empties the set and makes room for ids < n.
        void reset(std::size_t n);
        void add(std::uint32_t id) { stamp[id] = epoch; }
        [[nodiscard]] bool has(std::uint32_t id) const {
            return stamp[id] == epoch;
        }
    };

    /// Per-query search state: the visited set, the beam and the
    /// expansion scratch. Leased from a pool so concurrent queries never
    /// share one and steady state allocates nothing.
    struct VisitTable {
        Marks visited;
        /// The beam: the best candidates so far, ascending, as packed keys
        /// (see pack()) whose low bit flags a slot once its links are
        /// scanned. A search uses a prefix of it.
        std::vector<std::uint64_t> beam;
        /// The unvisited neighbours of the node being expanded and their
        /// distances, computed in one kernel call before the beam sees
        /// them. greedy_closest uses fresh_dist for a whole link list.
        std::vector<std::uint32_t> fresh;
        std::vector<float> fresh_dist;
    };

    class VisitTablePool {
    public:
        /// Pops a free table, or makes one.
        [[nodiscard]] VisitTable acquire();
        void release(VisitTable&& table);

    private:
        std::mutex mutex_;
        std::vector<VisitTable> free_;
    };

    /// RAII lease so a table returns to the pool even on exceptions.
    struct VisitLease {
        explicit VisitLease(VisitTablePool& p)
            : pool{&p}, table{p.acquire()} {}
        ~VisitLease() { pool->release(std::move(table)); }
        VisitLease(const VisitLease&) = delete;
        VisitLease& operator=(const VisitLease&) = delete;

        VisitTablePool* pool;
        VisitTable table;
    };

    /// Squared L2 (monotone in L2; sqrt only at the API edge). Callers
    /// count their own calls and add the total to dist_comps_ once.
    [[nodiscard]] float dist(const float* a, const float* b) const {
        return kernels_->squared_l2(a, b, config_.dim);
    }
    /// dist(query, point(ids[j])) into out[j] for j < count, in one kernel
    /// call; stops after the first out[j] < stop_below and returns its j,
    /// else returns count (see simd::Kernels::squared_l2_ids).
    std::size_t dists_to(const float* query, const std::uint32_t* ids,
                         std::size_t count, float stop_below,
                         float* out) const {
        return kernels_->squared_l2_ids(query, vectors_.data(), ids, count,
                                        config_.dim, stop_below, out);
    }
    /// A beam key: (bits(distance) << 32) | (id << 1), expanded flag clear.
    /// Non-negative floats order as their bits do, and ids are unique
    /// within a search, so keys order exactly as Candidate does.
    [[nodiscard]] static std::uint64_t pack(float distance, std::uint32_t id) {
        return (std::uint64_t{std::bit_cast<std::uint32_t>(distance)} << 32) |
               (std::uint64_t{id} << 1);
    }
    [[nodiscard]] static Candidate unpack(std::uint64_t key) {
        return {std::bit_cast<float>(static_cast<std::uint32_t>(key >> 32)),
                static_cast<std::uint32_t>(key) >> 1};
    }
    [[nodiscard]] const float* point(std::uint32_t id) const {
        return vectors_.data() + std::size_t{id} * config_.dim;
    }
    [[nodiscard]] std::size_t random_level();
    [[nodiscard]] std::size_t max_links(std::size_t layer) const {
        return layer == 0 ? config_.M * 2 : config_.M;
    }

    /// Appends one vector to the arena. `vec` may point into the arena.
    void append_vector(std::span<const float> vec);

    /// Greedy descent on one layer: returns the closest node found.
    /// `table` lends its distance scratch.
    [[nodiscard]] std::uint32_t greedy_closest(const float* query,
                                               std::uint32_t entry,
                                               std::size_t layer,
                                               VisitTable& table,
                                               std::uint64_t& comps) const;

    /// Beam search on one layer; returns up to `ef` packed keys sorted
    /// ascending by (distance, id). The result lives in `table` and is
    /// valid until its next search.
    [[nodiscard]] std::span<const std::uint64_t> search_layer(
        const float* query, std::uint32_t entry, std::size_t ef,
        std::size_t layer, VisitTable& table, std::uint64_t& comps) const;

    /// Heuristic neighbor selection (Algorithm 4 of the HNSW paper): keeps
    /// a candidate only if it is closer to the query than to every
    /// already-kept neighbor, preserving graph navigability. `candidates`
    /// must be sorted by (distance, id); writes the choice to `selected`.
    void select_neighbors(std::span<const Candidate> candidates,
                          std::size_t m,
                          std::vector<std::uint32_t>& selected,
                          std::uint64_t& comps);

    /// Connects `id` to `neighbors` bidirectionally at `layer`. A
    /// neighbor whose list then exceeds its link budget by more than M/2
    /// is shrunk back to the budget via the same heuristic.
    void link(std::uint32_t id, std::span<const std::uint32_t> neighbors,
              std::size_t layer, std::uint64_t& comps);

    /// (Re)wires the links of node `id` across all its layers, starting the
    /// descent from the current entry point. Shared by insert and update.
    void wire_node(std::uint32_t id, std::uint64_t& comps);

    HnswConfig config_;
    double level_lambda_;  // 1 / ln(M)
    util::Rng rng_;
    /// Resolved once: the dispatched kernel table, called without a
    /// wrapper.
    const tensor::simd::Kernels* kernels_;
    std::vector<Node> nodes_;
    /// All vectors, contiguous: node i's vector is [i*dim, (i+1)*dim).
    std::vector<float> vectors_;
    std::unordered_map<std::uint32_t, std::uint32_t> label_to_id_;
    std::uint32_t entry_point_ = 0;
    std::size_t max_level_ = 0;
    bool empty_ = true;
    mutable std::atomic<std::uint64_t> dist_comps_{0};
    mutable VisitTablePool visit_pool_;
    // Writer-owned scratch (used only under the exclusive lock).
    Marks marks_;
    std::vector<std::uint32_t> selected_;
    std::vector<std::uint32_t> pruned_;
    std::vector<float> dists_;
    std::vector<Candidate> cands_;
    /// Reader/writer phase lock: queries shared, upserts exclusive.
    mutable std::shared_mutex phase_mutex_;
};

}  // namespace spider::ann

#include "ann/hnsw.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace spider::ann {

namespace {

/// Throws unless `vec` has `dim` finite components.
void check_input(std::span<const float> vec, std::size_t dim,
                 const char* what) {
    if (vec.size() != dim) {
        throw std::invalid_argument{std::string{what} + ": bad dimension"};
    }
    for (const float x : vec) {
        if (!std::isfinite(x)) {
            throw std::invalid_argument{std::string{what} +
                                        ": non-finite component"};
        }
    }
}

/// Internal ids are packed into beam keys as id << 1 (hnsw.hpp).
constexpr std::size_t kMaxNodes = std::size_t{1} << 31;

}  // namespace

HnswIndex::HnswIndex(HnswConfig config)
    : config_{config},
      level_lambda_{1.0 / std::log(static_cast<double>(std::max<std::size_t>(config.M, 2)))},
      rng_{config.seed},
      kernels_{&tensor::simd::active_kernels()} {
    if (config_.dim == 0) throw std::invalid_argument{"HnswIndex: dim must be > 0"};
    if (config_.M < 2) throw std::invalid_argument{"HnswIndex: M must be >= 2"};
    if (config_.ef_construction < config_.M) {
        throw std::invalid_argument{"HnswIndex: ef_construction must be >= M"};
    }
}

HnswIndex::HnswIndex(HnswIndex&& other) noexcept
    : config_{other.config_},
      level_lambda_{other.level_lambda_},
      rng_{other.rng_},
      kernels_{other.kernels_},
      nodes_{std::move(other.nodes_)},
      vectors_{std::move(other.vectors_)},
      label_to_id_{std::move(other.label_to_id_)},
      entry_point_{other.entry_point_},
      max_level_{other.max_level_},
      empty_{other.empty_},
      dist_comps_{other.dist_comps_.load(std::memory_order_relaxed)} {
    // visit_pool_ / phase_mutex_ / scratch start fresh: a moved index has
    // no in-flight queries by precondition.
}

HnswIndex& HnswIndex::operator=(HnswIndex&& other) noexcept {
    if (this != &other) {
        config_ = other.config_;
        level_lambda_ = other.level_lambda_;
        rng_ = other.rng_;
        kernels_ = other.kernels_;
        nodes_ = std::move(other.nodes_);
        vectors_ = std::move(other.vectors_);
        label_to_id_ = std::move(other.label_to_id_);
        entry_point_ = other.entry_point_;
        max_level_ = other.max_level_;
        empty_ = other.empty_;
        dist_comps_.store(other.dist_comps_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
    return *this;
}

void HnswIndex::Marks::reset(std::size_t n) {
    if (stamp.size() < n) {
        stamp.resize(n, 0);
    }
    ++epoch;
    if (epoch == 0) {  // wrapped: reset stamps
        std::fill(stamp.begin(), stamp.end(), 0);
        epoch = 1;
    }
}

HnswIndex::VisitTable HnswIndex::VisitTablePool::acquire() {
    const std::lock_guard lock{mutex_};
    if (free_.empty()) return {};
    VisitTable table = std::move(free_.back());
    free_.pop_back();
    return table;
}

void HnswIndex::VisitTablePool::release(VisitTable&& table) {
    const std::lock_guard lock{mutex_};
    free_.push_back(std::move(table));
}

bool HnswIndex::contains(std::uint32_t label) const {
    const std::shared_lock lock{phase_mutex_};
    return label_to_id_.contains(label);
}

std::size_t HnswIndex::random_level() {
    const double u = std::max(rng_.uniform(), 1e-12);
    const auto level = static_cast<std::size_t>(-std::log(u) * level_lambda_);
    return std::min<std::size_t>(level, 31);
}

void HnswIndex::append_vector(std::span<const float> vec) {
    const std::size_t used = vectors_.size();
    if (used + vec.size() > vectors_.capacity()) {
        // Grow by hand: `vec` may point into the buffer being replaced, so
        // copy it before the old buffer is freed.
        std::vector<float> grown;
        grown.reserve(std::max(2 * vectors_.capacity(), used + vec.size()));
        grown.assign(vectors_.begin(), vectors_.end());
        grown.insert(grown.end(), vec.begin(), vec.end());
        vectors_ = std::move(grown);
        return;
    }
    vectors_.resize(used + vec.size());  // no reallocation: `vec` stays valid
    std::copy(vec.begin(), vec.end(),
              vectors_.begin() + static_cast<std::ptrdiff_t>(used));
}

std::uint32_t HnswIndex::greedy_closest(const float* query,
                                        std::uint32_t entry,
                                        std::size_t layer,
                                        VisitTable& table,
                                        std::uint64_t& comps) const {
    std::uint32_t current = entry;
    float current_dist = dist(query, point(current));
    std::uint64_t computed = 1;
    std::vector<float>& dists = table.fresh_dist;
    bool improved = true;
    while (improved) {
        improved = false;
        // The whole list's distances first, then the sequential scan: the
        // list is the one `current` had when the scan began.
        const std::vector<std::uint32_t>& links = nodes_[current].links[layer];
        dists.resize(std::max(dists.size(), links.size()));
        dists_to(query, links.data(), links.size(), 0.0F, dists.data());
        computed += links.size();
        for (std::size_t j = 0; j < links.size(); ++j) {
            if (dists[j] < current_dist) {
                current = links[j];
                current_dist = dists[j];
                improved = true;
            }
        }
    }
    comps += computed;
    return current;
}

std::span<const std::uint64_t> HnswIndex::search_layer(
    const float* query, std::uint32_t entry, std::size_t ef,
    std::size_t layer, VisitTable& table, std::uint64_t& comps) const {
    // One lease covers a whole descent; a fresh epoch per layer resets the
    // visited set without touching memory.
    Marks& visited = table.visited;
    visited.reset(nodes_.size());
    std::vector<std::uint64_t>& beam = table.beam;
    std::vector<std::uint32_t>& fresh = table.fresh;
    std::vector<float>& fresh_dist = table.fresh_dist;
    const std::size_t cap = std::min(ef, nodes_.size());
    beam.resize(std::max(beam.size(), cap));

    beam[0] = pack(dist(query, point(entry)), entry);
    visited.add(entry);
    std::uint64_t computed = 1;
    std::size_t size = 1;
    // Expand the nearest unexpanded slot until none is left: the nodes the
    // HNSW paper's two-heap search pops, in the same order (DESIGN.md §7).
    std::size_t cursor = 0;  // every slot before it is expanded
    while (cursor < size) {
        beam[cursor] |= 1;  // expanded
        const std::vector<std::uint32_t>& links =
            nodes_[unpack(beam[cursor]).id].links[layer];
        fresh.resize(std::max(fresh.size(), links.size()));
        fresh_dist.resize(fresh.size());
        // Keep the unvisited neighbours without a branch: write every
        // one, advance past it only if it was new.
        std::size_t n = 0;
        for (std::uint32_t neighbor : links) {
            fresh[n] = neighbor;
            n += static_cast<std::size_t>(!visited.has(neighbor));
            visited.add(neighbor);
        }
        dists_to(query, fresh.data(), n, 0.0F, fresh_dist.data());
        computed += n;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t key = pack(fresh_dist[i], fresh[i]);
            // The gate compares distance halves only: !(d < worst).
            if (size == cap && (key >> 32) >= (beam[cap - 1] >> 32)) continue;
            // Insert in (distance, id) order, shifting the tail one slot
            // right while scanning; a full beam drops its worst.
            std::size_t pos = std::min(size, cap - 1);
            size = pos + 1;
            for (; pos > 0 && key < beam[pos - 1]; --pos) {
                beam[pos] = beam[pos - 1];
            }
            beam[pos] = key;
            cursor = std::min(cursor, pos);
        }
        while (cursor < size && (beam[cursor] & 1) != 0) ++cursor;
    }
    comps += computed;
    return {beam.data(), size};
}

void HnswIndex::select_neighbors(std::span<const Candidate> candidates,
                                 std::size_t m,
                                 std::vector<std::uint32_t>& selected,
                                 std::uint64_t& comps) {
    selected.clear();
    dists_.resize(std::max(dists_.size(), m));
    std::uint64_t computed = 0;
    for (const Candidate& cand : candidates) {
        if (selected.size() >= m) break;
        // Keep only candidates closer to the query than to any kept
        // neighbor — spreads links across directions (HNSW Algorithm 4).
        // The kernel stops at the first kept neighbour that is closer, so
        // it computes exactly the distances the check needs.
        const std::size_t closer =
            dists_to(point(cand.id), selected.data(), selected.size(),
                     cand.distance, dists_.data());
        if (closer < selected.size()) {
            computed += closer + 1;
        } else {
            computed += selected.size();
            selected.push_back(cand.id);
        }
    }
    comps += computed;
    // Backfill with nearest rejected candidates if underfull (keeps graphs
    // connected in clustered data).
    if (selected.size() < m) {
        marks_.reset(nodes_.size());
        for (std::uint32_t kept : selected) marks_.add(kept);
        for (const Candidate& cand : candidates) {
            if (selected.size() >= m) break;
            if (!marks_.has(cand.id)) {
                selected.push_back(cand.id);
                marks_.add(cand.id);
            }
        }
    }
}

void HnswIndex::link(std::uint32_t id,
                     std::span<const std::uint32_t> neighbors,
                     std::size_t layer, std::uint64_t& comps) {
    auto& own_links = nodes_[id].links[layer];
    // Replace out-edges; maintain the targets' in-degree counters. An old
    // target whose in-degree would hit zero keeps its edge (appended past
    // the budget) — dropping a node's last in-edge would cut it off from
    // the directed search graph. Targets both old and new keep their count.
    // `neighbors` is selected_, so pruned_ is free until the prune below:
    // it collects the old targets kept for their last in-edge.
    marks_.reset(nodes_.size());
    for (std::uint32_t target : neighbors) marks_.add(target);
    std::vector<std::uint32_t>& keep = pruned_;
    keep.clear();
    for (std::uint32_t old_target : own_links) {
        if (marks_.has(old_target)) continue;  // still linked
        auto& count = nodes_[old_target].in_degree[layer];
        if (count <= 1) {
            keep.push_back(old_target);
        } else {
            --count;
        }
    }
    marks_.reset(nodes_.size());
    for (std::uint32_t old_target : own_links) marks_.add(old_target);
    for (std::uint32_t target : neighbors) {
        if (!marks_.has(target)) ++nodes_[target].in_degree[layer];
    }
    own_links.assign(neighbors.begin(), neighbors.end());
    own_links.insert(own_links.end(), keep.begin(), keep.end());

    const std::size_t budget = max_links(layer);
    for (std::uint32_t neighbor : neighbors) {
        auto& back = nodes_[neighbor].links[layer];
        if (std::find(back.begin(), back.end(), id) != back.end()) continue;
        back.push_back(id);
        ++nodes_[id].in_degree[layer];
        // Degree slack (as in FreshDiskANN): a back-list may run M/2 past
        // its budget before it is pruned, and then back to the budget, so
        // one heuristic prune pays for M/2 + 1 added edges.
        if (back.size() > budget + config_.M / 2) {
            // Shrink with the same heuristic, from the neighbor's view —
            // but (a) never prune the edge just added (it may be the
            // updated node's only in-edge) and (b) never prune an edge
            // that is its target's *last* in-edge anywhere: either would
            // make a node unreachable by the directed greedy search.
            dists_.resize(std::max(dists_.size(), back.size()));
            dists_to(point(neighbor), back.data(), back.size(), 0.0F,
                     dists_.data());
            comps += back.size();
            cands_.clear();
            for (std::size_t j = 0; j < back.size(); ++j) {
                cands_.push_back({dists_[j], back[j]});
            }
            // The only unsorted caller of select_neighbors.
            std::sort(cands_.begin(), cands_.end());
            select_neighbors(cands_, budget, pruned_, comps);
            if (std::find(pruned_.begin(), pruned_.end(), id) ==
                pruned_.end()) {
                pruned_.back() = id;
            }
            marks_.reset(nodes_.size());
            for (std::uint32_t kept : pruned_) marks_.add(kept);
            for (std::uint32_t other : back) {
                if (marks_.has(other)) continue;
                auto& count = nodes_[other].in_degree[layer];
                if (count <= 1) {
                    pruned_.push_back(other);  // last in-edge: keep (overflow)
                    marks_.add(other);
                } else {
                    --count;
                }
            }
            back.assign(pruned_.begin(), pruned_.end());
        }
    }
}

void HnswIndex::wire_node(std::uint32_t id, std::uint64_t& comps) {
    const std::size_t node_level = nodes_[id].links.size() - 1;
    const float* query = point(id);
    VisitLease lease{visit_pool_};

    std::uint32_t entry = entry_point_;
    // Descend through layers above the node's level greedily.
    for (std::size_t layer = max_level_; layer > node_level; --layer) {
        entry = greedy_closest(query, entry, layer, lease.table, comps);
    }
    // From min(max_level_, node_level) down to 0: beam-search and link.
    const std::size_t top = std::min(max_level_, node_level);
    for (std::size_t layer = top + 1; layer-- > 0;) {
        const std::span<const std::uint64_t> found = search_layer(
            query, entry, config_.ef_construction, layer, lease.table, comps);
        // Unpack in order (so cands_ is sorted), excluding self (present
        // when rewiring an updated node).
        cands_.clear();
        for (const std::uint64_t key : found) {
            const Candidate c = unpack(key);
            if (c.id != id) cands_.push_back(c);
        }
        if (!cands_.empty()) {
            entry = cands_.front().id;
            select_neighbors(cands_, max_links(layer), selected_, comps);
            link(id, selected_, layer, comps);
        }
    }
}

void HnswIndex::upsert(std::uint32_t label, std::span<const float> vec) {
    check_input(vec, config_.dim, "HnswIndex::upsert");
    const std::unique_lock lock{phase_mutex_};  // writer phase: exclusive
    std::uint64_t comps = 0;

    if (auto it = label_to_id_.find(label); it != label_to_id_.end()) {
        // In-place update (the hnswlib updatePoint strategy): replace the
        // vector and rewire the node's *out*-links from a fresh descent,
        // but keep existing in-edges intact. A stale in-edge is merely a
        // sub-optimal long link — distances are always recomputed from the
        // current vectors — while removing it could disconnect the node
        // from the directed search graph entirely.
        const std::uint32_t id = it->second;
        // memmove: `vec` may be a span into the arena, even this very slot.
        std::memmove(vectors_.data() + std::size_t{id} * config_.dim,
                     vec.data(), config_.dim * sizeof(float));
        if (nodes_.size() == 1) return;
        if (entry_point_ == id) {
            // Descend from another top node so the (moved) entry doesn't
            // anchor its own search; a linear scan for the max level is
            // fine — updates are rare relative to searches.
            std::uint32_t best = id == 0 ? 1 : 0;
            std::size_t best_level = nodes_[best].links.size() - 1;
            for (std::uint32_t other = 0; other < nodes_.size(); ++other) {
                if (other == id) continue;
                const std::size_t lvl = nodes_[other].links.size() - 1;
                if (lvl > best_level) {
                    best = other;
                    best_level = lvl;
                }
            }
            entry_point_ = best;
            max_level_ = best_level;
        }
        wire_node(id, comps);
        dist_comps_.fetch_add(comps, std::memory_order_relaxed);
        // Updated node may still own the globally max level.
        const std::size_t node_level = nodes_[id].links.size() - 1;
        if (node_level > max_level_) {
            max_level_ = node_level;
            entry_point_ = id;
        }
        return;
    }

    if (nodes_.size() + 1 >= kMaxNodes) {
        throw std::invalid_argument{
            "HnswIndex::upsert: index holds 2^31 - 1 nodes"};
    }
    Node node;
    node.label = label;
    const std::size_t level = empty_ ? 0 : random_level();
    node.links.resize(level + 1);
    for (std::size_t layer = 0; layer <= level; ++layer) {
        // The longest list link() leaves unpruned (budget + M/2) plus the
        // back-link that triggers a prune: rewiring then never
        // reallocates, and no list ends up with the doubled capacity of a
        // push_back past its reserve.
        node.links[layer].reserve(max_links(layer) + config_.M / 2 + 1);
    }
    node.in_degree.assign(level + 1, 0);
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    append_vector(vec);
    nodes_.push_back(std::move(node));
    label_to_id_.emplace(label, id);

    if (empty_) {
        entry_point_ = id;
        max_level_ = level;
        empty_ = false;
        return;
    }

    wire_node(id, comps);
    dist_comps_.fetch_add(comps, std::memory_order_relaxed);
    if (level > max_level_) {
        max_level_ = level;
        entry_point_ = id;
    }
}

std::vector<Neighbor> HnswIndex::knn(std::span<const float> query,
                                     std::size_t k, std::size_t ef) const {
    check_input(query, config_.dim, "HnswIndex::knn");
    const std::shared_lock lock{phase_mutex_};  // reader phase: shared
    if (empty_ || k == 0) return {};

    const std::size_t beam = std::max(ef == 0 ? config_.ef_search : ef, k);
    VisitLease lease{visit_pool_};
    std::uint64_t comps = 0;

    std::uint32_t entry = entry_point_;
    for (std::size_t layer = max_level_; layer > 0; --layer) {
        entry = greedy_closest(query.data(), entry, layer, lease.table, comps);
    }
    const std::span<const std::uint64_t> found =
        search_layer(query.data(), entry, beam, 0, lease.table, comps);
    dist_comps_.fetch_add(comps, std::memory_order_relaxed);

    std::vector<Neighbor> result;
    result.reserve(std::min(k, found.size()));
    for (const std::uint64_t key : found.first(std::min(k, found.size()))) {
        const Candidate c = unpack(key);
        result.push_back({nodes_[c.id].label, std::sqrt(c.distance)});
    }
    return result;
}

std::optional<std::span<const float>> HnswIndex::vector_of(
    std::uint32_t label) const {
    const std::shared_lock lock{phase_mutex_};
    const auto it = label_to_id_.find(label);
    if (it == label_to_id_.end()) return std::nullopt;
    return std::span<const float>{point(it->second), config_.dim};
}

std::size_t HnswIndex::degree(std::uint32_t label) const {
    const std::shared_lock lock{phase_mutex_};
    const auto it = label_to_id_.find(label);
    if (it == label_to_id_.end()) return 0;
    return nodes_[it->second].links[0].size();
}

std::size_t HnswIndex::memory_bytes() const {
    const std::shared_lock lock{phase_mutex_};
    std::size_t total = sizeof(*this);
    total += vectors_.capacity() * sizeof(float);
    for (const Node& node : nodes_) {
        total += sizeof(Node);
        total += node.in_degree.capacity() * sizeof(std::uint32_t);
        for (const auto& layer_links : node.links) {
            total += layer_links.capacity() * sizeof(std::uint32_t);
        }
    }
    total += label_to_id_.size() *
             (sizeof(std::uint32_t) * 2 + sizeof(void*));  // bucket estimate
    return total;
}

}  // namespace spider::ann

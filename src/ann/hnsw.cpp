#include "ann/hnsw.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/simd.hpp"

namespace spider::ann {

HnswIndex::HnswIndex(HnswConfig config)
    : config_{config},
      level_lambda_{1.0 / std::log(static_cast<double>(std::max<std::size_t>(config.M, 2)))},
      rng_{config.seed},
      squared_l2_{tensor::simd::active_kernels().squared_l2} {
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
      squared_l2_{other.squared_l2_},
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
        squared_l2_ = other.squared_l2_;
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
                                        std::uint64_t& comps) const {
    std::uint32_t current = entry;
    float current_dist = dist(query, point(current));
    std::uint64_t computed = 1;
    bool improved = true;
    while (improved) {
        improved = false;
        for (std::uint32_t neighbor : nodes_[current].links[layer]) {
            const float d = dist(query, point(neighbor));
            ++computed;
            if (d < current_dist) {
                current = neighbor;
                current_dist = d;
                improved = true;
            }
        }
    }
    comps += computed;
    return current;
}

std::span<HnswIndex::Candidate> HnswIndex::search_layer(
    const float* query, std::uint32_t entry, std::size_t ef,
    std::size_t layer, VisitTable& table, std::uint64_t& comps) const {
    // One lease covers a whole descent; a fresh epoch per layer resets the
    // visited set without touching memory.
    Marks& visited = table.visited;
    visited.reset(nodes_.size());
    std::vector<Candidate>& beam = table.beam;
    std::vector<std::uint8_t>& expanded = table.expanded;
    std::vector<std::uint32_t>& fresh = table.fresh;
    std::vector<float>& fresh_dist = table.fresh_dist;
    const std::size_t cap = std::min(ef, nodes_.size());
    beam.resize(std::max(beam.size(), cap));
    expanded.resize(beam.size());

    beam[0] = {dist(query, point(entry)), entry};
    expanded[0] = 0;
    visited.add(entry);
    std::uint64_t computed = 1;
    std::size_t size = 1;
    // Expand the nearest unexpanded slot until none is left: the nodes the
    // HNSW paper's two-heap search pops, in the same order (DESIGN.md §7).
    std::size_t cursor = 0;  // every slot before it is expanded
    while (cursor < size) {
        expanded[cursor] = 1;
        const std::vector<std::uint32_t>& links =
            nodes_[beam[cursor].id].links[layer];
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
        for (std::size_t i = 0; i < n; ++i) {
            fresh_dist[i] = dist(query, point(fresh[i]));
        }
        computed += n;
        for (std::size_t i = 0; i < n; ++i) {
            const float d = fresh_dist[i];
            if (size == cap && !(d < beam[cap - 1].distance)) continue;
            // Insert in (distance, id) order; a full beam drops its worst.
            const Candidate c{d, fresh[i]};
            const std::size_t last = std::min(size, cap - 1);
            std::size_t pos = last;
            while (pos > 0 && c < beam[pos - 1]) --pos;
            std::memmove(beam.data() + pos + 1, beam.data() + pos,
                         (last - pos) * sizeof(Candidate));
            std::memmove(expanded.data() + pos + 1, expanded.data() + pos,
                         last - pos);
            beam[pos] = c;
            expanded[pos] = 0;
            size = last + 1;
            cursor = std::min(cursor, pos);
        }
        while (cursor < size && expanded[cursor] != 0) ++cursor;
    }
    comps += computed;
    return {beam.data(), size};
}

void HnswIndex::select_neighbors(std::span<Candidate> candidates,
                                 std::size_t m,
                                 std::vector<std::uint32_t>& selected,
                                 std::uint64_t& comps) {
    std::sort(candidates.begin(), candidates.end());
    selected.clear();
    std::uint64_t computed = 0;
    for (const Candidate& cand : candidates) {
        if (selected.size() >= m) break;
        // Keep only candidates closer to the query than to any kept
        // neighbor — spreads links across directions (HNSW Algorithm 4).
        const float* cand_point = point(cand.id);
        bool keep = true;
        for (std::uint32_t kept : selected) {
            ++computed;
            if (dist(cand_point, point(kept)) < cand.distance) {
                keep = false;
                break;
            }
        }
        if (keep) selected.push_back(cand.id);
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
    marks_.reset(nodes_.size());
    for (std::uint32_t target : neighbors) marks_.add(target);
    keep_.clear();
    for (std::uint32_t old_target : own_links) {
        if (marks_.has(old_target)) continue;  // still linked
        auto& count = nodes_[old_target].in_degree[layer];
        if (count <= 1) {
            keep_.push_back(old_target);
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
    own_links.insert(own_links.end(), keep_.begin(), keep_.end());

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
            const float* neighbor_point = point(neighbor);
            cands_.clear();
            for (std::uint32_t other : back) {
                cands_.push_back({dist(neighbor_point, point(other)), other});
            }
            comps += back.size();
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
        entry = greedy_closest(query, entry, layer, comps);
    }
    // From min(max_level_, node_level) down to 0: beam-search and link.
    const std::size_t top = std::min(max_level_, node_level);
    for (std::size_t layer = top + 1; layer-- > 0;) {
        std::span<Candidate> candidates = search_layer(
            query, entry, config_.ef_construction, layer, lease.table, comps);
        // Exclude self (present when rewiring an updated node).
        const auto end = std::remove_if(
            candidates.begin(), candidates.end(),
            [id](const Candidate& c) { return c.id == id; });
        candidates = candidates.first(
            static_cast<std::size_t>(end - candidates.begin()));
        if (!candidates.empty()) {
            entry = candidates.front().id;
            select_neighbors(candidates, max_links(layer), selected_, comps);
            link(id, selected_, layer, comps);
        }
    }
}

void HnswIndex::upsert(std::uint32_t label, std::span<const float> vec) {
    if (vec.size() != config_.dim) {
        throw std::invalid_argument{"HnswIndex::upsert: bad dimension"};
    }
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
    if (query.size() != config_.dim) {
        throw std::invalid_argument{"HnswIndex::knn: bad dimension"};
    }
    const std::shared_lock lock{phase_mutex_};  // reader phase: shared
    if (empty_ || k == 0) return {};

    const std::size_t beam = std::max(ef == 0 ? config_.ef_search : ef, k);
    VisitLease lease{visit_pool_};
    std::uint64_t comps = 0;

    std::uint32_t entry = entry_point_;
    for (std::size_t layer = max_level_; layer > 0; --layer) {
        entry = greedy_closest(query.data(), entry, layer, comps);
    }
    const std::span<const Candidate> found =
        search_layer(query.data(), entry, beam, 0, lease.table, comps);
    dist_comps_.fetch_add(comps, std::memory_order_relaxed);

    std::vector<Neighbor> result;
    result.reserve(std::min(k, found.size()));
    for (const Candidate& c : found) {
        if (result.size() >= k) break;
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

#include "core/graph_scorer.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "core/similarity.hpp"
#include "tensor/ops.hpp"

namespace spider::core {

GraphImportanceScorer::GraphImportanceScorer(ann::HnswIndex& index,
                                             ScorerConfig config,
                                             LabelFn label_of)
    : index_{index},
      config_{config},
      label_of_{std::move(label_of)},
      threshold_{edge_distance_threshold(config.lambda, config.alpha)},
      surrogate_threshold_{
          edge_distance_threshold(config.lambda, config.surrogate_alpha)} {
    if (config_.alpha <= 0.0 || config_.alpha >= 1.0) {
        throw std::invalid_argument{"GraphImportanceScorer: alpha in (0,1)"};
    }
    if (config_.lambda <= 0.0) {
        throw std::invalid_argument{"GraphImportanceScorer: lambda > 0"};
    }
    if (config_.neighbor_max == 0) {
        throw std::invalid_argument{"GraphImportanceScorer: neighbor_max > 0"};
    }
}

std::vector<float> GraphImportanceScorer::prepare(
    std::span<const float> embedding) const {
    std::vector<float> out{embedding.begin(), embedding.end()};
    if (config_.normalize_embeddings) {
        double norm_sq = 0.0;
        for (float x : out) norm_sq += static_cast<double>(x) * x;
        const auto inv =
            static_cast<float>(1.0 / std::sqrt(std::max(norm_sq, 1e-12)));
        for (float& x : out) x *= inv;
    }
    return out;
}

bool GraphImportanceScorer::update_embedding(std::uint32_t id,
                                             std::span<const float> embedding) {
    const std::vector<float> prepared = prepare(embedding);
    if (config_.min_update_distance > 0.0) {
        if (const auto current = index_.vector_of(id)) {
            const double moved = tensor::l2_distance(*current, prepared);
            if (moved < config_.min_update_distance) {
                ++skips_;
                return false;
            }
        }
    }
    index_.upsert(id, prepared);
    ++updates_;
    return true;
}

ScoreResult GraphImportanceScorer::score(std::uint32_t id) const {
    const auto embedding = index_.vector_of(id);
    if (!embedding) {
        throw std::logic_error{
            "GraphImportanceScorer::score: sample not indexed"};
    }

    const std::vector<ann::Neighbor> found =
        index_.knn(*embedding, config_.neighbor_k, config_.ef_search);

    ScoreResult result;
    const std::uint32_t own_label = label_of_(id);
    for (const ann::Neighbor& n : found) {
        if (n.distance >= threshold_) continue;  // Eq. 3: no edge
        if (n.label == id) {
            ++result.x_same;  // the sample itself (distance 0, same class)
            continue;
        }
        if (label_of_(n.label) == own_label) {
            ++result.x_same;
        } else {
            ++result.x_other;
        }
        result.neighbor_ids.push_back(n.label);
        if (n.distance < surrogate_threshold_) {
            result.close_neighbor_ids.push_back(n.label);
        }
    }

    // Defensive: approximate search can miss even the query point; keep
    // Part 1 finite as if self had been found.
    if (result.x_same == 0) result.x_same = 1;

    const double part1 = 1.0 / static_cast<double>(result.x_same);
    const double part2 = static_cast<double>(result.x_other) /
                         static_cast<double>(config_.neighbor_max);
    result.score = std::log(part1 + part2 + 1.0);  // Eq. 4
    return result;
}

std::vector<ScoreResult> GraphImportanceScorer::score_batch(
    std::span<const std::uint32_t> ids, util::ThreadPool* pool) const {
    // Score each distinct id once, at its first position. No upsert runs
    // during the call, so a repeat's query would return the same result.
    std::vector<std::size_t> first(ids.size());
    std::vector<std::size_t> distinct;
    std::unordered_map<std::uint32_t, std::size_t> first_of;
    first_of.reserve(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto [it, fresh] = first_of.try_emplace(ids[i], i);
        first[i] = it->second;
        if (fresh) distinct.push_back(i);
    }

    std::vector<ScoreResult> results(ids.size());
    if (pool == nullptr || pool->size() < 2 || distinct.size() < 2) {
        for (const std::size_t i : distinct) results[i] = score(ids[i]);
    } else {
        // Chunked fan-out; each slot is written by exactly one worker, so
        // the only shared state is the index's concurrent-read path.
        pool->parallel_for(distinct.size(), /*grain=*/8,
                           [&](std::size_t begin, std::size_t end) {
                               for (std::size_t d = begin; d < end; ++d) {
                                   const std::size_t i = distinct[d];
                                   results[i] = score(ids[i]);
                               }
                           });
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (first[i] != i) results[i] = results[first[i]];
    }
    return results;
}

}  // namespace spider::core

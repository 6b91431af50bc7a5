#pragma once

// Importance Cache (paper Section 4.2, part 1): retains the samples with
// the highest global importance scores. The semantic policy keeps the
// residents in a min-heap of (score, id) indexed from its id map
// (DESIGN.md §13.1), so the admission rule of Algorithm 1 — "insert on
// miss only if the new sample outscores the current minimum" — reads the
// minimum in O(1), and a replacement or re-score costs O(log n) with no
// allocation. A NaN score cannot be ordered and is refused.
// Also serves as the cache layer of SHADE and of iCache's H-section, which
// share the score-driven eviction idea (with their own scoring functions).
//
// The section keeps each resident's score and hands admission and victim
// choice to its policy (DESIGN.md §13). The default PolicyKind::kSemantic
// is the paper's rule above (SemanticCache); kLru/kLfu/kFifo/kGdsf/kCost
// always admit, replacing their own victim — the score-gated rejection
// of Algorithm 1 (Case 2) is the semantic policy's alone. The write-path
// score refresh doubles as the policy's access signal (the read path is
// seqlock wait-free and cannot take recency bookkeeping).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cache/policy.hpp"
#include "util/id_map.hpp"

namespace spider::cache {

class ImportanceCache {
public:
    explicit ImportanceCache(std::size_t capacity,
                             PolicyKind kind = PolicyKind::kSemantic);

    [[nodiscard]] std::string name() const { return "Importance"; }
    [[nodiscard]] PolicyKind policy() const { return kind_; }
    [[nodiscard]] std::size_t size() const { return scores_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] bool contains(std::uint32_t id) const;

    /// Lowest resident score — the semantic policy's admission threshold,
    /// informational under the others. An O(n) scan, for tests.
    [[nodiscard]] std::optional<double> min_score() const;
    [[nodiscard]] std::optional<double> score_of(std::uint32_t id) const;

    /// Admission rule: the policy decides. kSemantic inserts when there
    /// is free space, or when `score` beats the current minimum (which is
    /// then evicted); the other policies always admit, evicting their own
    /// victim when full. Returns the evicted id, if any; `admitted`
    /// reports whether the insert happened. A NaN score throws
    /// std::invalid_argument and changes nothing.
    struct AdmitResult {
        bool admitted = false;
        std::optional<std::uint32_t> evicted;
    };
    AdmitResult admit_scored(std::uint32_t id, double score);

    /// Re-keys a resident sample after its global score changed (scores
    /// drift every epoch as the model trains). This is also the policy's
    /// access signal: the served stream reaches the section exactly here,
    /// so the policy's touch() rides along. Returns whether the id was
    /// resident (false = no-op). A NaN score throws std::invalid_argument
    /// and changes nothing.
    bool update_score(std::uint32_t id, double score);

    /// Visits every resident (id, score) pair in unspecified order.
    template <typename Fn>
    void for_each(Fn fn) const { scores_.for_each(fn); }

    /// Highest (score, id) resident accepted by `pred` (degraded-mode
    /// surrogate search: serve the most important compatible sample we
    /// still hold). Nullopt when none.
    template <typename Pred>
    [[nodiscard]] std::optional<std::uint32_t> find_best_if(Pred pred) const {
        std::optional<std::pair<double, std::uint32_t>> best;
        scores_.for_each([&](std::uint32_t id, double score) {
            const std::pair candidate{score, id};
            if ((!best || candidate > *best) && pred(id)) best = candidate;
        });
        if (!best) return std::nullopt;
        return best->second;
    }

    bool erase(std::uint32_t id);
    /// Evicts the policy's next victim (kSemantic: the lowest (score, id))
    /// and returns it; nullopt when empty.
    std::optional<std::uint32_t> evict_victim();
    /// Shrink evicts in the policy's victim order, as evict_victim() does.
    void set_capacity(std::size_t capacity);

private:
    std::size_t capacity_;
    PolicyKind kind_;
    std::unique_ptr<EvictionCache> policy_;
    util::IdMap<double> scores_;
};

}  // namespace spider::cache

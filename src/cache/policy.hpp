#pragma once

// Cache-policy interface shared by every eviction strategy in the repo.
// Caches here track *which sample ids are resident*; the actual payloads
// live in the dataset.
// Capacity is in items: the paper sizes caches as a percentage of the
// dataset, and samples within a dataset share one serialized size.
//
// The same seam backs the *sections* of the two-layer semantic cache
// (DESIGN.md §13): ImportanceCache and HomophilyCache hand admission and
// victim selection to an EvictionCache — the paper's score gate and FIFO
// included — so the Table baselines and SpiderCache run on one code path
// and policies are swappable per section (and per server tenant).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace spider::cache {

class EvictionCache {
public:
    virtual ~EvictionCache() = default;

    /// Policy name for tables and logs.
    [[nodiscard]] virtual std::string name() const = 0;

    [[nodiscard]] virtual std::size_t size() const = 0;
    [[nodiscard]] virtual std::size_t capacity() const = 0;

    /// Pure membership test (no recency/frequency side effects).
    [[nodiscard]] virtual bool contains(std::uint32_t id) const = 0;

    /// Access on the read path: returns true on hit and applies the
    /// policy's bookkeeping (LRU recency bump, LFU frequency bump, ...).
    virtual bool touch(std::uint32_t id) = 0;

    /// Admission after a miss. Returns the evicted id, if any. Policies
    /// are free to reject admission (e.g. a full static cache), in which
    /// case they return nullopt and size() is unchanged.
    virtual std::optional<std::uint32_t> admit(std::uint32_t id) = 0;

    /// Elastic resize; evicts per-policy when shrinking (see peek_victim:
    /// shrink removes victims in exactly the policy's eviction order).
    virtual void set_capacity(std::size_t capacity) = 0;

    /// Value signal for cost-sensitive policies (GDSF, cost-aware): the
    /// importance score of `id`, delivered before admit() on the miss path
    /// and on every score refresh. Value-blind policies ignore it.
    virtual void note_score(std::uint32_t id, double score) {
        (void)id;
        (void)score;
    }

    /// The id the next admission/shrink would evict, or nullopt when
    /// empty. For RandomCache this previews (without consuming) the next
    /// rng draw, so it stays valid only until the next draw.
    [[nodiscard]] virtual std::optional<std::uint32_t> peek_victim()
        const = 0;

    /// Out-of-band removal (section exclusivity moves, cross-section
    /// rebalancing). Returns whether `id` was resident.
    virtual bool erase(std::uint32_t id) = 0;
};

/// Selectable eviction/admission policy, per cache section.
enum class PolicyKind : std::uint8_t {
    kSemantic,  ///< the paper's score-ordered admission (importance only)
    kLru,
    kLfu,
    kFifo,  ///< insertion order — the paper's homophily-section default
    kGdsf,  ///< greedy-dual-size-frequency: clock + frequency * score
    kCost,  ///< evict the lowest-scored resident (LRU tie-break)
    kRandom,
    kStatic,
};

/// Parses "semantic|lru|lfu|fifo|gdsf|cost|random|static" (case-
/// insensitive). Throws std::invalid_argument on anything else.
PolicyKind policy_from_string(const std::string& name);
std::string to_string(PolicyKind kind);

/// Section eligibility: random (nondeterministic victim preview) and
/// static (rejects instead of replacing) stay baseline-frontend-only.
[[nodiscard]] bool importance_policy_ok(PolicyKind kind);
[[nodiscard]] bool homophily_policy_ok(PolicyKind kind);

/// Policy choice for the two sections of a TwoLayerSemanticCache. The
/// defaults are the paper's: score-gated importance admission (the
/// SemanticCache policy) + FIFO homophily.
struct SectionPolicies {
    PolicyKind importance = PolicyKind::kSemantic;
    PolicyKind homophily = PolicyKind::kFifo;

    [[nodiscard]] bool is_default() const {
        return importance == PolicyKind::kSemantic &&
               homophily == PolicyKind::kFifo;
    }
    friend bool operator==(const SectionPolicies&,
                           const SectionPolicies&) = default;
};

/// Throws std::invalid_argument when either section names an ineligible
/// policy (see importance_policy_ok / homophily_policy_ok).
void validate(const SectionPolicies& policies);

/// Instantiates a section-eligible policy (kSemantic/kLru/kLfu/kFifo/
/// kGdsf/kCost) at `capacity`. Throws std::invalid_argument for kRandom
/// and kStatic, which stay baseline-frontend-only.
std::unique_ptr<EvictionCache> make_section_policy(PolicyKind kind,
                                                   std::size_t capacity);

}  // namespace spider::cache

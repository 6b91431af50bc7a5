#pragma once

// Eviction policies: LRU and LFU (the Figure 3(b) motivation baselines),
// FIFO, the CoorDL/MinIO-style static cache, uniform random replacement
// (the L-section policy of iCache), the score-sensitive GDSF / cost-aware
// policies, and the paper's score-gated semantic rule. Every semantic-
// cache section runs one of them (DESIGN.md §13).

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/policy.hpp"
#include "util/rng.hpp"

namespace spider::cache {

/// Least-recently-used over a flat table: a slab of nodes doubly linked
/// by index (head = most recent), an open-addressing id -> node map
/// (linear probing, backward-shift deletion) and a free list of node
/// slots. Once the table has grown to its working size, no operation
/// allocates. Both arrays grow with size(), never with capacity(): an
/// unbounded SSD tier passes SIZE_MAX / 2.
class LruCache final : public EvictionCache {
public:
    explicit LruCache(std::size_t capacity);

    [[nodiscard]] std::string name() const override { return "LRU"; }
    [[nodiscard]] std::size_t size() const override { return size_; }
    [[nodiscard]] std::size_t capacity() const override { return capacity_; }
    [[nodiscard]] bool contains(std::uint32_t id) const override;
    bool touch(std::uint32_t id) override;
    std::optional<std::uint32_t> admit(std::uint32_t id) override;
    void set_capacity(std::size_t capacity) override;
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override;
    bool erase(std::uint32_t id) override;

    /// Visits every resident id, least-recently-used first. Re-admitting
    /// in this order reproduces the recency horizon exactly — the SSD
    /// tier's residency dump (warm-restart snapshots) relies on it.
    template <typename Fn>
    void for_each_lru_first(Fn fn) const {
        for (std::uint32_t n = tail_; n != kNone; n = nodes_[n].prev) {
            fn(nodes_[n].id);
        }
    }

private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    static constexpr std::size_t kNoBucket = ~std::size_t{0};

    struct Node {
        std::uint32_t id;
        std::uint32_t prev;  // towards the head (more recent)
        std::uint32_t next;  // towards the tail; free-list link when free
    };
    struct Bucket {
        std::uint32_t id;
        std::uint32_t node;  // kNone = empty
    };

    [[nodiscard]] std::size_t home(std::uint32_t id) const;
    /// Bucket holding `id`, or kNoBucket.
    [[nodiscard]] std::size_t find(std::uint32_t id) const;
    void unlink(std::uint32_t n);
    void push_front(std::uint32_t n);
    /// Unlinks, frees and unmaps the entry in `bucket`.
    void remove(std::size_t bucket);
    void grow_buckets();

    std::size_t capacity_;
    std::size_t size_ = 0;
    std::uint32_t head_ = kNone;
    std::uint32_t tail_ = kNone;
    std::uint32_t free_ = kNone;
    int shift_ = 64;  // home bucket = Fibonacci hash >> shift_
    std::vector<Node> nodes_;
    std::vector<Bucket> buckets_;  // power of two, at most half full
};

/// The ordered core that LFU, GDSF, cost-aware and semantic share: an
/// id -> entry map, a key -> id ordered map whose first element is the
/// victim, and the one-slot pending score that note_score() leaves for an
/// id about to be admitted. `Entry` carries its ordering key as `key`,
/// plus any per-policy fields; each policy supplies touch() and admit(),
/// and re-keys entries as its signals arrive.
template <typename Entry>
class OrderedCache : public EvictionCache {
public:
    using Key = decltype(Entry::key);

    [[nodiscard]] std::size_t size() const final { return entries_.size(); }
    [[nodiscard]] std::size_t capacity() const final { return capacity_; }
    [[nodiscard]] bool contains(std::uint32_t id) const final {
        return entries_.contains(id);
    }
    /// Shrink pops victims in key order, exactly as admission would.
    void set_capacity(std::size_t capacity) final {
        capacity_ = capacity;
        while (entries_.size() > capacity_) pop_min();
    }
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const final {
        if (order_.empty()) return std::nullopt;
        return order_.begin()->second;
    }
    bool erase(std::uint32_t id) final {
        const auto it = entries_.find(id);
        if (it == entries_.end()) return false;
        order_.erase(it->second.key);
        entries_.erase(it);
        return true;
    }

protected:
    explicit OrderedCache(std::size_t capacity) : capacity_{capacity} {}

    /// Admission may proceed: capacity is non-zero and `id` not resident.
    [[nodiscard]] bool admissible(std::uint32_t id) const {
        return capacity_ != 0 && !entries_.contains(id);
    }
    [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }
    [[nodiscard]] Entry* find(std::uint32_t id) {
        const auto it = entries_.find(id);
        return it == entries_.end() ? nullptr : &it->second;
    }
    /// The victim's key; the cache must not be empty.
    [[nodiscard]] const Key& min_key() const { return order_.begin()->first; }

    void insert(std::uint32_t id, const Entry& entry) {
        order_.emplace(entry.key, id);
        entries_.emplace(id, entry);
    }
    void rekey(std::uint32_t id, Entry& entry, const Key& key) {
        order_.erase(entry.key);
        entry.key = key;
        order_.emplace(key, id);
    }
    /// Removes and returns the victim; the cache must not be empty. GDSF
    /// overrides it to inflate its clock.
    virtual std::uint32_t pop_min() {
        const auto victim = order_.begin();
        const std::uint32_t id = victim->second;
        order_.erase(victim);
        entries_.erase(id);
        return id;
    }

    void note_pending(std::uint32_t id, double score) {
        pending_.emplace(id, score);
    }
    /// The score last noted for `id` while it was not resident, if the
    /// slot still holds it. Clears the slot either way.
    std::optional<double> take_pending(std::uint32_t id) {
        std::optional<double> score;
        if (pending_ && pending_->first == id) score = pending_->second;
        pending_.reset();
        return score;
    }

private:
    std::size_t capacity_;
    std::unordered_map<std::uint32_t, Entry> entries_;
    std::map<Key, std::uint32_t> order_;  // begin() is the victim
    std::optional<std::pair<std::uint32_t, double>> pending_;
};

struct LfuEntry {
    std::pair<std::uint64_t, std::uint64_t> key;  // (frequency, stamp)
};

/// Least-frequently-used with LRU tie-break inside a frequency bucket.
class LfuCache final : public OrderedCache<LfuEntry> {
public:
    explicit LfuCache(std::size_t capacity);

    [[nodiscard]] std::string name() const override { return "LFU"; }
    bool touch(std::uint32_t id) override;
    std::optional<std::uint32_t> admit(std::uint32_t id) override;

private:
    std::uint64_t access_counter_ = 0;  // stamps: LRU tie-break
};

/// First-in-first-out ring.
class FifoCache final : public EvictionCache {
public:
    explicit FifoCache(std::size_t capacity);

    [[nodiscard]] std::string name() const override { return "FIFO"; }
    [[nodiscard]] std::size_t size() const override { return index_.size(); }
    [[nodiscard]] std::size_t capacity() const override { return capacity_; }
    [[nodiscard]] bool contains(std::uint32_t id) const override;
    bool touch(std::uint32_t id) override;
    std::optional<std::uint32_t> admit(std::uint32_t id) override;
    void set_capacity(std::size_t capacity) override;
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override;
    bool erase(std::uint32_t id) override;

private:
    std::size_t capacity_;
    std::list<std::uint32_t> order_;  // front = oldest
    std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator> index_;
};

/// CoorDL's MinIO cache: admits until full, then never replaces. Random
/// sampling touches every sample once per epoch, so a never-churning cache
/// gives a stable hit ratio equal to the cache fraction.
///
/// Shrink semantics: "never replaces" does NOT mean "never shrinks" —
/// under an elastic resize the cache must still give capacity back. With
/// no replacement order to follow, shrink evicts newest-admitted first
/// (LIFO), preserving the earliest-admitted stable set that MinIO's
/// steady hit ratio comes from. peek_victim() previews the same order.
class StaticCache final : public EvictionCache {
public:
    explicit StaticCache(std::size_t capacity);

    [[nodiscard]] std::string name() const override { return "Static(MinIO)"; }
    [[nodiscard]] std::size_t size() const override { return items_.size(); }
    [[nodiscard]] std::size_t capacity() const override { return capacity_; }
    [[nodiscard]] bool contains(std::uint32_t id) const override;
    bool touch(std::uint32_t id) override;
    std::optional<std::uint32_t> admit(std::uint32_t id) override;
    void set_capacity(std::size_t capacity) override;
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override;
    bool erase(std::uint32_t id) override;

private:
    std::size_t capacity_;
    std::unordered_map<std::uint32_t, std::size_t> slots_;
    std::vector<std::uint32_t> items_;
};

/// Uniform random replacement (iCache's policy for non-important samples).
/// All randomness — replacement victims, shrink victims, and the
/// random_resident() surrogate draws — comes from the single ctor-seeded
/// stream, so a fixed seed pins the full eviction/surrogate sequence.
class RandomCache final : public EvictionCache {
public:
    RandomCache(std::size_t capacity, util::Rng rng);

    [[nodiscard]] std::string name() const override { return "Random"; }
    [[nodiscard]] std::size_t size() const override { return items_.size(); }
    [[nodiscard]] std::size_t capacity() const override { return capacity_; }
    [[nodiscard]] bool contains(std::uint32_t id) const override;
    bool touch(std::uint32_t id) override;
    std::optional<std::uint32_t> admit(std::uint32_t id) override;
    /// Shrink evicts uniformly random victims (the policy's only victim
    /// order), not the newest-admitted tail.
    void set_capacity(std::size_t capacity) override;
    /// Previews the next eviction draw without consuming it; invalidated
    /// by any intervening draw (admit over capacity, shrink,
    /// random_resident).
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override;
    bool erase(std::uint32_t id) override;

    /// A uniformly random resident id — iCache serves this as a substitute
    /// for a missed non-important sample. Draws from the same internal
    /// stream as replacement. Empty cache -> nullopt.
    [[nodiscard]] std::optional<std::uint32_t> random_resident();

private:
    std::uint32_t remove_slot(std::size_t slot);

    std::size_t capacity_;
    util::Rng rng_;
    std::unordered_map<std::uint32_t, std::size_t> slots_;
    std::vector<std::uint32_t> items_;
};

struct GdsfEntry {
    std::pair<double, std::uint64_t> key;  // (priority, stamp of last re-key)
    std::uint64_t frequency;
    double cost;
};

/// Greedy-Dual-Size-Frequency over unit-size items: priority =
/// clock + frequency * score, victim = lowest priority, and the clock
/// inflates to each victim's priority so long-idle entries age out.
/// The score arrives via note_score() (importance scores in the semantic
/// sections); without one, cost defaults to 1 and GDSF degrades to LFU
/// with aging.
class GdsfCache final : public OrderedCache<GdsfEntry> {
public:
    explicit GdsfCache(std::size_t capacity);

    [[nodiscard]] std::string name() const override { return "GDSF"; }
    bool touch(std::uint32_t id) override;
    std::optional<std::uint32_t> admit(std::uint32_t id) override;
    void note_score(std::uint32_t id, double score) override;

private:
    void reprioritize(std::uint32_t id, GdsfEntry& entry);
    std::uint32_t pop_min() override;

    double clock_ = 0.0;  // inflates to each evicted priority
    std::uint64_t stamp_counter_ = 0;
};

struct CostEntry {
    std::pair<double, std::uint64_t> key;  // (cost, access stamp)
};

/// Cost-aware replacement: evict the lowest-scored resident, breaking
/// ties least-recently-touched first. Scores arrive via note_score();
/// unknown scores default to 1.
class CostAwareCache final : public OrderedCache<CostEntry> {
public:
    explicit CostAwareCache(std::size_t capacity);

    [[nodiscard]] std::string name() const override { return "CostAware"; }
    bool touch(std::uint32_t id) override;
    std::optional<std::uint32_t> admit(std::uint32_t id) override;
    void note_score(std::uint32_t id, double score) override;

private:
    std::uint64_t access_counter_ = 0;
};

struct SemanticEntry {
    std::pair<double, std::uint32_t> key;  // (score, id)
};

/// The paper's importance rule (§4.2, Algorithm 1) as a policy: the
/// victim is the lowest (score, id), and a full cache admits an id only
/// when the score noted for it is strictly above the victim's (Case 4);
/// otherwise admit() rejects it (Case 2). Scores arrive via note_score()
/// and order as given; an id admitted without one ranks below every
/// scored resident. Touches carry no signal.
class SemanticCache final : public OrderedCache<SemanticEntry> {
public:
    explicit SemanticCache(std::size_t capacity);

    [[nodiscard]] std::string name() const override { return "Semantic"; }
    bool touch(std::uint32_t id) override { return contains(id); }
    std::optional<std::uint32_t> admit(std::uint32_t id) override;
    void note_score(std::uint32_t id, double score) override;
};

}  // namespace spider::cache

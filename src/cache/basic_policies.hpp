#pragma once

// Eviction policies: LRU and LFU (the Figure 3(b) motivation baselines),
// FIFO, the CoorDL/MinIO-style static cache, uniform random replacement
// (the L-section policy of iCache), the score-sensitive GDSF / cost-aware
// policies, and the paper's score-gated semantic rule. Every semantic-
// cache section runs one of them (DESIGN.md §13).

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/policy.hpp"
#include "util/id_map.hpp"
#include "util/rng.hpp"

namespace spider::cache {

/// The node slab LRU and FIFO share: nodes doubly linked by index (head =
/// newest), an id -> node IdMap and a free list of node slots. The victim
/// is the tail. Once the slab and the map have grown to their working
/// size, no operation allocates. Both grow with size(), never with
/// capacity(): an unbounded SSD tier passes SIZE_MAX / 2. The policies
/// differ only in touch(): LRU moves the id to the head, FIFO does not.
class SlabCache : public EvictionCache {
public:
    [[nodiscard]] std::size_t size() const final { return nodes_of_.size(); }
    [[nodiscard]] std::size_t capacity() const final { return capacity_; }
    [[nodiscard]] bool contains(std::uint32_t id) const final {
        return nodes_of_.contains(id);
    }
    std::optional<std::uint32_t> admit(std::uint32_t id) final;
    void set_capacity(std::size_t capacity) final;
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const final;
    bool erase(std::uint32_t id) final;

    /// Visits every resident id, next victim first. Re-admitting in this
    /// order reproduces the victim order — the SSD tier's residency dump
    /// and the WAL fold rely on it.
    template <typename Fn>
    void for_each_victim_first(Fn fn) const {
        for (std::uint32_t n = tail_; n != kNone; n = nodes_[n].prev) {
            fn(nodes_[n].id);
        }
    }

protected:
    explicit SlabCache(std::size_t capacity) : capacity_{capacity} {}

    /// Moves a resident id to the head; false when absent.
    bool bump(std::uint32_t id);

private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    struct Node {
        std::uint32_t id;
        std::uint32_t prev;  // towards the head (newer)
        std::uint32_t next;  // towards the tail; free-list link when free
    };

    void unlink(std::uint32_t n);
    void push_front(std::uint32_t n);
    /// Unlinks node `n` and frees its slot; its id has left the map.
    void release(std::uint32_t n);
    void evict_tail();

    std::size_t capacity_;
    std::uint32_t head_ = kNone;
    std::uint32_t tail_ = kNone;
    std::uint32_t free_ = kNone;
    std::vector<Node> nodes_;
    util::IdMap<std::uint32_t> nodes_of_;  // id -> node
};

/// Least-recently-used: a touch moves the id to the head.
class LruCache final : public SlabCache {
public:
    explicit LruCache(std::size_t capacity) : SlabCache{capacity} {}

    [[nodiscard]] std::string name() const override { return "LRU"; }
    bool touch(std::uint32_t id) override { return bump(id); }
};

/// First-in-first-out: the order is arrival only, so a touch changes
/// nothing.
class FifoCache final : public SlabCache {
public:
    explicit FifoCache(std::size_t capacity) : SlabCache{capacity} {}

    [[nodiscard]] std::string name() const override { return "FIFO"; }
    bool touch(std::uint32_t id) override { return contains(id); }
};

/// The ordered core that LFU, GDSF, cost-aware and semantic share: an
/// implicit 4-ary min-heap of {key, id} in one vector, whose root is the
/// victim; an id -> slot IdMap, where a slot holds the id's heap position
/// plus any per-policy fields (`Extra`); and the one-slot pending score
/// that note_score() leaves for an id about to be admitted. Each key is
/// stored once, in the heap. Keys are unique (every policy's key ends in
/// a stamp or the id), so the root is the one victim an ordered map's
/// begin() would give. Once the heap and the map reach their working size,
/// no operation allocates. Each policy supplies touch() and admit(), and
/// re-keys residents as its signals arrive.
struct NoExtra {};

template <typename Key, typename Extra = NoExtra>
class OrderedCache : public EvictionCache {
public:
    [[nodiscard]] std::size_t size() const final { return heap_.size(); }
    [[nodiscard]] std::size_t capacity() const final { return capacity_; }
    [[nodiscard]] bool contains(std::uint32_t id) const final {
        return slots_.contains(id);
    }
    /// Shrink pops victims in key order, exactly as admission would.
    void set_capacity(std::size_t capacity) final {
        capacity_ = capacity;
        while (heap_.size() > capacity_) pop_min();
    }
    /// A resident is re-scored at once; any other id's score waits in the
    /// one-slot pending note for its admission.
    void note_score(std::uint32_t id, double score) final {
        if (Slot* slot = slots_.find(id)) {
            rescore(id, *slot, score);
        } else {
            pending_.emplace(id, score);
        }
    }
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const final {
        if (heap_.empty()) return std::nullopt;
        return heap_.front().id;
    }
    bool erase(std::uint32_t id) final {
        const auto slot = slots_.take(id);
        if (!slot) return false;
        remove_at(slot->pos);
        return true;
    }

protected:
    /// A resident's entry in the id map: its heap position, kept current
    /// by every move, and the policy's own fields.
    struct Slot {
        std::uint32_t pos;
        [[no_unique_address]] Extra extra;
    };

    explicit OrderedCache(std::size_t capacity) : capacity_{capacity} {}

    /// Admission may proceed: capacity is non-zero and `id` not resident.
    [[nodiscard]] bool admissible(std::uint32_t id) const {
        return capacity_ != 0 && !slots_.contains(id);
    }
    [[nodiscard]] bool full() const { return heap_.size() >= capacity_; }
    [[nodiscard]] Slot* find(std::uint32_t id) { return slots_.find(id); }
    [[nodiscard]] const Key& key_of(const Slot& slot) const {
        return heap_[slot.pos].key;
    }
    /// The victim's key; the cache must not be empty.
    [[nodiscard]] const Key& min_key() const { return heap_.front().key; }

    /// Adds `id`, which must not be resident.
    void insert(std::uint32_t id, const Key& key, const Extra& extra = {}) {
        Slot* slot = slots_.try_emplace(id, Slot{0, extra}).first;
        heap_.push_back({key, id});
        settle(heap_.size() - 1, {key, id}, *slot);
    }
    /// Gives the resident behind `slot` a new key and sifts it in place.
    void rekey(Slot& slot, const Key& key) {
        settle(slot.pos, {key, heap_[slot.pos].id}, slot);
    }
    /// Removes and returns the victim; the cache must not be empty. GDSF
    /// overrides it to inflate its clock.
    virtual std::uint32_t pop_min() {
        const std::uint32_t id = heap_.front().id;
        slots_.erase(id);
        remove_at(0);
        return id;
    }

    /// Re-keys a resident on a noted score; LFU takes no scores.
    virtual void rescore(std::uint32_t /*id*/, Slot& /*slot*/,
                         double /*score*/) {}
    /// The score last noted for `id` while it was not resident, if the
    /// slot still holds it. Clears the slot either way.
    std::optional<double> take_pending(std::uint32_t id) {
        std::optional<double> score;
        if (pending_ && pending_->first == id) score = pending_->second;
        pending_.reset();
        return score;
    }

private:
    static constexpr std::size_t kArity = 4;

    struct Node {
        Key key;
        std::uint32_t id;
    };

    /// Moves the node at `from` into `to` and records its new position.
    void move(std::size_t from, std::size_t to) {
        heap_[to] = heap_[from];
        slots_.find(heap_[to].id)->pos = static_cast<std::uint32_t>(to);
    }

    /// Places `node` (the id behind `slot`) at the hole `pos`, sifting up
    /// or down as its key says. Keys are unique, so no tie stops a sift.
    void settle(std::size_t pos, const Node& node, Slot& slot) {
        const std::size_t start = pos;
        while (pos > 0) {
            const std::size_t parent = (pos - 1) / kArity;
            if (!(node.key < heap_[parent].key)) break;
            move(parent, pos);
            pos = parent;
        }
        if (pos == start) {
            const std::size_t n = heap_.size();
            for (std::size_t first = pos * kArity + 1; first < n;
                 first = pos * kArity + 1) {
                std::size_t least = first;
                const std::size_t end = std::min(first + kArity, n);
                for (std::size_t c = first + 1; c < end; ++c) {
                    if (heap_[c].key < heap_[least].key) least = c;
                }
                if (!(heap_[least].key < node.key)) break;
                move(least, pos);
                pos = least;
            }
        }
        heap_[pos] = node;
        slot.pos = static_cast<std::uint32_t>(pos);
    }

    /// Fills the hole at `pos` with the last node; the id that held `pos`
    /// has already left the map.
    void remove_at(std::size_t pos) {
        const Node last = heap_.back();
        heap_.pop_back();
        if (pos == heap_.size()) return;
        settle(pos, last, *slots_.find(last.id));
    }

    std::size_t capacity_;
    std::vector<Node> heap_;  // heap_[0] is the victim
    util::IdMap<Slot> slots_;
    std::optional<std::pair<std::uint32_t, double>> pending_;
};

/// Least-frequently-used with LRU tie-break inside a frequency bucket:
/// the key is (frequency, stamp).
class LfuCache final
    : public OrderedCache<std::pair<std::uint64_t, std::uint64_t>> {
public:
    explicit LfuCache(std::size_t capacity) : OrderedCache{capacity} {}

    [[nodiscard]] std::string name() const override { return "LFU"; }
    bool touch(std::uint32_t id) override;
    std::optional<std::uint32_t> admit(std::uint32_t id) override;

private:
    std::uint64_t access_counter_ = 0;  // stamps: LRU tie-break
};

/// The dense resident vector the static and random policies share: an
/// id -> slot IdMap over `items_`, where a removal swaps the last resident
/// into the hole. Neither policy orders its residents, so a touch only
/// reports residency.
class SlotCache : public EvictionCache {
public:
    [[nodiscard]] std::size_t size() const final { return items_.size(); }
    [[nodiscard]] std::size_t capacity() const final { return capacity_; }
    [[nodiscard]] bool contains(std::uint32_t id) const final {
        return slots_.contains(id);
    }
    bool touch(std::uint32_t id) final { return contains(id); }
    bool erase(std::uint32_t id) final;

protected:
    explicit SlotCache(std::size_t capacity) : capacity_{capacity} {}

    void push(std::uint32_t id);
    /// Swap-removes the resident in `slot` and returns it.
    std::uint32_t remove_slot(std::size_t slot);

    std::size_t capacity_;
    std::vector<std::uint32_t> items_;

private:
    util::IdMap<std::size_t> slots_;  // id -> index in items_
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
class StaticCache final : public SlotCache {
public:
    explicit StaticCache(std::size_t capacity) : SlotCache{capacity} {}

    [[nodiscard]] std::string name() const override { return "Static(MinIO)"; }
    std::optional<std::uint32_t> admit(std::uint32_t id) override;
    void set_capacity(std::size_t capacity) override;
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override;
};

/// Uniform random replacement (iCache's policy for non-important samples).
/// All randomness — replacement victims, shrink victims, and the
/// random_resident() surrogate draws — comes from the single ctor-seeded
/// stream, so a fixed seed pins the full eviction/surrogate sequence.
class RandomCache final : public SlotCache {
public:
    RandomCache(std::size_t capacity, util::Rng rng)
        : SlotCache{capacity}, rng_{rng} {}

    [[nodiscard]] std::string name() const override { return "Random"; }
    std::optional<std::uint32_t> admit(std::uint32_t id) override;
    /// Shrink evicts uniformly random victims (the policy's only victim
    /// order), not the newest-admitted tail.
    void set_capacity(std::size_t capacity) override;
    /// Previews the next eviction draw without consuming it; invalidated
    /// by any intervening draw (admit over capacity, shrink,
    /// random_resident).
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override;

    /// A uniformly random resident id — iCache serves this as a substitute
    /// for a missed non-important sample. Draws from the same internal
    /// stream as replacement. Empty cache -> nullopt.
    [[nodiscard]] std::optional<std::uint32_t> random_resident();

private:
    util::Rng rng_;
};

struct GdsfFields {
    std::uint64_t frequency;
    double cost;
};

/// Greedy-Dual-Size-Frequency over unit-size items: priority =
/// clock + frequency * score, victim = lowest priority, and the clock
/// inflates to each victim's priority so long-idle entries age out.
/// The score arrives via note_score() (importance scores in the semantic
/// sections); without one, cost defaults to 1 and GDSF degrades to LFU
/// with aging. The key is (priority, stamp of the last re-key).
class GdsfCache final
    : public OrderedCache<std::pair<double, std::uint64_t>, GdsfFields> {
public:
    explicit GdsfCache(std::size_t capacity) : OrderedCache{capacity} {}

    [[nodiscard]] std::string name() const override { return "GDSF"; }
    bool touch(std::uint32_t id) override;
    std::optional<std::uint32_t> admit(std::uint32_t id) override;

private:
    void rescore(std::uint32_t id, Slot& slot, double score) override;
    void reprioritize(Slot& slot);
    std::uint32_t pop_min() override;

    double clock_ = 0.0;  // inflates to each evicted priority
    std::uint64_t stamp_counter_ = 0;
};

/// Cost-aware replacement: evict the lowest-scored resident, breaking
/// ties least-recently-touched first; the key is (cost, access stamp).
/// Scores arrive via note_score(); unknown scores default to 1.
class CostAwareCache final
    : public OrderedCache<std::pair<double, std::uint64_t>> {
public:
    explicit CostAwareCache(std::size_t capacity) : OrderedCache{capacity} {}

    [[nodiscard]] std::string name() const override { return "CostAware"; }
    bool touch(std::uint32_t id) override;
    std::optional<std::uint32_t> admit(std::uint32_t id) override;

private:
    void rescore(std::uint32_t id, Slot& slot, double score) override;

    std::uint64_t access_counter_ = 0;
};

/// The paper's importance rule (§4.2, Algorithm 1) as a policy: the
/// victim is the lowest (score, id), and a full cache admits an id only
/// when the score noted for it is strictly above the victim's (Case 4);
/// otherwise admit() rejects it (Case 2). Scores arrive via note_score()
/// and order as given; an id admitted without one ranks below every
/// scored resident. Touches carry no signal.
class SemanticCache final
    : public OrderedCache<std::pair<double, std::uint32_t>> {
public:
    explicit SemanticCache(std::size_t capacity) : OrderedCache{capacity} {}

    [[nodiscard]] std::string name() const override { return "Semantic"; }
    bool touch(std::uint32_t id) override { return contains(id); }
    std::optional<std::uint32_t> admit(std::uint32_t id) override;

private:
    void rescore(std::uint32_t id, Slot& slot, double score) override {
        rekey(slot, {score, id});
    }
};

}  // namespace spider::cache

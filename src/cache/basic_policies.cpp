#include "cache/basic_policies.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace spider::cache {

// ---------------------------------------------------------------- LruCache

LruCache::LruCache(std::size_t capacity) : capacity_{capacity} {}

std::size_t LruCache::home(std::uint32_t id) const {
    return static_cast<std::size_t>(
        (std::uint64_t{id} * 0x9E3779B97F4A7C15ULL) >> shift_);
}

std::size_t LruCache::find(std::uint32_t id) const {
    if (buckets_.empty()) return kNoBucket;
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t b = home(id);; b = (b + 1) & mask) {
        if (buckets_[b].node == kNone) return kNoBucket;
        if (buckets_[b].id == id) return b;
    }
}

void LruCache::unlink(std::uint32_t n) {
    const Node& node = nodes_[n];
    (node.prev == kNone ? head_ : nodes_[node.prev].next) = node.next;
    (node.next == kNone ? tail_ : nodes_[node.next].prev) = node.prev;
}

void LruCache::push_front(std::uint32_t n) {
    nodes_[n].prev = kNone;
    nodes_[n].next = head_;
    (head_ == kNone ? tail_ : nodes_[head_].prev) = n;
    head_ = n;
}

void LruCache::remove(std::size_t bucket) {
    const std::uint32_t n = buckets_[bucket].node;
    unlink(n);
    nodes_[n].next = free_;
    free_ = n;
    --size_;
    // Backward shift: pull later entries of the probe run into the hole
    // unless that would move one before its home bucket.
    const std::size_t mask = buckets_.size() - 1;
    std::size_t hole = bucket;
    for (std::size_t b = (hole + 1) & mask; buckets_[b].node != kNone;
         b = (b + 1) & mask) {
        if (((b - home(buckets_[b].id)) & mask) >= ((b - hole) & mask)) {
            buckets_[hole] = buckets_[b];
            hole = b;
        }
    }
    buckets_[hole].node = kNone;
}

void LruCache::grow_buckets() {
    std::vector<Bucket> old = std::move(buckets_);
    const std::size_t count = old.empty() ? 16 : old.size() * 2;
    buckets_.assign(count, Bucket{0, kNone});
    shift_ = 64 - std::countr_zero(count);
    const std::size_t mask = count - 1;
    for (const Bucket& entry : old) {
        if (entry.node == kNone) continue;
        std::size_t b = home(entry.id);
        while (buckets_[b].node != kNone) b = (b + 1) & mask;
        buckets_[b] = entry;
    }
}

bool LruCache::contains(std::uint32_t id) const {
    return find(id) != kNoBucket;
}

bool LruCache::touch(std::uint32_t id) {
    const std::size_t b = find(id);
    if (b == kNoBucket) return false;
    const std::uint32_t n = buckets_[b].node;
    if (n != head_) {
        unlink(n);
        push_front(n);
    }
    return true;
}

std::optional<std::uint32_t> LruCache::admit(std::uint32_t id) {
    if (capacity_ == 0 || find(id) != kNoBucket) return std::nullopt;
    std::optional<std::uint32_t> evicted;
    if (size_ >= capacity_) {
        evicted = nodes_[tail_].id;
        remove(find(*evicted));
    }
    std::uint32_t n = free_;
    if (n != kNone) {
        free_ = nodes_[n].next;
    } else {
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back({});
    }
    nodes_[n].id = id;
    push_front(n);
    if ((size_ + 1) * 2 > buckets_.size()) grow_buckets();
    const std::size_t mask = buckets_.size() - 1;
    std::size_t b = home(id);
    while (buckets_[b].node != kNone) b = (b + 1) & mask;
    buckets_[b] = Bucket{id, n};
    ++size_;
    return evicted;
}

void LruCache::set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (size_ > capacity_) remove(find(nodes_[tail_].id));
}

std::optional<std::uint32_t> LruCache::peek_victim() const {
    if (tail_ == kNone) return std::nullopt;
    return nodes_[tail_].id;
}

bool LruCache::erase(std::uint32_t id) {
    const std::size_t b = find(id);
    if (b == kNoBucket) return false;
    remove(b);
    return true;
}

// ---------------------------------------------------------------- LfuCache

LfuCache::LfuCache(std::size_t capacity) : OrderedCache{capacity} {}

bool LfuCache::touch(std::uint32_t id) {
    LfuEntry* entry = find(id);
    if (entry == nullptr) return false;
    rekey(id, *entry, {entry->key.first + 1, ++access_counter_});
    return true;
}

std::optional<std::uint32_t> LfuCache::admit(std::uint32_t id) {
    if (!admissible(id)) return std::nullopt;
    std::optional<std::uint32_t> evicted;
    if (full()) evicted = pop_min();
    insert(id, {.key = {1, ++access_counter_}});
    return evicted;
}

// --------------------------------------------------------------- FifoCache

FifoCache::FifoCache(std::size_t capacity) : capacity_{capacity} {}

bool FifoCache::contains(std::uint32_t id) const {
    return index_.contains(id);
}

bool FifoCache::touch(std::uint32_t id) {
    return index_.contains(id);  // FIFO order is insertion-only.
}

std::optional<std::uint32_t> FifoCache::admit(std::uint32_t id) {
    if (capacity_ == 0 || index_.contains(id)) return std::nullopt;
    std::optional<std::uint32_t> evicted;
    if (index_.size() >= capacity_) {
        const std::uint32_t victim = order_.front();
        order_.pop_front();
        index_.erase(victim);
        evicted = victim;
    }
    order_.push_back(id);
    index_.emplace(id, std::prev(order_.end()));
    return evicted;
}

void FifoCache::set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (index_.size() > capacity_) {
        const std::uint32_t victim = order_.front();
        order_.pop_front();
        index_.erase(victim);
    }
}

std::optional<std::uint32_t> FifoCache::peek_victim() const {
    if (order_.empty()) return std::nullopt;
    return order_.front();
}

bool FifoCache::erase(std::uint32_t id) {
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    order_.erase(it->second);
    index_.erase(it);
    return true;
}

// ------------------------------------------------------------- StaticCache

StaticCache::StaticCache(std::size_t capacity) : capacity_{capacity} {}

bool StaticCache::contains(std::uint32_t id) const {
    return slots_.contains(id);
}

bool StaticCache::touch(std::uint32_t id) {
    return slots_.contains(id);
}

std::optional<std::uint32_t> StaticCache::admit(std::uint32_t id) {
    if (slots_.size() >= capacity_ || slots_.contains(id)) return std::nullopt;
    slots_.emplace(id, items_.size());
    items_.push_back(id);
    return std::nullopt;  // MinIO never replaces.
}

void StaticCache::set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    // Never-replaces != never-shrinks: elastic resize evicts LIFO
    // (newest-admitted first), keeping the earliest-admitted stable set.
    while (items_.size() > capacity_) {
        slots_.erase(items_.back());
        items_.pop_back();
    }
}

std::optional<std::uint32_t> StaticCache::peek_victim() const {
    if (items_.empty()) return std::nullopt;
    return items_.back();
}

bool StaticCache::erase(std::uint32_t id) {
    const auto it = slots_.find(id);
    if (it == slots_.end()) return false;
    const std::size_t slot = it->second;
    items_[slot] = items_.back();
    slots_[items_.back()] = slot;
    items_.pop_back();
    slots_.erase(id);
    return true;
}

// ------------------------------------------------------------- RandomCache

RandomCache::RandomCache(std::size_t capacity, util::Rng rng)
    : capacity_{capacity}, rng_{rng} {}

bool RandomCache::contains(std::uint32_t id) const {
    return slots_.contains(id);
}

bool RandomCache::touch(std::uint32_t id) {
    return slots_.contains(id);
}

std::uint32_t RandomCache::remove_slot(std::size_t slot) {
    const std::uint32_t victim = items_[slot];
    items_[slot] = items_.back();
    slots_[items_.back()] = slot;
    items_.pop_back();
    slots_.erase(victim);
    return victim;
}

std::optional<std::uint32_t> RandomCache::admit(std::uint32_t id) {
    if (capacity_ == 0 || slots_.contains(id)) return std::nullopt;
    std::optional<std::uint32_t> evicted;
    if (items_.size() >= capacity_) {
        // Swap-remove a uniformly random victim.
        evicted = remove_slot(rng_.uniform_index(items_.size()));
    }
    slots_.emplace(id, items_.size());
    items_.push_back(id);
    return evicted;
}

void RandomCache::set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    // Shrink evicts uniformly random victims — the same victim order the
    // policy uses on the admission path.
    while (items_.size() > capacity_) {
        remove_slot(rng_.uniform_index(items_.size()));
    }
}

std::optional<std::uint32_t> RandomCache::peek_victim() const {
    if (items_.empty()) return std::nullopt;
    util::Rng preview = rng_;  // preview the next draw without consuming it
    return items_[preview.uniform_index(items_.size())];
}

bool RandomCache::erase(std::uint32_t id) {
    const auto it = slots_.find(id);
    if (it == slots_.end()) return false;
    remove_slot(it->second);
    return true;
}

std::optional<std::uint32_t> RandomCache::random_resident() {
    if (items_.empty()) return std::nullopt;
    return items_[rng_.uniform_index(items_.size())];
}

// --------------------------------------------------------------- GdsfCache

GdsfCache::GdsfCache(std::size_t capacity) : OrderedCache{capacity} {}

void GdsfCache::reprioritize(std::uint32_t id, GdsfEntry& entry) {
    rekey(id, entry,
          {clock_ + static_cast<double>(entry.frequency) * entry.cost,
           ++stamp_counter_});
}

bool GdsfCache::touch(std::uint32_t id) {
    GdsfEntry* entry = find(id);
    if (entry == nullptr) return false;
    ++entry->frequency;
    reprioritize(id, *entry);
    return true;
}

std::uint32_t GdsfCache::pop_min() {
    // The clock inflates to the evicted priority: future insertions start
    // above everything that has already aged out.
    clock_ = std::max(clock_, min_key().first);
    return OrderedCache::pop_min();
}

std::optional<std::uint32_t> GdsfCache::admit(std::uint32_t id) {
    if (!admissible(id)) return std::nullopt;
    std::optional<std::uint32_t> evicted;
    if (full()) evicted = pop_min();
    const double cost = take_pending(id).value_or(1.0);
    insert(id, {.key = {clock_ + cost, ++stamp_counter_},
                .frequency = 1,
                .cost = cost});
    return evicted;
}

void GdsfCache::note_score(std::uint32_t id, double score) {
    const double cost = std::max(score, 0.0);
    GdsfEntry* entry = find(id);
    if (entry == nullptr) {
        note_pending(id, cost);
        return;
    }
    entry->cost = cost;
    reprioritize(id, *entry);
}

// ---------------------------------------------------------- CostAwareCache

CostAwareCache::CostAwareCache(std::size_t capacity)
    : OrderedCache{capacity} {}

bool CostAwareCache::touch(std::uint32_t id) {
    CostEntry* entry = find(id);
    if (entry == nullptr) return false;
    // Recency bump within the cost bucket.
    rekey(id, *entry, {entry->key.first, ++access_counter_});
    return true;
}

std::optional<std::uint32_t> CostAwareCache::admit(std::uint32_t id) {
    if (!admissible(id)) return std::nullopt;
    std::optional<std::uint32_t> evicted;
    if (full()) evicted = pop_min();
    insert(id, {.key = {take_pending(id).value_or(1.0), ++access_counter_}});
    return evicted;
}

void CostAwareCache::note_score(std::uint32_t id, double score) {
    const double cost = std::max(score, 0.0);
    CostEntry* entry = find(id);
    if (entry == nullptr) {
        note_pending(id, cost);
        return;
    }
    rekey(id, *entry, {cost, ++access_counter_});
}

// ----------------------------------------------------------- SemanticCache

SemanticCache::SemanticCache(std::size_t capacity) : OrderedCache{capacity} {}

std::optional<std::uint32_t> SemanticCache::admit(std::uint32_t id) {
    if (!admissible(id)) return std::nullopt;
    const double score = take_pending(id).value_or(
        -std::numeric_limits<double>::infinity());
    std::optional<std::uint32_t> evicted;
    if (full()) {
        if (score <= min_key().first) return std::nullopt;  // Case 2
        evicted = pop_min();                                 // Case 4
    }
    insert(id, {.key = {score, id}});
    return evicted;
}

void SemanticCache::note_score(std::uint32_t id, double score) {
    SemanticEntry* entry = find(id);
    if (entry == nullptr) {
        note_pending(id, score);
        return;
    }
    rekey(id, *entry, {score, id});
}

}  // namespace spider::cache

#include "cache/basic_policies.hpp"

#include <algorithm>
#include <limits>

namespace spider::cache {

// --------------------------------------------------------------- SlabCache

void SlabCache::unlink(std::uint32_t n) {
    const Node& node = nodes_[n];
    (node.prev == kNone ? head_ : nodes_[node.prev].next) = node.next;
    (node.next == kNone ? tail_ : nodes_[node.next].prev) = node.prev;
}

void SlabCache::push_front(std::uint32_t n) {
    nodes_[n].prev = kNone;
    nodes_[n].next = head_;
    (head_ == kNone ? tail_ : nodes_[head_].prev) = n;
    head_ = n;
}

void SlabCache::release(std::uint32_t n) {
    unlink(n);
    nodes_[n].next = free_;
    free_ = n;
}

void SlabCache::evict_tail() {
    const std::uint32_t n = tail_;
    nodes_of_.erase(nodes_[n].id);
    release(n);
}

bool SlabCache::bump(std::uint32_t id) {
    const std::uint32_t* n = nodes_of_.find(id);
    if (n == nullptr) return false;
    if (*n != head_) {
        unlink(*n);
        push_front(*n);
    }
    return true;
}

std::optional<std::uint32_t> SlabCache::admit(std::uint32_t id) {
    if (capacity_ == 0 || nodes_of_.contains(id)) return std::nullopt;
    std::optional<std::uint32_t> evicted;
    if (nodes_of_.size() >= capacity_) {
        evicted = nodes_[tail_].id;
        evict_tail();
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
    nodes_of_.try_emplace(id, n);
    return evicted;
}

void SlabCache::set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (nodes_of_.size() > capacity_) evict_tail();
}

std::optional<std::uint32_t> SlabCache::peek_victim() const {
    if (tail_ == kNone) return std::nullopt;
    return nodes_[tail_].id;
}

bool SlabCache::erase(std::uint32_t id) {
    const auto n = nodes_of_.take(id);
    if (!n) return false;
    release(*n);
    return true;
}

// ---------------------------------------------------------------- LfuCache

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

// --------------------------------------------------------------- SlotCache

void SlotCache::push(std::uint32_t id) {
    slots_.try_emplace(id, items_.size());
    items_.push_back(id);
}

std::uint32_t SlotCache::remove_slot(std::size_t slot) {
    const std::uint32_t victim = items_[slot];
    items_[slot] = items_.back();
    slots_[items_.back()] = slot;
    items_.pop_back();
    slots_.erase(victim);
    return victim;
}

bool SlotCache::erase(std::uint32_t id) {
    const std::size_t* slot = slots_.find(id);
    if (slot == nullptr) return false;
    remove_slot(*slot);
    return true;
}

// ------------------------------------------------------------- StaticCache

std::optional<std::uint32_t> StaticCache::admit(std::uint32_t id) {
    if (items_.size() < capacity_ && !contains(id)) push(id);
    return std::nullopt;  // MinIO never replaces.
}

void StaticCache::set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    // Never-replaces != never-shrinks: elastic resize evicts LIFO
    // (newest-admitted first), keeping the earliest-admitted stable set.
    while (items_.size() > capacity_) remove_slot(items_.size() - 1);
}

std::optional<std::uint32_t> StaticCache::peek_victim() const {
    if (items_.empty()) return std::nullopt;
    return items_.back();
}

// ------------------------------------------------------------- RandomCache

std::optional<std::uint32_t> RandomCache::admit(std::uint32_t id) {
    if (capacity_ == 0 || contains(id)) return std::nullopt;
    std::optional<std::uint32_t> evicted;
    if (items_.size() >= capacity_) {
        // Swap-remove a uniformly random victim.
        evicted = remove_slot(rng_.uniform_index(items_.size()));
    }
    push(id);
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

std::optional<std::uint32_t> RandomCache::random_resident() {
    if (items_.empty()) return std::nullopt;
    return items_[rng_.uniform_index(items_.size())];
}

// --------------------------------------------------------------- GdsfCache

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
    const double cost = std::max(take_pending(id).value_or(1.0), 0.0);
    insert(id, {.key = {clock_ + cost, ++stamp_counter_},
                .frequency = 1,
                .cost = cost});
    return evicted;
}

void GdsfCache::rescore(std::uint32_t id, GdsfEntry& entry, double score) {
    entry.cost = std::max(score, 0.0);
    reprioritize(id, entry);
}

// ---------------------------------------------------------- CostAwareCache

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
    insert(id, {.key = {std::max(take_pending(id).value_or(1.0), 0.0),
                        ++access_counter_}});
    return evicted;
}

void CostAwareCache::rescore(std::uint32_t id, CostEntry& entry,
                             double score) {
    rekey(id, entry, {std::max(score, 0.0), ++access_counter_});
}

// ----------------------------------------------------------- SemanticCache

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

}  // namespace spider::cache

#include "cache/homophily_cache.hpp"

#include <stdexcept>

namespace spider::cache {

HomophilyCache::HomophilyCache(std::size_t capacity, PolicyKind kind)
    : capacity_{capacity}, kind_{kind} {
    if (kind_ != PolicyKind::kFifo) {
        if (!homophily_policy_ok(kind_)) {
            throw std::invalid_argument{
                "HomophilyCache: policy '" + to_string(kind_) +
                "' not eligible for the homophily section"};
        }
        policy_ = make_section_policy(kind_, capacity_);
    }
}

bool HomophilyCache::contains_key(std::uint32_t id) const {
    return entries_.contains(id);
}

void HomophilyCache::evict_key(std::uint32_t victim) {
    const auto entry_it = entries_.find(victim);
    fifo_.erase(entry_it->second.fifo_pos);
    entries_.erase(entry_it);
    if (policy_) policy_->erase(victim);
}

std::optional<std::uint32_t> HomophilyCache::next_victim() const {
    if (policy_) return policy_->peek_victim();
    if (fifo_.empty()) return std::nullopt;
    return fifo_.front();
}

std::optional<std::uint32_t> HomophilyCache::update(
    std::uint32_t key, std::span<const std::uint32_t> neighbors) {
    if (capacity_ == 0 || entries_.contains(key)) return std::nullopt;
    std::optional<std::uint32_t> evicted;
    if (entries_.size() >= capacity_) {
        evicted = next_victim();
        evict_key(*evicted);
    }
    fifo_.push_back(key);
    Entry entry;
    entry.neighbors.assign(neighbors.begin(), neighbors.end());
    entry.fifo_pos = std::prev(fifo_.end());
    entry.seq = ++next_seq_;
    entries_.emplace(key, std::move(entry));
    if (policy_) policy_->admit(key);  // never evicts: victim pre-removed
    return evicted;
}

bool HomophilyCache::touch_key(std::uint32_t key) {
    if (!entries_.contains(key)) return false;
    if (policy_) policy_->touch(key);
    return true;
}

std::optional<std::uint64_t> HomophilyCache::seq_of(std::uint32_t key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second.seq;
}

std::optional<std::pair<std::uint32_t, std::vector<std::uint32_t>>>
HomophilyCache::evict_oldest() {
    const auto victim = next_victim();
    if (!victim) return std::nullopt;
    std::vector<std::uint32_t> neighbors{entries_.at(*victim).neighbors};
    evict_key(*victim);
    return std::make_pair(*victim, std::move(neighbors));
}

std::span<const std::uint32_t> HomophilyCache::neighbors_of(
    std::uint32_t key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return {};
    return it->second.neighbors;
}

void HomophilyCache::set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (entries_.size() > capacity_) evict_key(*next_victim());
    if (policy_) policy_->set_capacity(capacity_);
}

}  // namespace spider::cache

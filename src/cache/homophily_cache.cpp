#include "cache/homophily_cache.hpp"

#include <stdexcept>

namespace spider::cache {

HomophilyCache::HomophilyCache(std::size_t capacity, PolicyKind kind)
    : capacity_{capacity}, kind_{kind} {
    if (!homophily_policy_ok(kind_)) {
        throw std::invalid_argument{"HomophilyCache: policy '" +
                                    to_string(kind_) +
                                    "' not eligible for the homophily section"};
    }
    policy_ = make_section_policy(kind_, capacity_);
}

bool HomophilyCache::contains_key(std::uint32_t id) const {
    return entries_.contains(id);
}

std::optional<std::uint32_t> HomophilyCache::update(
    std::uint32_t key, std::span<const std::uint32_t> neighbors) {
    if (capacity_ == 0 || entries_.contains(key)) return std::nullopt;
    std::optional<std::uint32_t> evicted;
    if (entries_.size() >= capacity_) evicted = evict_oldest()->first;
    entries_.try_emplace(
        key, Entry{std::vector<std::uint32_t>(neighbors.begin(),
                                              neighbors.end()),
                   ++next_seq_});
    policy_->admit(key);  // never evicts: the victim went above
    return evicted;
}

bool HomophilyCache::touch_key(std::uint32_t key) {
    return policy_->touch(key);
}

std::optional<std::uint64_t> HomophilyCache::seq_of(std::uint32_t key) const {
    const Entry* entry = entries_.find(key);
    if (entry == nullptr) return std::nullopt;
    return entry->seq;
}

std::optional<std::pair<std::uint32_t, std::vector<std::uint32_t>>>
HomophilyCache::evict_oldest() {
    const auto victim = policy_->peek_victim();
    if (!victim) return std::nullopt;
    policy_->erase(*victim);
    return std::make_pair(*victim,
                          std::move(entries_.take(*victim)->neighbors));
}

std::span<const std::uint32_t> HomophilyCache::neighbors_of(
    std::uint32_t key) const {
    const Entry* entry = entries_.find(key);
    if (entry == nullptr) return {};
    return entry->neighbors;
}

void HomophilyCache::set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (entries_.size() > capacity_) evict_oldest();
    policy_->set_capacity(capacity_);
}

}  // namespace spider::cache

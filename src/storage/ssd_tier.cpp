#include "storage/ssd_tier.hpp"

#include <algorithm>
#include <limits>

namespace spider::storage {

namespace {

std::size_t effective_capacity(const SsdTierConfig& config) {
    if (!config.enabled) return 0;
    return config.capacity_items == 0
               ? std::numeric_limits<std::size_t>::max() / 2
               : config.capacity_items;
}

}  // namespace

SsdTier::SsdTier(SsdTierConfig config)
    : config_{std::move(config)}, lru_{effective_capacity(config_)} {
    if (config_.enabled && !config_.path.empty()) {
        SsdBlockStoreConfig store;
        store.dir = config_.path;
        store.capacity_bytes = config_.capacity_mb << 20;
        store.segment_bytes = std::max<std::size_t>(config_.segment_mb, 1)
                              << 20;
        store.bloom_bits_per_key = config_.bloom_bits_per_key;
        block_ = std::make_unique<SsdBlockStore>(store);
    }
}

void SsdTier::notify_evict_locked(std::uint32_t id) {
    if (!residency_listener_) return;
    cache::ResidencyRecord ev;
    ev.op = cache::ResidencyOp::kSsdEvict;
    ev.id = id;
    residency_listener_(ev);
}

bool SsdTier::fetch(std::uint32_t id) {
    return fetch_payload(id).has_value();
}

std::optional<std::vector<std::uint8_t>> SsdTier::fetch_payload(
    std::uint32_t id) {
    const std::lock_guard lock{mu_};
    if (!config_.enabled) {
        // Uniform counter semantics: a consult of a disabled tier is a
        // miss, not a silent no-op, so hit-ratio math survives flips.
        ++misses_;
        return std::nullopt;
    }
    if (!lru_.touch(id)) {
        ++misses_;
        return std::nullopt;
    }
    std::vector<std::uint8_t> payload;
    if (block_) {
        auto bytes = block_->read(id);
        if (!bytes.has_value()) {
            // Resident per the LRU but the bytes did not survive (torn
            // tail past the last flush): drop it and report the miss so
            // the caller falls through to the remote fetch.
            lru_.erase(id);
            block_->erase(id);
            notify_evict_locked(id);
            ++misses_;
            return std::nullopt;
        }
        payload = std::move(*bytes);
    }
    ++hits_;
    return payload;
}

void SsdTier::insert(std::uint32_t id) { insert(id, {}); }

void SsdTier::insert(std::uint32_t id,
                     std::span<const std::uint8_t> payload) {
    if (!config_.enabled) return;
    const std::lock_guard lock{mu_};
    if (block_) block_->write(id, payload);
    const auto evicted = lru_.admit(id);
    if (evicted.has_value()) {
        if (block_) block_->erase(*evicted);
        notify_evict_locked(*evicted);
    }
    if (residency_listener_) {
        cache::ResidencyRecord admit;
        admit.op = cache::ResidencyOp::kSsdInsert;
        admit.id = id;
        residency_listener_(admit);
    }
    enforce_byte_budget_locked();
}

void SsdTier::enforce_byte_budget_locked() {
    if (!block_) return;
    const std::size_t cap = config_.capacity_mb << 20;
    if (cap == 0) return;
    // Walk LRU victims until whole-segment GC frees enough. Only sealed
    // segments can ever be reclaimed, so stop once none are left rather
    // than evicting the world against an immovable active segment.
    while (block_->bytes_used() > cap && block_->sealed_bytes() > 0 &&
           lru_.size() > 0) {
        const auto victim = lru_.peek_victim();
        if (!victim.has_value()) break;
        lru_.erase(*victim);
        block_->erase(*victim);
        notify_evict_locked(*victim);
    }
}

void SsdTier::reset_counters() {
    const std::lock_guard lock{mu_};
    hits_ = 0;
    misses_ = 0;
}

SsdBlockStoreStats SsdTier::block_stats() const {
    const std::lock_guard lock{mu_};
    return block_ ? block_->stats() : SsdBlockStoreStats{};
}

std::size_t SsdTier::bytes_used() const {
    const std::lock_guard lock{mu_};
    return block_ ? block_->bytes_used() : 0;
}

void SsdTier::flush() {
    const std::lock_guard lock{mu_};
    if (block_) block_->flush();
}

void SsdTier::drop_unflushed() {
    const std::lock_guard lock{mu_};
    if (block_) block_->drop_unflushed();
}

void SsdTier::clear_store() {
    const std::lock_guard lock{mu_};
    if (block_) block_->clear();
}

std::vector<std::uint32_t> SsdTier::dump_residency() const {
    const std::lock_guard lock{mu_};
    std::vector<std::uint32_t> ids;
    ids.reserve(lru_.size());
    lru_.for_each_victim_first(
        [&ids](std::uint32_t id) { ids.push_back(id); });
    return ids;
}

std::size_t SsdTier::restore(const std::vector<std::uint32_t>& ids) {
    if (!config_.enabled) return 0;
    const std::lock_guard lock{mu_};
    for (std::uint32_t id : ids) {
        if (block_ && !block_->contains(id)) {
            // Residency record without surviving bytes: the WAL knew the
            // id but its payload never hit disk. Stream the eviction so
            // the log converges to reality.
            notify_evict_locked(id);
            continue;
        }
        const auto evicted = lru_.admit(id);
        if (evicted.has_value()) {
            if (block_) block_->erase(*evicted);
            notify_evict_locked(*evicted);
        }
    }
    if (block_) {
        // Reconcile the other direction: bytes on disk for ids the WAL
        // says are gone (evictions logged after the payload was flushed).
        for (std::uint32_t id : block_->live_ids()) {
            if (!lru_.contains(id)) block_->erase(id);
        }
        enforce_byte_budget_locked();
    }
    return lru_.size();
}

SimDuration SsdTier::batch_read_cost(std::size_t count,
                                     std::size_t parallelism) const {
    if (count == 0) return SimDuration::zero();
    const std::size_t lanes = std::max<std::size_t>(parallelism, 1);
    const std::size_t rounds = (count + lanes - 1) / lanes;
    return config_.read_latency * static_cast<std::int64_t>(rounds);
}

}  // namespace spider::storage

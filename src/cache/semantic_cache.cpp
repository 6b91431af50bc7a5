#include "cache/semantic_cache.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace spider::cache {

namespace {

/// Fibonacci-hash mix: ids arrive as dense small integers, so a plain
/// modulus would put every run of batch_size consecutive ids on rotating
/// shards; the multiplicative mix decorrelates shard choice from id order.
[[nodiscard]] std::uint32_t mix(std::uint32_t id) {
    return id * 0x9E3779B9U;
}

/// Re-admission order: highest score first, equal scores by ascending id,
/// whatever order the pairs came in.
void sort_for_readmission(
    std::vector<std::pair<std::uint32_t, double>>& entries) {
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
        return std::tie(b.second, a.first) < std::tie(a.second, b.first);
    });
}

}  // namespace

std::size_t TwoLayerSemanticCache::auto_shards() {
    const std::size_t hw = std::thread::hardware_concurrency();
    return std::min<std::size_t>(16, std::max<std::size_t>(hw, 1));
}

TwoLayerSemanticCache::TwoLayerSemanticCache(std::size_t total_capacity,
                                             double imp_ratio,
                                             std::size_t shards,
                                             bool lockfree_reads,
                                             SectionPolicies policies)
    : total_capacity_{total_capacity},
      imp_ratio_{imp_ratio},
      lockfree_reads_{lockfree_reads},
      policies_{policies} {
    if (!(imp_ratio > 0.0 && imp_ratio <= 1.0)) {
        throw std::invalid_argument{
            "TwoLayerSemanticCache: imp_ratio must be in (0, 1]"};
    }
    validate(policies_);
    // Same floor as set_imp_ratio(), so a ratio the elastic manager would
    // clamp builds the same partition when passed at construction.
    imp_ratio = std::max(imp_ratio, kMinImpRatio);
    imp_ratio_.store(imp_ratio, std::memory_order_relaxed);
    if (shards == kAutoShards) {
        // Never more shards than items: a zero-capacity shard would reject
        // every admission routed to it.
        shards = std::min(auto_shards(),
                          std::max<std::size_t>(total_capacity_, 1));
    }
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t capacity = slice_capacity(total_capacity_, shards, s);
        const std::size_t imp = imp_items_for(capacity, imp_ratio);
        shards_.push_back(
            std::make_unique<Shard>(imp, capacity - imp, policies_));
    }
}

std::size_t TwoLayerSemanticCache::slice_capacity(std::size_t total,
                                                  std::size_t shards,
                                                  std::size_t s) {
    return total / shards + (s < total % shards ? 1 : 0);
}

std::size_t TwoLayerSemanticCache::imp_items_for(std::size_t capacity,
                                                 double ratio) {
    const auto items = static_cast<std::size_t>(
        std::llround(static_cast<double>(capacity) * ratio));
    return std::min(items, capacity);
}

std::size_t TwoLayerSemanticCache::shard_of(std::uint32_t id) const {
    return mix(id) % shards_.size();
}

Lookup TwoLayerSemanticCache::lookup_locked(const Shard& shard,
                                            std::uint32_t id) const {
    const std::lock_guard lock{shard.mu};
    if (shard.importance.contains(id)) {
        return {HitKind::kImportance, id};
    }
    // A resident high-degree node can also be served directly: it is its
    // own best surrogate.
    if (shard.homophily.contains_key(id)) {
        return {HitKind::kHomophily, id};
    }
    // The neighbor index slice for `id` lives in id's shard, even though
    // the surrogate key it names may reside elsewhere. Newest resident
    // node listing this neighbor wins (freshest embedding).
    const auto* keys = shard.neighbor_index.find(id);
    if (keys != nullptr && !keys->empty()) {
        return {HitKind::kHomophily, keys->back()};
    }
    return {HitKind::kMiss, id};
}

Lookup TwoLayerSemanticCache::lookup(std::uint32_t id) const {
    const Shard& shard = *shards_[shard_of(id)];
    if (lockfree_reads_) {
        if (const auto probe = shard.view.try_probe(id)) {
            // View order mirrors the locked path: Importance, then self-
            // serve homophily key, then surrogate (Algorithm 1 lines 5-9).
            if (probe->flags & ShardResidencyView::kImportance) {
                return {HitKind::kImportance, id};
            }
            if (probe->flags & ShardResidencyView::kHomKey) {
                return {HitKind::kHomophily, id};
            }
            if (probe->flags & ShardResidencyView::kSurrogate) {
                return {HitKind::kHomophily, probe->surrogate};
            }
            return {HitKind::kMiss, id};
        }
    }
    return lookup_locked(shard, id);
}

bool TwoLayerSemanticCache::probe(std::uint32_t id) const {
    const Shard& shard = *shards_[shard_of(id)];
    if (lockfree_reads_) {
        if (const auto probe = shard.view.try_probe(id)) {
            return probe->flags != 0;
        }
    }
    return lookup_locked(shard, id).kind != HitKind::kMiss;
}

ImportanceCache::AdmitResult TwoLayerSemanticCache::on_miss_fetched(
    std::uint32_t id, double score) {
    Shard& shard = *shards_[shard_of(id)];
    const std::lock_guard lock{shard.mu};
    // Section exclusivity (paper §4.2): an id resident as a Homophily key
    // must not also enter the Importance section — it is already cached
    // and a duplicate would double-count capacity.
    if (shard.homophily.contains_key(id)) return {};
    const auto result = shard.importance.admit_scored(id, score);
    if (result.admitted) {
        const ShardResidencyView::WriteSection ws{shard.view};
        if (result.evicted.has_value()) {
            shard.view.clear_importance(*result.evicted);
        }
        shard.view.set_importance(id);
    }
    if (residency_listener_ && result.admitted) {
        if (result.evicted.has_value()) {
            ResidencyRecord evict;
            evict.op = ResidencyOp::kEvictImportance;
            evict.id = *result.evicted;
            emit(evict);
        }
        ResidencyRecord admit;
        admit.op = ResidencyOp::kAdmitImportance;
        admit.id = id;
        admit.score = score;
        emit(admit);
    }
    return result;
}

void TwoLayerSemanticCache::update_importance_score(std::uint32_t id,
                                                    double score) {
    Shard& shard = *shards_[shard_of(id)];
    if (lockfree_reads_) {
        // Wait-free no-op check: most batch ids are not resident, so the
        // common case never touches the mutex. A racing admit right after
        // the probe is the same outcome as running this call just before
        // that admit under the lock.
        if (const auto probe = shard.view.try_probe(id);
            probe.has_value() &&
            (probe->flags & ShardResidencyView::kImportance) == 0) {
            return;
        }
    }
    const std::lock_guard lock{shard.mu};
    // A re-score changes no residency: the view is left alone.
    if (shard.importance.update_score(id, score)) {
        ResidencyRecord record;
        record.op = ResidencyOp::kScoreUpdate;
        record.id = id;
        record.score = score;
        emit(record);
    }
}

void TwoLayerSemanticCache::unindex_evicted(
    std::uint32_t victim, std::span<const std::uint32_t> neighbors) {
    for (std::uint32_t neighbor : neighbors) {
        Shard& shard = *shards_[shard_of(neighbor)];
        const std::lock_guard lock{shard.mu};
        auto* keys = shard.neighbor_index.find(neighbor);
        if (keys == nullptr) continue;
        std::erase(*keys, victim);
        const ShardResidencyView::WriteSection ws{shard.view};
        if (keys->empty()) {
            shard.neighbor_index.erase(neighbor);
            shard.view.clear_surrogate(neighbor);
        } else {
            shard.view.set_surrogate(neighbor, keys->back());
        }
    }
}

std::optional<std::uint32_t> TwoLayerSemanticCache::update_homophily(
    std::uint32_t key, std::span<const std::uint32_t> neighbors) {
    Shard& key_shard = *shards_[shard_of(key)];
    // Insert the entry under the key's shard, then maintain the
    // neighbor-index slices one shard at a time (never holding two locks,
    // so update/lookup traffic on other shards cannot deadlock with us).
    std::optional<std::uint32_t> evicted;
    std::vector<std::uint32_t> victim_neighbors;
    std::uint64_t insert_seq = 0;
    {
        const std::lock_guard lock{key_shard.mu};
        if (key_shard.importance.contains(key) ||  // section exclusivity
            key_shard.homophily.capacity() == 0) {
            return std::nullopt;
        }
        if (key_shard.homophily.contains_key(key)) {
            // Re-offer of a resident key is the section's access signal
            // for a delegated policy (no-op under the default FIFO).
            key_shard.homophily.touch_key(key);
            return std::nullopt;
        }
        if (key_shard.homophily.size() >= key_shard.homophily.capacity()) {
            std::tie(evicted, victim_neighbors) =
                *key_shard.homophily.evict_oldest();
        }
        key_shard.homophily.update(key, neighbors);
        insert_seq = *key_shard.homophily.seq_of(key);
        if (residency_listener_) {
            if (evicted.has_value()) {
                ResidencyRecord ev;
                ev.op = ResidencyOp::kEvictHomophily;
                ev.id = *evicted;
                emit(ev);
            }
            ResidencyRecord admit;
            admit.op = ResidencyOp::kAdmitHomophily;
            admit.id = key;
            admit.generation = insert_seq;
            admit.neighbors.assign(neighbors.begin(), neighbors.end());
            emit(admit);
        }
        const ShardResidencyView::WriteSection ws{key_shard.view};
        if (evicted.has_value()) key_shard.view.clear_hom_key(*evicted);
        key_shard.view.set_hom_key(key);
    }
    if (evicted.has_value()) {
        unindex_evicted(*evicted, victim_neighbors);
    }
    if (publish_hook_) publish_hook_();
    for (std::uint32_t neighbor : neighbors) {
        Shard& shard = *shards_[shard_of(neighbor)];
        const std::lock_guard lock{shard.mu};
        shard.neighbor_index[neighbor].push_back(key);
        const ShardResidencyView::WriteSection ws{shard.view};
        shard.view.set_surrogate(neighbor, key);
    }
    // Dangling-surrogate guard: the publish loop above ran without the key
    // shard's lock, so a concurrent eviction (elastic shrink, FIFO churn)
    // may already have removed `key` — unindex_evicted for that eviction
    // ran before our entries existed and missed them. Re-check the insert
    // generation and retract our own publications if it is gone. (If the
    // key was re-inserted meanwhile, retraction may also drop the newer
    // generation's entries — a lost surrogate opportunity, never a
    // dangling one; the newer insert's own publish loop restores most.)
    bool stale_publish = false;
    {
        const std::lock_guard lock{key_shard.mu};
        const auto seq_now = key_shard.homophily.seq_of(key);
        stale_publish = !seq_now.has_value() || *seq_now != insert_seq;
    }
    if (stale_publish) {
        unindex_evicted(key, neighbors);
    }
    return evicted;
}

void TwoLayerSemanticCache::set_imp_ratio(double imp_ratio) {
    if (std::isnan(imp_ratio)) {
        throw std::invalid_argument{
            "TwoLayerSemanticCache::set_imp_ratio: ratio is NaN"};
    }
    imp_ratio = std::clamp(imp_ratio, kMinImpRatio, 1.0);
    imp_ratio_.store(imp_ratio, std::memory_order_relaxed);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard& shard = *shards_[s];
        const std::size_t capacity = shard_capacity(s);
        const std::size_t imp = imp_items_for(capacity, imp_ratio);
        const std::size_t hom = capacity - imp;
        // A shrinking slice evicts; each victim leaves the view in the
        // same write section. Homophily victims must also leave the
        // neighbor-index slices, which live under other shards' locks —
        // collect them first, unindex after releasing.
        std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>>
            victims;
        {
            const std::lock_guard lock{shard.mu};
            const ShardResidencyView::WriteSection ws{shard.view};
            while (shard.importance.size() > imp) {
                shard.view.clear_importance(*shard.importance.evict_victim());
            }
            shard.importance.set_capacity(imp);
            while (shard.homophily.size() > hom) {
                victims.push_back(*shard.homophily.evict_oldest());
                shard.view.clear_hom_key(victims.back().first);
            }
            shard.homophily.set_capacity(hom);
        }
        for (const auto& [victim, victim_neighbors] : victims) {
            unindex_evicted(victim, victim_neighbors);
        }
    }
}

void TwoLayerSemanticCache::set_section_policies(
    const SectionPolicies& policies) {
    validate(policies);
    {
        const std::lock_guard plock{policies_mu_};
        if (policies == policies_) return;
        policies_ = policies;
    }
    for (auto& shard_ptr : shards_) {
        Shard& shard = *shard_ptr;
        const std::lock_guard lock{shard.mu};
        // Snapshot the shard's residency, rebuild both sections under the
        // new policies, and re-admit. Importance goes highest score first,
        // ties by ascending id (everything fits — same capacity — but the
        // order sets a recency or arrival policy's victim order);
        // homophily keys go in their live insertion order so the FIFO
        // record carries over.
        std::vector<std::pair<std::uint32_t, double>> imp;
        shard.importance.for_each([&imp](std::uint32_t id, double score) {
            imp.emplace_back(id, score);
        });
        sort_for_readmission(imp);
        std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> hom;
        shard.homophily.for_each_key([&hom, &shard](std::uint32_t key) {
            const auto nb = shard.homophily.neighbors_of(key);
            hom.emplace_back(key,
                             std::vector<std::uint32_t>{nb.begin(), nb.end()});
        });
        ImportanceCache fresh_imp{shard.importance.capacity(),
                                  policies.importance};
        for (const auto& [id, score] : imp) {
            (void)fresh_imp.admit_scored(id, score);
        }
        shard.importance = std::move(fresh_imp);
        HomophilyCache fresh_hom{shard.homophily.capacity(),
                                 policies.homophily};
        for (const auto& [key, neighbors] : hom) {
            (void)fresh_hom.update(key, neighbors);
        }
        shard.homophily = std::move(fresh_hom);
        // Residency is unchanged, so the neighbor-index slice and the
        // view already describe the fresh sections.
    }
}

std::optional<std::uint32_t> TwoLayerSemanticCache::find_resident_if(
    std::uint32_t near,
    const std::function<bool(std::uint32_t)>& accept) const {
    // Degraded-mode ladder: start at the requested id's own shard (its
    // semantic neighborhood hashes there) and walk the ring. Importance
    // first — the most important compatible resident is the best stand-in.
    const std::size_t start = shard_of(near);
    const std::size_t n = shards_.size();
    for (std::size_t offset = 0; offset < n; ++offset) {
        const Shard& shard = *shards_[(start + offset) % n];
        const std::lock_guard lock{shard.mu};
        if (auto hit = shard.importance.find_best_if(accept)) return hit;
        if (auto hit = shard.homophily.find_key_if(accept)) return hit;
    }
    return std::nullopt;
}

TwoLayerSemanticCache::FrozenState TwoLayerSemanticCache::freeze() const {
    // All shard locks, ascending index. Deadlock-free: every other
    // operation holds at most one shard lock at a time and never blocks
    // on a second while holding it.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto& shard : shards_) {
        locks.emplace_back(shard->mu);
    }
    FrozenState state;
    state.shards.reserve(shards_.size());
    for (const auto& shard_ptr : shards_) {
        const Shard& shard = *shard_ptr;
        FrozenShard frozen;
        shard.importance.for_each([&frozen](std::uint32_t id, double score) {
            frozen.importance.emplace_back(id, score);
        });
        shard.homophily.for_each_key([&frozen](std::uint32_t key) {
            frozen.homophily_keys.push_back(key);
        });
        shard.neighbor_index.for_each(
            [&frozen](std::uint32_t neighbor, const auto& keys) {
                frozen.neighbor_index.emplace_back(neighbor, keys);
            });
        frozen.view = shard.view.entries();
        frozen.importance_capacity = shard.importance.capacity();
        frozen.homophily_capacity = shard.homophily.capacity();
        state.shards.push_back(std::move(frozen));
    }
    return state;
}

std::size_t TwoLayerSemanticCache::importance_size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
        const std::lock_guard lock{shard->mu};
        total += shard->importance.size();
    }
    return total;
}

std::size_t TwoLayerSemanticCache::homophily_size() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
        const std::lock_guard lock{shard->mu};
        total += shard->homophily.size();
    }
    return total;
}

std::size_t TwoLayerSemanticCache::importance_capacity() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
        const std::lock_guard lock{shard->mu};
        total += shard->importance.capacity();
    }
    return total;
}

std::size_t TwoLayerSemanticCache::homophily_capacity() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
        const std::lock_guard lock{shard->mu};
        total += shard->homophily.capacity();
    }
    return total;
}

std::size_t TwoLayerSemanticCache::shard_capacity(std::size_t s) const {
    return slice_capacity(total_capacity_, shards_.size(), s);
}

std::size_t TwoLayerSemanticCache::shard_importance_capacity(
    std::size_t s) const {
    const std::lock_guard lock{shards_[s]->mu};
    return shards_[s]->importance.capacity();
}

std::size_t TwoLayerSemanticCache::shard_importance_size(std::size_t s) const {
    const std::lock_guard lock{shards_[s]->mu};
    return shards_[s]->importance.size();
}

std::size_t TwoLayerSemanticCache::shard_homophily_capacity(
    std::size_t s) const {
    const std::lock_guard lock{shards_[s]->mu};
    return shards_[s]->homophily.capacity();
}

std::size_t TwoLayerSemanticCache::shard_homophily_size(std::size_t s) const {
    const std::lock_guard lock{shards_[s]->mu};
    return shards_[s]->homophily.size();
}

std::optional<double> TwoLayerSemanticCache::shard_min_score(
    std::size_t s) const {
    const std::lock_guard lock{shards_[s]->mu};
    return shards_[s]->importance.min_score();
}

RestoreImage TwoLayerSemanticCache::dump_residency() const {
    // All shard locks ascending, like freeze(): the dump must be one
    // consistent cut or the compacted snapshot could capture a key in
    // neither (or both) sections mid-move.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto& shard : shards_) {
        locks.emplace_back(shard->mu);
    }
    RestoreImage image;
    for (const auto& shard_ptr : shards_) {
        const Shard& shard = *shard_ptr;
        shard.importance.for_each([&image](std::uint32_t id, double score) {
            image.importance.emplace_back(id, score);
        });
        shard.homophily.for_each_key([&image, &shard](std::uint32_t key) {
            const auto nb = shard.homophily.neighbors_of(key);
            image.homophily.emplace_back(
                key, std::vector<std::uint32_t>{nb.begin(), nb.end()});
        });
    }
    return image;
}

std::size_t TwoLayerSemanticCache::restore_from_wal(const RestoreImage& image) {
    // Re-admit through the public paths so every invariant the normal
    // write traffic maintains (section exclusivity, per-shard capacity
    // slices, neighbor index, residency views) holds by construction —
    // even when this cache has a different shard count than the one that
    // wrote the log. Importance first, highest score first: if the image
    // outsizes a shard slice, the admission rule keeps the most important
    // survivors, matching what steady-state churn would have converged to.
    auto importance = image.importance;
    sort_for_readmission(importance);
    for (const auto& [id, score] : importance) {
        (void)on_miss_fetched(id, score);
    }
    // Homophily in FIFO order (oldest first) reproduces the pre-crash
    // eviction horizon; keys that landed in Importance above are skipped
    // by the exclusivity guard.
    for (const auto& [key, neighbors] : image.homophily) {
        (void)update_homophily(key, neighbors);
    }
    return importance_size() + homophily_size();
}

}  // namespace spider::cache

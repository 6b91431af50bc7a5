#include "server/tenants.hpp"

#include <cmath>
#include <stdexcept>

namespace spider::server {

TenantCacheManager::TenantCacheManager(std::size_t total_items,
                                       std::vector<TenantSpec> specs,
                                       std::size_t shards,
                                       bool lockfree_reads)
    : total_items_{total_items}, specs_{std::move(specs)} {
    if (specs_.empty()) {
        throw std::invalid_argument{"TenantCacheManager: no tenants"};
    }
    if (specs_.size() > 256) {
        throw std::invalid_argument{
            "TenantCacheManager: tenant byte addresses at most 256 tenants"};
    }
    double pct_sum = 0.0;
    for (const TenantSpec& s : specs_) {
        if (s.capacity_pct <= 0.0) {
            throw std::invalid_argument{
                "TenantCacheManager: capacity_pct must be > 0"};
        }
        pct_sum += s.capacity_pct;
    }
    if (pct_sum > 100.0 + 1e-9) {
        throw std::invalid_argument{
            "TenantCacheManager: capacity_pct sums to > 100"};
    }
    tenants_.reserve(specs_.size());
    for (const TenantSpec& s : specs_) {
        const auto slice = static_cast<std::size_t>(std::floor(
            static_cast<double>(total_items) * s.capacity_pct / 100.0));
        if (slice == 0) {
            throw std::invalid_argument{
                "TenantCacheManager: tenant slice rounds to zero items"};
        }
        tenants_.push_back(std::make_unique<Tenant>(
            slice, s.imp_ratio, shards, lockfree_reads, s.policies));
    }
}

std::size_t TenantCacheManager::tenant_capacity(std::uint8_t t) const {
    return tenants_.at(t)->cache.total_capacity();
}

const TenantSpec& TenantCacheManager::spec(std::uint8_t t) const {
    return specs_.at(t);
}

cache::Lookup TenantCacheManager::lookup(std::uint8_t t, std::uint32_t id) {
    Tenant& tenant = *tenants_.at(t);
    const cache::Lookup r = tenant.cache.lookup(id);
    switch (r.kind) {
        case cache::HitKind::kImportance:
            tenant.hits_importance.fetch_add(1, std::memory_order_relaxed);
            break;
        case cache::HitKind::kHomophily:
            tenant.hits_homophily.fetch_add(1, std::memory_order_relaxed);
            break;
        case cache::HitKind::kMiss:
            tenant.misses.fetch_add(1, std::memory_order_relaxed);
            break;
    }
    return r;
}

bool TenantCacheManager::probe(std::uint8_t t, std::uint32_t id) const {
    return tenants_.at(t)->cache.probe(id);
}

bool TenantCacheManager::admit_after_fetch(std::uint8_t t, std::uint32_t id,
                                           double score) {
    Tenant& tenant = *tenants_.at(t);
    const auto result = tenant.cache.on_miss_fetched(id, score);
    if (result.admitted) {
        tenant.admitted.fetch_add(1, std::memory_order_relaxed);
    }
    return result.admitted;
}

void TenantCacheManager::put_score(std::uint8_t t, std::uint32_t id,
                                   double score) {
    tenants_.at(t)->cache.update_importance_score(id, score);
}

std::optional<std::uint32_t> TenantCacheManager::put_neighbors(
    std::uint8_t t, std::uint32_t key,
    std::span<const std::uint32_t> neighbors) {
    return tenants_.at(t)->cache.update_homophily(key, neighbors);
}

double TenantCacheManager::set_imp_ratio(std::uint8_t t, double ratio) {
    Tenant& tenant = *tenants_.at(t);
    tenant.cache.set_imp_ratio(ratio);
    return tenant.cache.imp_ratio();
}

TenantStatReply TenantCacheManager::stats(std::uint8_t t) const {
    const Tenant& tenant = *tenants_.at(t);
    TenantStatReply r;
    r.capacity = tenant.cache.total_capacity();
    r.imp_capacity = tenant.cache.importance_capacity();
    r.hom_capacity = tenant.cache.homophily_capacity();
    r.imp_size = tenant.cache.importance_size();
    r.hom_size = tenant.cache.homophily_size();
    r.hits_importance =
        tenant.hits_importance.load(std::memory_order_relaxed);
    r.hits_homophily = tenant.hits_homophily.load(std::memory_order_relaxed);
    r.misses = tenant.misses.load(std::memory_order_relaxed);
    r.admitted = tenant.admitted.load(std::memory_order_relaxed);
    r.imp_ratio = tenant.cache.imp_ratio();
    return r;
}

cache::TwoLayerSemanticCache& TenantCacheManager::cache(std::uint8_t t) {
    return tenants_.at(t)->cache;
}

const cache::TwoLayerSemanticCache& TenantCacheManager::cache(
    std::uint8_t t) const {
    return tenants_.at(t)->cache;
}

TenantCacheManager::IsolationReport TenantCacheManager::check_isolation()
    const {
    IsolationReport report;
    std::size_t slice_sum = 0;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        const cache::TwoLayerSemanticCache& c = tenants_[t]->cache;
        slice_sum += c.total_capacity();
        const auto fail = [&](const std::string& what) {
            report.ok = false;
            report.detail = "tenant " + std::to_string(t) + ": " + what;
        };
        if (c.importance_size() > c.importance_capacity()) {
            fail("importance section over its budget");
            return report;
        }
        if (c.homophily_size() > c.homophily_capacity()) {
            fail("homophily section over its budget");
            return report;
        }
        if (c.importance_capacity() + c.homophily_capacity() >
            c.total_capacity()) {
            fail("section budgets exceed the tenant slice");
            return report;
        }
    }
    if (slice_sum > total_items_) {
        report.ok = false;
        report.detail = "tenant slices sum past the server budget";
    }
    return report;
}

}  // namespace spider::server

#pragma once

// Multi-tenant front-end over the two-layer semantic cache (DESIGN.md
// §10.3): N training jobs share one served SpiderCache, each behind an
// isolated capacity slice. Isolation is structural — every tenant owns a
// private TwoLayerSemanticCache sized to floor(total * capacity_pct/100)
// items — so a tenant's eviction storm cannot displace another tenant's
// residents and a slice can never grow past its budget (the DCI-style
// workload-aware allocation is then just a choice of percentages and
// per-tenant imp_ratio).
//
// Thread safety: lookups/probes ride each cache's seqlock wait-free read
// path; admissions and score updates take only that tenant's shard locks.
// The manager itself adds no cross-tenant synchronization — the isolation
// stress test hammers all tenants from concurrent threads.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/semantic_cache.hpp"
#include "server/protocol.hpp"

namespace spider::server {

struct TenantSpec {
    /// Slice of the server's total cache capacity, in percent.
    double capacity_pct = 100.0;
    /// Initial Importance-section fraction of this tenant's slice.
    double imp_ratio = 0.9;
    /// Per-tenant eviction policies (DESIGN.md §13): one tenant can run
    /// the paper's semantic admission while another runs plain LRU over
    /// the same served budget. Defaults are the paper's.
    cache::SectionPolicies policies{};
};

class TenantCacheManager {
public:
    /// @param total_items  Server-wide cache budget, in items.
    /// @param specs        One entry per tenant; capacity_pct must sum to
    ///                     <= 100 (+epsilon). Throws std::invalid_argument
    ///                     otherwise, or when specs is empty / > 256.
    /// @param shards       Shard count per tenant cache (0 = auto).
    /// @param lockfree_reads  Seqlock read path on the tenant caches.
    TenantCacheManager(std::size_t total_items, std::vector<TenantSpec> specs,
                       std::size_t shards = 0, bool lockfree_reads = true);

    [[nodiscard]] std::size_t num_tenants() const { return tenants_.size(); }
    [[nodiscard]] std::size_t total_items() const { return total_items_; }
    [[nodiscard]] bool valid_tenant(std::uint8_t t) const {
        return t < tenants_.size();
    }
    /// Items budgeted to tenant `t` (its cache's total capacity).
    [[nodiscard]] std::size_t tenant_capacity(std::uint8_t t) const;
    [[nodiscard]] const TenantSpec& spec(std::uint8_t t) const;

    /// Read path: Case 1/3 lookup in tenant `t`'s cache. Wait-free when
    /// lockfree reads are on. Bumps the tenant hit/miss counters.
    [[nodiscard]] cache::Lookup lookup(std::uint8_t t, std::uint32_t id);
    /// Residency probe without counter side effects.
    [[nodiscard]] bool probe(std::uint8_t t, std::uint32_t id) const;

    /// Miss path, after the backing fetch succeeded: applies the tenant
    /// section's admission rule (Case 2/4 under the default policy) to
    /// `id` at `score`. Returns whether the id was admitted.
    bool admit_after_fetch(std::uint8_t t, std::uint32_t id, double score);

    /// Score refresh (scores drift every epoch): re-keys the entry if
    /// resident. A non-resident id's score is not kept; the next miss
    /// carries it again.
    void put_score(std::uint8_t t, std::uint32_t id, double score);

    /// Homophily offer (Algorithm 1 line 22) for tenant `t`.
    std::optional<std::uint32_t> put_neighbors(
        std::uint8_t t, std::uint32_t key,
        std::span<const std::uint32_t> neighbors);

    /// Elastic repartition of one tenant's slice. Returns the applied
    /// (clamped) ratio.
    double set_imp_ratio(std::uint8_t t, double ratio);

    [[nodiscard]] TenantStatReply stats(std::uint8_t t) const;

    /// Direct cache access for the freeze-oracle isolation tests.
    [[nodiscard]] cache::TwoLayerSemanticCache& cache(std::uint8_t t);
    [[nodiscard]] const cache::TwoLayerSemanticCache& cache(
        std::uint8_t t) const;

    /// Capacity-slice invariants, checkable at any quiescent point:
    /// every tenant's per-section sizes are within its slice's budgets and
    /// the slices sum to at most the server budget. `detail` names the
    /// first violated invariant.
    struct IsolationReport {
        bool ok = true;
        std::string detail;
    };
    [[nodiscard]] IsolationReport check_isolation() const;

private:
    struct Tenant {
        Tenant(std::size_t capacity, double imp_ratio, std::size_t shards,
               bool lockfree, const cache::SectionPolicies& policies)
            : cache{capacity, imp_ratio,
                    shards == 0 ? cache::TwoLayerSemanticCache::kAutoShards
                                : shards,
                    lockfree, policies} {}

        cache::TwoLayerSemanticCache cache;
        std::atomic<std::uint64_t> hits_importance{0};
        std::atomic<std::uint64_t> hits_homophily{0};
        std::atomic<std::uint64_t> misses{0};
        std::atomic<std::uint64_t> admitted{0};
    };

    std::size_t total_items_;
    std::vector<TenantSpec> specs_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
};

}  // namespace spider::server

// Multi-tenant isolation tests: capacity slices are carved correctly and
// never exceeded, one tenant's eviction storm cannot displace another
// tenant's residents (freeze-oracle comparison), and the invariants hold
// under concurrent multi-tenant stress. Run under TSan by
// tools/run_tier1.sh --server.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "server/tenants.hpp"

namespace spider::server {
namespace {

/// Sorted (id, score) importance residents across all shards — the
/// freeze-oracle view used to compare snapshots.
std::vector<std::pair<std::uint32_t, double>> importance_residents(
    const cache::TwoLayerSemanticCache& cache) {
    std::vector<std::pair<std::uint32_t, double>> out;
    const auto frozen = cache.freeze();
    for (const auto& shard : frozen.shards) {
        out.insert(out.end(), shard.importance.begin(),
                   shard.importance.end());
    }
    std::sort(out.begin(), out.end());
    return out;
}

// ============================================================ construction

TEST(TenantManager, ValidatesSpecs) {
    EXPECT_THROW((TenantCacheManager{100, {}}), std::invalid_argument);
    EXPECT_THROW(
        (TenantCacheManager{100, {TenantSpec{.capacity_pct = 0.0}}}),
        std::invalid_argument);
    EXPECT_THROW(
        (TenantCacheManager{100,
                            {TenantSpec{.capacity_pct = 60.0},
                             TenantSpec{.capacity_pct = 50.0}}}),
        std::invalid_argument);
    // A slice that rounds to zero items cannot host a cache.
    EXPECT_THROW(
        (TenantCacheManager{10, {TenantSpec{.capacity_pct = 1.0}}}),
        std::invalid_argument);
    EXPECT_THROW(
        (TenantCacheManager{100,
                            std::vector<TenantSpec>(257, TenantSpec{
                                .capacity_pct = 100.0 / 257.0})}),
        std::invalid_argument);
}

TEST(TenantManager, SlicesPartitionTheBudget) {
    const TenantCacheManager mgr{
        1000,
        {TenantSpec{.capacity_pct = 50.0, .imp_ratio = 0.9},
         TenantSpec{.capacity_pct = 30.0, .imp_ratio = 0.8},
         TenantSpec{.capacity_pct = 20.0, .imp_ratio = 0.5}}};
    ASSERT_EQ(mgr.num_tenants(), 3U);
    EXPECT_EQ(mgr.tenant_capacity(0), 500U);
    EXPECT_EQ(mgr.tenant_capacity(1), 300U);
    EXPECT_EQ(mgr.tenant_capacity(2), 200U);
    EXPECT_TRUE(mgr.valid_tenant(2));
    EXPECT_FALSE(mgr.valid_tenant(3));
    const auto report = mgr.check_isolation();
    EXPECT_TRUE(report.ok) << report.detail;
}

TEST(TenantManager, PerTenantCountersAndScores) {
    TenantCacheManager mgr{200,
                           {TenantSpec{.capacity_pct = 50.0},
                            TenantSpec{.capacity_pct = 50.0}}};
    EXPECT_TRUE(mgr.admit_after_fetch(0, 1, 2.0));
    EXPECT_EQ(mgr.lookup(0, 1).kind, cache::HitKind::kImportance);
    EXPECT_EQ(mgr.lookup(1, 1).kind, cache::HitKind::kMiss);
    // Scores are read back from the tenant's own cache.
    using Residents = std::vector<std::pair<std::uint32_t, double>>;
    EXPECT_EQ(importance_residents(mgr.cache(0)), (Residents{{1, 2.0}}));
    EXPECT_TRUE(importance_residents(mgr.cache(1)).empty());

    const TenantStatReply t0 = mgr.stats(0);
    EXPECT_EQ(t0.admitted, 1U);
    EXPECT_EQ(t0.hits_importance, 1U);
    EXPECT_EQ(t0.misses, 0U);
    const TenantStatReply t1 = mgr.stats(1);
    EXPECT_EQ(t1.admitted, 0U);
    EXPECT_EQ(t1.misses, 1U);
}

// =============================================================== isolation

TEST(TenantIsolation, SliceNeverExceedsBudget) {
    TenantCacheManager mgr{100,
                           {TenantSpec{.capacity_pct = 40.0},
                            TenantSpec{.capacity_pct = 60.0}}};
    // Offer 10x the slice; the section sizes must stay within budget.
    for (std::uint32_t id = 0; id < 400; ++id) {
        (void)mgr.admit_after_fetch(0, id, 1.0 + id);
    }
    const TenantStatReply t0 = mgr.stats(0);
    EXPECT_LE(t0.imp_size, t0.imp_capacity);
    EXPECT_LE(t0.hom_size, t0.hom_capacity);
    EXPECT_LE(t0.imp_capacity + t0.hom_capacity, 40U);
    const auto report = mgr.check_isolation();
    EXPECT_TRUE(report.ok) << report.detail;
}

TEST(TenantIsolation, EvictionStormCannotCrossTenants) {
    TenantCacheManager mgr{200,
                           {TenantSpec{.capacity_pct = 25.0},
                            TenantSpec{.capacity_pct = 75.0}}};
    // Settle tenant 0 with more offers than its 50-item slice holds.
    for (std::uint32_t id = 0; id < 80; ++id) {
        (void)mgr.admit_after_fetch(0, id, 100.0 + id);
    }
    const auto before = importance_residents(mgr.cache(0));
    ASSERT_FALSE(before.empty());

    // Tenant 1 storms: 50k admissions with ever-higher scores, plus
    // homophily offers — everything that causes evictions.
    for (std::uint32_t id = 0; id < 50000; ++id) {
        (void)mgr.admit_after_fetch(1, 1'000'000 + id,
                                    1000.0 + static_cast<double>(id));
        if (id % 64 == 0) {
            const std::uint32_t nb[] = {2'000'000 + id, 2'000'001 + id};
            (void)mgr.put_neighbors(1, 1'000'000 + id, nb);
        }
    }

    // Tenant 0's residents are bit-for-bit untouched.
    const auto after = importance_residents(mgr.cache(0));
    EXPECT_EQ(before, after);
    const auto report = mgr.check_isolation();
    EXPECT_TRUE(report.ok) << report.detail;
    // And the storm stayed inside tenant 1's slice.
    const TenantStatReply t1 = mgr.stats(1);
    EXPECT_LE(t1.imp_size, t1.imp_capacity);
    EXPECT_LE(t1.hom_size, t1.hom_capacity);
}

TEST(TenantIsolation, ConcurrentStressHoldsInvariants) {
    // All tenants hammered from concurrent threads: admissions, lookups,
    // score refreshes, homophily offers, and elastic repartitions. The
    // TSan tier (tools/run_tier1.sh --server) proves data-race freedom;
    // here the freeze-oracle invariants must hold afterwards, and every
    // tenant's residents must come from its own id namespace.
    constexpr std::size_t kTenants = 3;
    constexpr std::uint32_t kNamespace = 1'000'000;
    TenantCacheManager mgr{600,
                           {TenantSpec{.capacity_pct = 50.0},
                            TenantSpec{.capacity_pct = 30.0},
                            TenantSpec{.capacity_pct = 20.0}}};

    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kTenants; ++t) {
        for (int worker = 0; worker < 2; ++worker) {
            threads.emplace_back([&, t, worker] {
                std::mt19937 rng{static_cast<std::uint32_t>(t * 10 + worker)};
                std::uniform_int_distribution<std::uint32_t> pick{0, 2000};
                const auto tenant = static_cast<std::uint8_t>(t);
                const std::uint32_t base =
                    static_cast<std::uint32_t>(t) * kNamespace;
                for (int i = 0; i < 20000 && !stop.load(); ++i) {
                    const std::uint32_t id = base + pick(rng);
                    switch (i % 5) {
                        case 0:
                        case 1:
                            (void)mgr.lookup(tenant, id);
                            break;
                        case 2:
                            (void)mgr.admit_after_fetch(
                                tenant, id, 1.0 + (i % 97));
                            break;
                        case 3:
                            mgr.put_score(tenant, id, 2.0 + (i % 31));
                            break;
                        case 4:
                            if (i % 40 == 4) {
                                (void)mgr.set_imp_ratio(
                                    tenant, 0.5 + 0.4 * ((i / 40) % 2));
                            } else {
                                std::uint32_t nbid = base + pick(rng);
                                if (nbid == id) ++nbid;
                                const std::uint32_t nb[] = {nbid};
                                (void)mgr.put_neighbors(tenant, id, nb);
                            }
                            break;
                    }
                }
            });
        }
    }
    for (auto& thread : threads) thread.join();
    stop.store(true);

    const auto report = mgr.check_isolation();
    EXPECT_TRUE(report.ok) << report.detail;
    for (std::size_t t = 0; t < kTenants; ++t) {
        const std::uint32_t base = static_cast<std::uint32_t>(t) * kNamespace;
        for (const auto& [id, score] :
             importance_residents(mgr.cache(static_cast<std::uint8_t>(t)))) {
            ASSERT_GE(id, base);
            ASSERT_LT(id, base + kNamespace)
                << "tenant " << t << " holds a foreign id";
        }
    }
}

TEST(TenantIsolation, StormOverTheWire) {
    // Same storm, through the served front door: tenant 1's flood must
    // not evict tenant 0's residents or starve its hit path.
    ServerConfig config;
    config.port = 0;
    config.cache_items = 200;
    config.tenants = {TenantSpec{.capacity_pct = 25.0},
                      TenantSpec{.capacity_pct = 75.0}};
    SpiderServer server{config};
    server.start();

    Client c;
    c.connect("127.0.0.1", server.port());
    for (std::uint32_t id = 0; id < 30; ++id) {
        (void)c.get(0, id, 100.0 + id);
    }
    const auto before = importance_residents(server.tenants().cache(0));
    ASSERT_FALSE(before.empty());

    for (std::uint32_t wave = 0; wave < 40; ++wave) {
        for (std::uint32_t i = 0; i < 250; ++i) {
            c.queue_get(1, wave * 250 + i, 1000.0 + wave);
        }
        const auto replies = c.flush();
        ASSERT_EQ(replies.size(), 250U);
    }

    EXPECT_EQ(importance_residents(server.tenants().cache(0)), before);
    // Tenant 0 still hits in memory.
    EXPECT_EQ(c.get(0, before.front().first, 1.0).kind,
              ServeKind::kImportanceHit);
    const auto report = server.tenants().check_isolation();
    EXPECT_TRUE(report.ok) << report.detail;
    server.stop();
}

}  // namespace
}  // namespace spider::server

// Allocation audit of the id-keyed eviction policies: once a policy's
// containers have grown to their working size, touches, admissions,
// re-scores, erases and shrink/grow cycles allocate nothing. The binary
// replaces the global operator new with a counting one, so it holds only
// this suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "cache/basic_policies.hpp"
#include "cache/importance_cache.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc{};
}
// Not inlined: GCC would otherwise pair an inlined free() with the
// replaced operator new and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

namespace spider::cache {
namespace {

constexpr std::size_t kCapacity = 4096;
constexpr std::uint32_t kIdSpace = 20'000;

/// One step of a mixed op stream; the resident count never exceeds
/// kCapacity, so the containers stop growing once it has been reached.
void random_op(EvictionCache& cache, util::Rng& rng) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_index(kIdSpace));
    const std::uint64_t roll = rng.uniform_index(100);
    if (roll < 35) {
        (void)cache.touch(id);
    } else if (roll < 65) {
        cache.note_score(id, rng.uniform(0.0, 4.0));
        (void)cache.admit(id);
    } else if (roll < 85) {
        cache.note_score(id, rng.uniform(0.0, 4.0));
    } else if (roll < 97) {
        (void)cache.erase(id);
    } else {
        cache.set_capacity(kCapacity / 4 + rng.uniform_index(kCapacity / 4));
        cache.set_capacity(kCapacity);
    }
}

std::size_t allocations_of_warm_ops(EvictionCache& cache) {
    util::Rng rng{26};
    for (std::uint32_t id = 0; id < kCapacity; ++id) {
        cache.note_score(id, 1.0);
        (void)cache.admit(id);
    }
    EXPECT_EQ(cache.size(), kCapacity);
    for (int op = 0; op < 20'000; ++op) random_op(cache, rng);
    const std::size_t before = g_allocations.load();
    for (int op = 0; op < 50'000; ++op) random_op(cache, rng);
    return g_allocations.load() - before;
}

TEST(OrderedCacheAlloc, WarmOperationsAllocateNothing) {
    std::unique_ptr<EvictionCache> policies[] = {
        std::make_unique<LfuCache>(kCapacity),
        std::make_unique<GdsfCache>(kCapacity),
        std::make_unique<CostAwareCache>(kCapacity),
        std::make_unique<SemanticCache>(kCapacity),
        std::make_unique<LruCache>(kCapacity),
        std::make_unique<FifoCache>(kCapacity),
    };
    for (auto& policy : policies) {
        EXPECT_EQ(allocations_of_warm_ops(*policy), 0U) << policy->name();
    }
}

// The served stream's write path: an importance section re-scores its
// residents through the semantic policy.
TEST(OrderedCacheAlloc, WarmImportanceRescoresAllocateNothing) {
    ImportanceCache section{kCapacity};
    util::Rng rng{27};
    for (std::uint32_t id = 0; id < kCapacity; ++id) {
        ASSERT_TRUE(section.admit_scored(id, rng.uniform()).admitted);
    }
    const std::size_t before = g_allocations.load();
    for (int op = 0; op < 50'000; ++op) {
        const auto id = static_cast<std::uint32_t>(rng.uniform_index(kIdSpace));
        if (!section.update_score(id, rng.uniform())) {
            (void)section.admit_scored(id, rng.uniform());
        }
    }
    EXPECT_EQ(g_allocations.load() - before, 0U);
}

}  // namespace
}  // namespace spider::cache

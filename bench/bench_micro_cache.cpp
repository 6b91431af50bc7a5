// Microbenchmarks (google-benchmark) for the cache policies and the
// scoring hot path: lookup/admit cycles per policy, the two-layer semantic
// lookup, importance-score updates at three section sizes, and the
// Savitzky-Golay smoother.

#include <benchmark/benchmark.h>

#include "cache/basic_policies.hpp"
#include "cache/importance_cache.hpp"
#include "cache/semantic_cache.hpp"
#include "util/rng.hpp"
#include "util/sg_filter.hpp"

namespace {

using namespace spider;

constexpr std::size_t kCapacity = 10'000;
constexpr std::uint32_t kKeyspace = 50'000;

template <typename Cache>
void access_cycle(Cache& cache, util::Rng& rng) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_index(kKeyspace));
    if (!cache.touch(id)) {
        cache.admit(id);
    }
}

void BM_LruAccess(benchmark::State& state) {
    cache::LruCache cache{kCapacity};
    util::Rng rng{1};
    for (auto _ : state) access_cycle(cache, rng);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruAccess);

void BM_LfuAccess(benchmark::State& state) {
    cache::LfuCache cache{kCapacity};
    util::Rng rng{2};
    for (auto _ : state) access_cycle(cache, rng);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LfuAccess);

// The score-sensitive policies take a score with each admission, as the
// importance section gives them.
template <typename Cache>
void scored_access_cycle(Cache& cache, util::Rng& rng) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_index(kKeyspace));
    if (!cache.touch(id)) {
        cache.note_score(id, rng.uniform());
        benchmark::DoNotOptimize(cache.admit(id));
    }
}

void BM_GdsfAccess(benchmark::State& state) {
    cache::GdsfCache cache{kCapacity};
    util::Rng rng{6};
    for (auto _ : state) scored_access_cycle(cache, rng);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GdsfAccess);

void BM_CostAwareAccess(benchmark::State& state) {
    cache::CostAwareCache cache{kCapacity};
    util::Rng rng{7};
    for (auto _ : state) scored_access_cycle(cache, rng);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CostAwareAccess);

void BM_FifoAccess(benchmark::State& state) {
    cache::FifoCache cache{kCapacity};
    util::Rng rng{3};
    for (auto _ : state) access_cycle(cache, rng);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoAccess);

void BM_ImportanceAdmit(benchmark::State& state) {
    cache::ImportanceCache cache{kCapacity};
    util::Rng rng{4};
    for (auto _ : state) {
        const auto id = static_cast<std::uint32_t>(rng.uniform_index(kKeyspace));
        if (!cache.contains(id)) {
            cache.admit_scored(id, rng.uniform());
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImportanceAdmit);

// Re-scores a full section of state.range(0) residents: the victim
// order's depth grows with the count.
void BM_ImportanceUpdateScore(benchmark::State& state) {
    const auto residents = static_cast<std::uint32_t>(state.range(0));
    cache::ImportanceCache cache{residents};
    util::Rng rng{5};
    for (std::uint32_t i = 0; i < residents; ++i) {
        cache.admit_scored(i, rng.uniform());
    }
    for (auto _ : state) {
        const auto id = static_cast<std::uint32_t>(rng.uniform_index(residents));
        benchmark::DoNotOptimize(cache.update_score(id, rng.uniform()));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImportanceUpdateScore)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_SemanticLookup(benchmark::State& state) {
    cache::TwoLayerSemanticCache cache{kCapacity, 0.9};
    util::Rng rng{6};
    for (std::uint32_t i = 0; i < kCapacity; ++i) {
        cache.on_miss_fetched(i, rng.uniform());
    }
    // Populate the homophily section with neighbor lists.
    for (std::uint32_t k = 0; k < 500; ++k) {
        std::vector<std::uint32_t> neighbors;
        for (int j = 0; j < 16; ++j) {
            neighbors.push_back(
                static_cast<std::uint32_t>(rng.uniform_index(kKeyspace)));
        }
        cache.update_homophily(kKeyspace + k, neighbors);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(
            static_cast<std::uint32_t>(rng.uniform_index(kKeyspace))));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SemanticLookup);

void BM_SavitzkyGolaySmoothLast(benchmark::State& state) {
    const util::SavitzkyGolayFilter filter{7, 2};
    util::Rng rng{7};
    std::vector<double> series(200);
    for (double& x : series) x = rng.uniform();
    for (auto _ : state) {
        benchmark::DoNotOptimize(filter.smooth_last(series));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SavitzkyGolaySmoothLast);

void BM_AliasSamplerEpoch(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    util::Rng rng{8};
    std::vector<double> weights(n);
    for (double& w : weights) w = rng.uniform() + 0.01;
    for (auto _ : state) {
        const util::AliasSampler alias{weights};
        benchmark::DoNotOptimize(alias.draw_many(rng, n));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AliasSamplerEpoch)->Arg(5000)->Arg(50000);

}  // namespace

BENCHMARK_MAIN();

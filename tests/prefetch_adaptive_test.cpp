// Adaptive + epoch-crossing prefetch (DESIGN.md §8.3): the idle-span
// fetch-budget arithmetic (and its truncation regression), the EWMA depth
// controller, the runtime-resizable pipeline window, the sampler peek
// contract behind epoch-crossing, and the simulator-level guarantees —
// determinism across worker counts, parity of the static path, and the
// cold-start reduction the crossing exists for.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <vector>

#include "core/prefetch.hpp"
#include "core/samplers.hpp"
#include "data/presets.hpp"
#include "sim/simulator.hpp"
#include "sim/strategy.hpp"
#include "util/rng.hpp"

namespace spider {
namespace {

// ------------------------------------------------------- idle_fetch_budget

TEST(PrefetchBudget, FractionalSlotProgressAccumulates) {
    // Regression: the pre-fix simulator computed
    //     fetch_slots * static_cast<std::size_t>(idle_ms / per_fetch_ms)
    // truncating the per-slot quotient before the multiply. Eight slots
    // each 90% of the way through a fetch round are 7.2 whole fetches of
    // capacity — the old code collapsed that to zero.
    EXPECT_EQ(core::idle_fetch_budget(/*idle_ms=*/0.9, /*per_fetch_ms=*/1.0,
                                      /*fetch_slots=*/8),
              7U);
    // The same shape at a realistic per-fetch cost.
    EXPECT_EQ(core::idle_fetch_budget(4.05, 4.5, 8), 7U);
}

TEST(PrefetchBudget, ExactQuotientsMatchLegacyArithmetic) {
    // When idle_ms is a whole multiple of per_fetch_ms both orderings
    // agree; the fix only adds the fractional capacity.
    EXPECT_EQ(core::idle_fetch_budget(2.0, 1.0, 3), 6U);
    EXPECT_EQ(core::idle_fetch_budget(9.0, 4.5, 6), 12U);
}

TEST(PrefetchBudget, EdgeCases) {
    EXPECT_EQ(core::idle_fetch_budget(0.0, 1.0, 8), 0U);
    EXPECT_EQ(core::idle_fetch_budget(-5.0, 1.0, 8), 0U);
    EXPECT_EQ(core::idle_fetch_budget(1.0, 1.0, 0), 0U);
    // Free fetches: unbounded budget, callers cap by candidate count.
    EXPECT_EQ(core::idle_fetch_budget(1.0, 0.0, 8),
              std::numeric_limits<std::size_t>::max());
}

// ------------------------------------------- AdaptivePrefetchController

TEST(AdaptiveWindow, MonotoneIdleGivesMonotoneWindow) {
    core::AdaptivePrefetchController::Config config;
    config.min_window = 1;
    config.max_window = 4096;
    // Rising idle spans: the EWMA rises, so the window never shrinks.
    core::AdaptivePrefetchController rising{config};
    std::size_t previous = 0;
    for (double idle = 1.0; idle <= 100.0; idle += 1.0) {
        const std::size_t window =
            rising.update(idle, /*per_fetch_ms=*/1.0, /*fetch_slots=*/2);
        EXPECT_GE(window, previous) << "idle " << idle;
        previous = window;
    }
    EXPECT_GT(previous, 100U);  // grew well past the starting window
    // Falling idle spans: the first observation seeds the EWMA, so every
    // later (smaller) observation pulls it down — the window backs off
    // monotonically and bottoms out at the clamp once storage stays busy.
    core::AdaptivePrefetchController falling{config};
    previous = falling.update(100.0, 1.0, 2);
    for (double idle = 99.0; idle >= 0.0; idle -= 1.0) {
        const std::size_t window = falling.update(idle, 1.0, 2);
        EXPECT_LE(window, previous) << "idle " << idle;
        previous = window;
    }
    for (int i = 0; i < 50; ++i) previous = falling.update(0.0, 1.0, 2);
    EXPECT_EQ(previous, config.min_window);
}

TEST(AdaptiveWindow, ClampsToConfiguredBounds) {
    core::AdaptivePrefetchController::Config config;
    config.min_window = 4;
    config.max_window = 32;
    core::AdaptivePrefetchController controller{config};
    EXPECT_EQ(controller.update(0.0, 1.0, 8), 4U);        // floor
    EXPECT_EQ(controller.update(1.0e6, 1.0, 8), 32U);     // ceiling
}

TEST(AdaptiveWindow, FirstObservationSeedsTheEwma) {
    core::AdaptivePrefetchController::Config config;
    config.max_window = 4096;
    config.alpha = 0.25;
    core::AdaptivePrefetchController controller{config};
    // No stale zero is mixed in: the first update adopts the observation
    // wholesale (window = 80, not 0.25 * 80).
    EXPECT_EQ(controller.update(40.0, 1.0, 2), 80U);
    EXPECT_NEAR(controller.ewma_idle_ms(), 40.0, 1e-12);
}

TEST(AdaptiveWindow, RejectsBadAlpha) {
    core::AdaptivePrefetchController::Config config;
    config.alpha = 0.0;
    EXPECT_THROW(core::AdaptivePrefetchController{config},
                 std::invalid_argument);
    config.alpha = 1.5;
    EXPECT_THROW(core::AdaptivePrefetchController{config},
                 std::invalid_argument);
}

// ------------------------------------- PrefetchPipeline runtime resizing

TEST(AdaptiveWindow, RuntimeResizeBoundsNewIssues) {
    core::PrefetchPipeline::Config pc;
    pc.threads = 2;
    pc.max_in_flight = 4;
    core::PrefetchPipeline pipeline{[](std::uint32_t) { return false; },
                                    [](std::uint32_t) {}, pc};
    const std::vector<std::uint32_t> first = {0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(pipeline.prefetch(first), 4U);  // window of 4 caps the issue
    pipeline.drain();
    // Growing the window admits more ids past the 4 still-ready entries.
    pipeline.set_max_in_flight(6);
    EXPECT_EQ(pipeline.max_in_flight(), 6U);
    const std::vector<std::uint32_t> second = {10, 11, 12, 13};
    EXPECT_EQ(pipeline.prefetch(second), 2U);
    pipeline.drain();
    // Shrinking never cancels: occupancy (6 ready) exceeds the new bound,
    // so new issues are refused until consumption frees slots.
    pipeline.set_max_in_flight(1);
    const std::vector<std::uint32_t> third = {20};
    EXPECT_EQ(pipeline.prefetch(third), 0U);
    std::size_t consumed = 0;
    for (std::uint32_t id : {0U, 1U, 2U, 3U, 10U, 11U}) {
        consumed += pipeline.consume(id) ? 1 : 0;
    }
    EXPECT_EQ(consumed, 6U);
    EXPECT_EQ(pipeline.prefetch(third), 1U);
    pipeline.drain();
}

TEST(AdaptiveWindow, DiscardSingleEntryFreesItsSlot) {
    core::PrefetchPipeline::Config pc;
    pc.threads = 1;
    pc.max_in_flight = 2;
    core::PrefetchPipeline pipeline{[](std::uint32_t) { return false; },
                                    [](std::uint32_t) {}, pc};
    const std::vector<std::uint32_t> ids = {1, 2};
    EXPECT_EQ(pipeline.prefetch(ids), 2U);
    pipeline.drain();
    EXPECT_TRUE(pipeline.discard(1));
    EXPECT_FALSE(pipeline.discard(1));  // already gone
    EXPECT_FALSE(pipeline.discard(99));
    EXPECT_FALSE(pipeline.pending(1));
    EXPECT_TRUE(pipeline.pending(2));
    const std::vector<std::uint32_t> refill = {3};
    EXPECT_EQ(pipeline.prefetch(refill), 1U);  // the slot came back
    pipeline.drain();
}

// ------------------------------------------------ Sampler peek contract

TEST(SamplerPeek, PeekedDrawIsReplayedByEpochOrder) {
    // Two identically seeded samplers: one peeks ahead, one never does.
    // Every epoch order must match — peeking only moves the draw earlier.
    core::UniformSampler peeked{200, util::Rng{11}};
    core::UniformSampler plain{200, util::Rng{11}};

    const std::vector<std::uint32_t> e0_peeked = peeked.epoch_order(0);
    const std::vector<std::uint32_t> head_copy =
        peeked.peek_epoch_order(1);  // copy before the cache is consumed
    const std::vector<std::uint32_t> e0_plain = plain.epoch_order(0);
    EXPECT_EQ(e0_peeked, e0_plain);
    EXPECT_EQ(peeked.epoch_order(1), head_copy);
    EXPECT_EQ(plain.epoch_order(1), head_copy);
    EXPECT_EQ(peeked.epoch_order(2), plain.epoch_order(2));
}

TEST(SamplerPeek, PeekIsIdempotent) {
    std::vector<double> scores = {0.4, 0.3, 0.2, 0.1, 0.5, 0.6, 0.7, 0.8};
    core::GraphIsSampler sampler{scores, util::Rng{21}, 0.05};
    const std::vector<std::uint32_t> first = sampler.peek_epoch_order(3);
    const std::vector<std::uint32_t> second = sampler.peek_epoch_order(3);
    EXPECT_EQ(first, second);  // one draw, cached
    EXPECT_EQ(sampler.epoch_order(3), first);  // consumed here...
    EXPECT_NE(sampler.epoch_order(3), first);  // ...so this one is fresh
}

TEST(SamplerPeek, GraphIsPeekMatchesPlainSequence) {
    std::vector<double> scores(64, 0.0);
    for (std::size_t i = 0; i < scores.size(); ++i) {
        scores[i] = 1.0 + static_cast<double>(i % 7);
    }
    core::GraphIsSampler peeked{scores, util::Rng{31}, 0.05};
    core::GraphIsSampler plain{scores, util::Rng{31}, 0.05};
    for (std::size_t epoch = 0; epoch < 4; ++epoch) {
        (void)peeked.peek_epoch_order(epoch);
        EXPECT_EQ(peeked.epoch_order(epoch), plain.epoch_order(epoch))
            << "epoch " << epoch;
    }
}

// -------------------------------------------------- simulator-level tests

sim::SimConfig prefetch_config(sim::StrategyKind strategy) {
    sim::SimConfig config;
    config.dataset = data::cifar10_like(/*scale=*/0.02, /*seed=*/7);  // 1000
    config.strategy = strategy;
    config.epochs = 4;
    config.batch_size = 64;
    config.cache_fraction = 0.2;
    config.seed = 5;
    config.prefetch_enabled = true;
    config.prefetch_adaptive = true;
    config.prefetch_window_max = 512;
    return config;
}

TEST(PrefetchAdaptive, PureLatencyHidingNeverChangesCacheOutcomes) {
    // Adaptive + epoch-crossing prefetch must not perturb a single cache
    // decision, sampler draw, or learning outcome — only hide I/O. The
    // epoch-crossing peek is exercised here: if peeking perturbed the
    // next epoch's draw, hits would diverge immediately.
    sim::SimConfig off = prefetch_config(sim::StrategyKind::kSpider);
    off.prefetch_enabled = false;
    off.prefetch_adaptive = false;
    sim::SimConfig on = prefetch_config(sim::StrategyKind::kSpider);
    const auto base = sim::TrainingSimulator{off}.run();
    const auto adaptive = sim::TrainingSimulator{on}.run();

    ASSERT_EQ(base.epochs.size(), adaptive.epochs.size());
    std::uint64_t hidden_total = 0;
    for (std::size_t i = 0; i < base.epochs.size(); ++i) {
        EXPECT_EQ(base.epochs[i].accesses, adaptive.epochs[i].accesses);
        EXPECT_EQ(base.epochs[i].hits, adaptive.epochs[i].hits);
        EXPECT_EQ(base.epochs[i].misses, adaptive.epochs[i].misses);
        hidden_total += adaptive.epochs[i].prefetch_hidden;
        EXPECT_EQ(base.epochs[i].prefetch_hidden, 0U);
    }
    EXPECT_DOUBLE_EQ(base.final_accuracy, adaptive.final_accuracy);
    EXPECT_GT(hidden_total, 0U);
    EXPECT_LE(adaptive.total_time, base.total_time);
}

TEST(PrefetchAdaptive, ComposesWithWarmRestart) {
    // The simulated kill -9 takes the lookahead with the process: the
    // restart drains the prefetcher and starts a fresh depth controller.
    // Prefetch still changes no cache outcome — the restarted run matches
    // the same restart without prefetch — and lookahead resumes after it.
    const auto wal_dir = std::filesystem::temp_directory_path() /
                         "spider_prefetch_restart_test";
    sim::SimConfig off = prefetch_config(sim::StrategyKind::kSpider);
    off.prefetch_enabled = false;
    off.prefetch_adaptive = false;
    off.restart_epoch = 2;
    off.wal_dir = wal_dir.string();
    off.ssd.enabled = true;
    off.ssd.capacity_items = 150;
    sim::SimConfig on = off;
    on.prefetch_enabled = true;
    on.prefetch_adaptive = true;
    sim::SimConfig threaded = on;
    threaded.worker_threads = 4;

    const auto base = sim::TrainingSimulator{off}.run();
    const auto adaptive = sim::TrainingSimulator{on}.run();
    const auto concurrent = sim::TrainingSimulator{threaded}.run();
    std::filesystem::remove_all(wal_dir);

    ASSERT_EQ(base.epochs.size(), adaptive.epochs.size());
    for (std::size_t i = 0; i < base.epochs.size(); ++i) {
        EXPECT_EQ(base.epochs[i].accesses, adaptive.epochs[i].accesses) << i;
        EXPECT_EQ(base.epochs[i].hits, adaptive.epochs[i].hits) << i;
        EXPECT_EQ(base.epochs[i].misses, adaptive.epochs[i].misses) << i;
        EXPECT_EQ(base.epochs[i].restored_items,
                  adaptive.epochs[i].restored_items)
            << i;
    }
    EXPECT_GT(adaptive.epochs[2].restored_items, 0U);
    EXPECT_GT(adaptive.epochs[2].prefetch_hidden, 0U);
    EXPECT_DOUBLE_EQ(base.final_accuracy, adaptive.final_accuracy);
    EXPECT_LE(adaptive.total_time, base.total_time);

    // Real background fetches across the kill: the run completes and the
    // restart restores residency.
    ASSERT_EQ(concurrent.epochs.size(), on.epochs);
    EXPECT_GT(concurrent.epochs[2].restored_items, 0U);
    for (const metrics::EpochMetrics& e : concurrent.epochs) {
        EXPECT_EQ(e.hits + e.misses, e.accesses);
    }
}

TEST(PrefetchAdaptive, DeterministicAcrossWorkerCounts) {
    // Zero-capacity LRU makes every outcome interleaving-independent
    // (no cache state), so the threaded run must reproduce the serial
    // run's sequence exactly: same counters, same virtual time, with
    // epoch-crossing prefetch active in both.
    sim::SimConfig serial = prefetch_config(sim::StrategyKind::kBaselineLru);
    serial.cache_fraction = 0.0;
    serial.worker_threads = 1;
    sim::SimConfig threaded = serial;
    threaded.worker_threads = 4;
    const auto a = sim::TrainingSimulator{serial}.run();
    const auto b = sim::TrainingSimulator{threaded}.run();

    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        EXPECT_EQ(a.epochs[i].accesses, b.epochs[i].accesses) << "epoch " << i;
        EXPECT_EQ(a.epochs[i].hits, b.epochs[i].hits) << "epoch " << i;
        EXPECT_EQ(a.epochs[i].misses, b.epochs[i].misses) << "epoch " << i;
        EXPECT_EQ(a.epochs[i].prefetch_issued, b.epochs[i].prefetch_issued)
            << "epoch " << i;
        EXPECT_EQ(a.epochs[i].prefetch_hidden, b.epochs[i].prefetch_hidden)
            << "epoch " << i;
        EXPECT_EQ(a.epochs[i].cold_start_misses,
                  b.epochs[i].cold_start_misses)
            << "epoch " << i;
        EXPECT_DOUBLE_EQ(a.epochs[i].prefetch_window_avg,
                         b.epochs[i].prefetch_window_avg)
            << "epoch " << i;
    }
    EXPECT_EQ(a.total_time, b.total_time);
}

TEST(PrefetchAdaptive, CrossingCutsColdStartMisses) {
    // Static lookahead stops at each epoch's tail, so epoch >= 1 always
    // pays its first batch cold; the crossing path warms it from the
    // previous epoch's leftover budget.
    sim::SimConfig stat = prefetch_config(sim::StrategyKind::kSpider);
    stat.prefetch_adaptive = false;
    sim::SimConfig adaptive = prefetch_config(sim::StrategyKind::kSpider);
    const auto s = sim::TrainingSimulator{stat}.run();
    const auto a = sim::TrainingSimulator{adaptive}.run();

    std::uint64_t static_cold = 0;
    std::uint64_t adaptive_cold = 0;
    for (std::size_t i = 1; i < s.epochs.size(); ++i) {
        static_cold += s.epochs[i].cold_start_misses;
        adaptive_cold += a.epochs[i].cold_start_misses;
    }
    EXPECT_LT(adaptive_cold, static_cold);
}

TEST(PrefetchAdaptive, CoverageAtLeastStaticBaseline) {
    sim::SimConfig stat = prefetch_config(sim::StrategyKind::kSpider);
    stat.prefetch_adaptive = false;
    sim::SimConfig adaptive = prefetch_config(sim::StrategyKind::kSpider);
    const auto s = sim::TrainingSimulator{stat}.run();
    const auto a = sim::TrainingSimulator{adaptive}.run();
    EXPECT_GE(a.prefetch_coverage(), s.prefetch_coverage());
    EXPECT_GT(a.prefetch_coverage(), 0.0);
}

TEST(PrefetchAdaptive, StaticPathInertToAdaptiveKnobs) {
    // prefetch_adaptive = false must reproduce the legacy static path
    // regardless of the adaptive-only knob: parity of every counter and
    // of virtual time.
    sim::SimConfig a = prefetch_config(sim::StrategyKind::kSpider);
    a.prefetch_adaptive = false;
    a.prefetch_window_max = 1;
    sim::SimConfig b = a;
    b.prefetch_window_max = 100000;
    const auto ra = sim::TrainingSimulator{a}.run();
    const auto rb = sim::TrainingSimulator{b}.run();
    ASSERT_EQ(ra.epochs.size(), rb.epochs.size());
    for (std::size_t i = 0; i < ra.epochs.size(); ++i) {
        EXPECT_EQ(ra.epochs[i].hits, rb.epochs[i].hits);
        EXPECT_EQ(ra.epochs[i].prefetch_issued, rb.epochs[i].prefetch_issued);
        EXPECT_EQ(ra.epochs[i].prefetch_hidden, rb.epochs[i].prefetch_hidden);
    }
    EXPECT_EQ(ra.total_time, rb.total_time);
    EXPECT_DOUBLE_EQ(ra.final_accuracy, rb.final_accuracy);
}

TEST(PrefetchAdaptive, WindowAverageRecordedPerEpoch) {
    const auto run =
        sim::TrainingSimulator{prefetch_config(sim::StrategyKind::kSpider)}
            .run();
    for (const auto& epoch : run.epochs) {
        EXPECT_GE(epoch.prefetch_window_avg, 1.0) << "epoch " << epoch.epoch;
        EXPECT_LE(epoch.prefetch_window_avg, 512.0) << "epoch " << epoch.epoch;
    }
    // Disabled prefetch reports no window at all.
    sim::SimConfig off = prefetch_config(sim::StrategyKind::kSpider);
    off.prefetch_enabled = false;
    off.prefetch_adaptive = false;
    const auto none = sim::TrainingSimulator{off}.run();
    for (const auto& epoch : none.epochs) {
        EXPECT_DOUBLE_EQ(epoch.prefetch_window_avg, 0.0);
        EXPECT_EQ(epoch.prefetch_issued, 0U);
    }
}

}  // namespace
}  // namespace spider

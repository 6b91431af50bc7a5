// Training-simulator tests: strategy frontends behave per spec, metrics
// accounting is consistent, every strategy runs end to end, key orderings
// from the paper hold on a small workload, and the multi-GPU model scales.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>

#include "data/presets.hpp"
#include "sim/frontend.hpp"
#include "sim/simulator.hpp"
#include "sim/strategy.hpp"

namespace spider::sim {
namespace {

SimConfig small_config(StrategyKind strategy) {
    SimConfig config;
    config.dataset = data::cifar10_like(/*scale=*/0.02, /*seed=*/7);  // 1000
    config.strategy = strategy;
    config.epochs = 8;
    config.batch_size = 64;
    config.cache_fraction = 0.2;
    config.seed = 5;
    return config;
}

TEST(Strategy, NamesAndPredicates) {
    EXPECT_STREQ(to_string(StrategyKind::kBaselineLru), "Baseline");
    EXPECT_STREQ(to_string(StrategyKind::kSpider), "SpiderCache");
    EXPECT_TRUE(uses_graph_is(StrategyKind::kSpider));
    EXPECT_TRUE(uses_graph_is(StrategyKind::kSpiderImp));
    EXPECT_FALSE(uses_graph_is(StrategyKind::kShade));
    EXPECT_TRUE(uses_importance_sampling(StrategyKind::kShade));
    EXPECT_FALSE(uses_importance_sampling(StrategyKind::kCoorDL));
}

TEST(PolicyFrontend, HitAfterAdmission) {
    PolicyFrontend frontend{std::make_unique<cache::LruCache>(4)};
    const Access first = frontend.access(1);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.served_id, 1U);
    const Access second = frontend.access(1);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(frontend.resident_items(), 1U);
}

TEST(ShadeFrontend, AdmitsByRankWeight) {
    core::ShadeSampler sampler{10, util::Rng{1}};
    ShadeFrontend frontend{2, sampler};
    // Teach the sampler: 0 and 1 hard, 2 easy.
    sampler.observe_losses(std::vector<std::uint32_t>{0, 1, 2},
                           std::vector<double>{3.0, 2.0, 0.1});
    frontend.access(0);
    frontend.access(1);  // cache now full with weights 1.0 and 2/3
    EXPECT_EQ(frontend.resident_items(), 2U);
    // Easy sample (weight 1/3) cannot displace either resident.
    const Access easy = frontend.access(2);
    EXPECT_FALSE(easy.hit);
    EXPECT_EQ(frontend.resident_items(), 2U);
    EXPECT_TRUE(frontend.access(0).hit);
}

TEST(ICacheFrontend, SubstitutesMissedUnimportantSamples) {
    core::ComputeBoundSampler sampler{100, util::Rng{2}};
    // Mark everything easy (below running mean impossible for all — use
    // one hard outlier to lift the mean).
    std::vector<std::uint32_t> ids;
    std::vector<double> losses;
    for (std::uint32_t i = 0; i < 100; ++i) {
        ids.push_back(i);
        losses.push_back(i == 0 ? 50.0 : 0.1);
    }
    sampler.observe_losses(ids, losses);

    ICacheFrontend::Options options;
    options.substitute_prob = 1.0;  // always substitute
    ICacheFrontend frontend{10, sampler, options, util::Rng{3}};
    // Seed the L-section with one resident.
    const Access seed = frontend.access(5);
    EXPECT_FALSE(seed.hit);  // L-cache was empty: fetched and admitted
    // Every further unimportant miss is served a substitute.
    const Access substituted = frontend.access(6);
    EXPECT_TRUE(substituted.hit);
    EXPECT_TRUE(substituted.substitution);
    EXPECT_NE(substituted.served_id, 6U);
}

TEST(ICacheFrontend, ImportantSamplesGoToHSection) {
    core::ComputeBoundSampler sampler{100, util::Rng{4}};
    std::vector<std::uint32_t> ids = {0, 1};
    std::vector<double> losses = {10.0, 0.1};
    sampler.observe_losses(ids, losses);
    ICacheFrontend::Options options;
    ICacheFrontend frontend{10, sampler, options, util::Rng{5}};
    frontend.access(0);  // important: admitted to H by its raw loss
    const Access hit = frontend.access(0);
    EXPECT_TRUE(hit.hit);
    EXPECT_TRUE(hit.importance_hit);
}

TEST(ICacheFrontend, ImpOnlyVariantNeverSubstitutes) {
    core::ComputeBoundSampler sampler{50, util::Rng{6}};
    ICacheFrontend::Options options;
    options.l_section_enabled = false;
    ICacheFrontend frontend{5, sampler, options, util::Rng{7}};
    EXPECT_EQ(frontend.name(), "iCache-imp");
    for (std::uint32_t i = 0; i < 20; ++i) {
        const Access access = frontend.access(i);
        EXPECT_FALSE(access.substitution);
        EXPECT_EQ(access.served_id, i);
    }
}

class StrategyRunTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(StrategyRunTest, RunsEndToEndWithConsistentMetrics) {
    TrainingSimulator simulator{small_config(GetParam())};
    const metrics::RunResult result = simulator.run();

    ASSERT_EQ(result.epochs.size(), 8U);
    EXPECT_GT(result.total_time.count(), 0);
    EXPECT_GT(result.final_accuracy, 0.15);  // far above 1/10 chance... loose
    EXPECT_GE(result.best_accuracy, result.final_accuracy);

    for (const auto& epoch : result.epochs) {
        EXPECT_EQ(epoch.hits + epoch.misses, epoch.accesses);
        EXPECT_GE(epoch.accesses, 1000U);  // >= dataset size per epoch
        EXPECT_GE(epoch.hit_ratio(), 0.0);
        EXPECT_LE(epoch.hit_ratio(), 1.0);
        EXPECT_GE(epoch.epoch_time.count(), epoch.load_time.count());
        EXPECT_GT(epoch.train_loss, 0.0);
    }
    // Learning actually happened.
    EXPECT_GT(result.epochs.back().test_accuracy,
              result.epochs.front().test_accuracy - 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyRunTest,
    ::testing::Values(StrategyKind::kBaselineLru, StrategyKind::kLfu,
                      StrategyKind::kCoorDL, StrategyKind::kShade,
                      StrategyKind::kICacheImp, StrategyKind::kICache,
                      StrategyKind::kSpiderImp, StrategyKind::kSpider),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
        std::string name = to_string(info.param);
        std::erase(name, '-');
        return name;
    });

TEST(Simulator, CoorDlHitRatioTracksCacheFraction) {
    SimConfig config = small_config(StrategyKind::kCoorDL);
    config.cache_fraction = 0.25;
    TrainingSimulator simulator{config};
    const auto result = simulator.run();
    // After warm-up, the MinIO static cache hits exactly its capacity share.
    EXPECT_NEAR(result.tail_hit_ratio(3), 0.25, 0.02);
}

TEST(Simulator, SpiderBeatsBaselineOnHitRatioAndTime) {
    const auto baseline =
        TrainingSimulator{small_config(StrategyKind::kBaselineLru)}.run();
    const auto spider =
        TrainingSimulator{small_config(StrategyKind::kSpider)}.run();
    EXPECT_GT(spider.average_hit_ratio(), baseline.average_hit_ratio() * 2.0);
    EXPECT_LT(spider.total_time, baseline.total_time);
}

TEST(Simulator, LargerCacheNeverHurtsHitRatio) {
    double previous = -1.0;
    for (double fraction : {0.1, 0.25, 0.5, 0.75}) {
        SimConfig config = small_config(StrategyKind::kSpider);
        config.epochs = 5;
        config.cache_fraction = fraction;
        const auto result = TrainingSimulator{config}.run();
        EXPECT_GT(result.average_hit_ratio(), previous)
            << "fraction " << fraction;
        previous = result.average_hit_ratio();
    }
}

TEST(Simulator, PipelineReducesSpiderTime) {
    SimConfig pipelined = small_config(StrategyKind::kSpider);
    pipelined.epochs = 3;
    SimConfig serial = pipelined;
    serial.pipeline_is = false;
    const auto fast = TrainingSimulator{pipelined}.run();
    const auto slow = TrainingSimulator{serial}.run();
    EXPECT_LT(fast.total_time, slow.total_time);
}

TEST(Simulator, MultiGpuReducesEpochTime) {
    SimConfig one = small_config(StrategyKind::kBaselineLru);
    one.epochs = 3;
    SimConfig four = one;
    four.num_gpus = 4;
    const auto t1 = TrainingSimulator{one}.run().mean_epoch_time();
    const auto t4 = TrainingSimulator{four}.run().mean_epoch_time();
    EXPECT_LT(t4, t1);
    // But sub-linear: communication + storage contention.
    EXPECT_GT(t4 * 4, t1);
}

TEST(Simulator, DeterministicForSameSeed) {
    const auto a = TrainingSimulator{small_config(StrategyKind::kSpider)}.run();
    const auto b = TrainingSimulator{small_config(StrategyKind::kSpider)}.run();
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        EXPECT_EQ(a.epochs[i].hits, b.epochs[i].hits);
    }
}

TEST(Simulator, WarmRestartRecoversResidencyColdRestartDoesNot) {
    const auto wal_dir = std::filesystem::temp_directory_path() /
                         "spider_sim_warm_restart_test";
    std::filesystem::remove_all(wal_dir);

    SimConfig cold = small_config(StrategyKind::kSpider);
    cold.ssd.enabled = true;
    cold.ssd.capacity_items = 150;
    cold.restart_epoch = 4;  // kill -9 at the start of epoch 4
    SimConfig warm = cold;
    warm.wal_dir = wal_dir.string();

    const auto cold_run = TrainingSimulator{cold}.run();
    const auto warm_run = TrainingSimulator{warm}.run();
    std::filesystem::remove_all(wal_dir);

    ASSERT_EQ(cold_run.epochs.size(), 8U);
    for (const auto& e : cold_run.epochs) {
        EXPECT_EQ(e.restored_items, 0U);  // no WAL: stone-cold restart
    }
    for (std::size_t i = 0; i < warm_run.epochs.size(); ++i) {
        if (i == 4) continue;
        EXPECT_EQ(warm_run.epochs[i].restored_items, 0U) << i;
    }
    // The warm restart rebuilt a substantial resident set...
    EXPECT_GT(warm_run.epochs[4].restored_items, 0U);
    // ...and pays fewer post-restart misses than the cold one.
    EXPECT_LT(warm_run.epochs[4].misses, cold_run.epochs[4].misses);
}

TEST(Simulator, WalWithoutRestartLeavesRunBitIdentical) {
    const auto wal_dir = std::filesystem::temp_directory_path() /
                         "spider_sim_wal_parity_test";
    std::filesystem::remove_all(wal_dir);
    SimConfig plain = small_config(StrategyKind::kSpider);
    SimConfig logged = plain;
    logged.wal_dir = wal_dir.string();
    const auto a = TrainingSimulator{plain}.run();
    const auto b = TrainingSimulator{logged}.run();
    std::filesystem::remove_all(wal_dir);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    EXPECT_EQ(a.total_time, b.total_time);  // logging is off the cost model
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        EXPECT_EQ(a.epochs[i].hits, b.epochs[i].hits) << i;
        EXPECT_EQ(a.epochs[i].misses, b.epochs[i].misses) << i;
    }
}

// A restart still excludes cluster mode, and the WAL compaction period must
// be positive; restart x prefetch composes now
// (PrefetchAdaptive.ComposesWithWarmRestart), so that pair passes.
TEST(Simulator, RestartEpochRejectsIncompatibleLayers) {
    SimConfig config = small_config(StrategyKind::kSpider);
    config.restart_epoch = 2;
    config.prefetch_enabled = true;
    EXPECT_NO_THROW(validate(config));
    config.prefetch_enabled = false;
    config.cluster.nodes = 2;
    EXPECT_THROW(TrainingSimulator{config}.run(), std::invalid_argument);
    config.cluster.nodes = 1;
    config.wal_compact_every_epochs = 0;
    EXPECT_THROW(TrainingSimulator{config}.run(), std::invalid_argument);
}

// Every mode pair that does not compose, and the WAL/tuner range checks,
// live in validate(); run() calls it before building anything, so a
// rejected configuration never starts (sim_config_from calls it too).
TEST(SimConfigValidate, RejectsEveryExcludedCombination) {
    struct Case {
        const char* name;
        void (*apply)(SimConfig&);
    };
    const Case cases[] = {
        {"cluster x served",
         [](SimConfig& c) {
             c.cluster.nodes = 2;
             c.served_port = 4242;
         }},
        {"cluster x prefetch",
         [](SimConfig& c) {
             c.cluster.nodes = 2;
             c.prefetch_enabled = true;
         }},
        {"restart x served",
         [](SimConfig& c) {
             c.restart_epoch = 2;
             c.served_port = 4242;
         }},
        {"restart x cluster",
         [](SimConfig& c) {
             c.restart_epoch = 2;
             c.cluster.nodes = 2;
         }},
        {"tuner x served",
         [](SimConfig& c) {
             c.tuner.enabled = true;
             c.served_port = 4242;
         }},
        {"tuner without a spider strategy",
         [](SimConfig& c) {
             c.tuner.enabled = true;
             c.strategy = StrategyKind::kShade;
         }},
        {"tuner with an empty ratio grid",
         [](SimConfig& c) {
             c.tuner.enabled = true;
             c.tuner.ratio_grid.clear();
         }},
        {"wal compaction every 0 epochs",
         [](SimConfig& c) { c.wal_compact_every_epochs = 0; }},
    };
    for (const Case& rejected : cases) {
        SimConfig config = small_config(StrategyKind::kSpider);
        rejected.apply(config);
        EXPECT_THROW(validate(config), std::invalid_argument) << rejected.name;
        EXPECT_THROW((void)TrainingSimulator{config}.run(),
                     std::invalid_argument)
            << rejected.name;
    }
    // The pairs that compose pass.
    SimConfig composed = small_config(StrategyKind::kSpider);
    composed.cluster.nodes = 2;
    composed.faults.enabled = true;
    EXPECT_NO_THROW(validate(composed));
    composed = small_config(StrategyKind::kSpider);
    composed.restart_epoch = 2;
    composed.prefetch_enabled = true;
    composed.prefetch_adaptive = true;
    composed.faults.enabled = true;
    EXPECT_NO_THROW(validate(composed));
}

TEST(Simulator, RunResultAggregates) {
    metrics::RunResult result;
    metrics::EpochMetrics e1;
    e1.accesses = 100;
    e1.hits = 50;
    e1.epoch_time = storage::from_ms(10.0);
    metrics::EpochMetrics e2;
    e2.accesses = 100;
    e2.hits = 70;
    e2.epoch_time = storage::from_ms(20.0);
    result.epochs = {e1, e2};
    EXPECT_NEAR(result.average_hit_ratio(), 0.6, 1e-12);
    EXPECT_NEAR(result.tail_hit_ratio(1), 0.7, 1e-12);
    EXPECT_NEAR(storage::to_ms(result.mean_epoch_time()), 15.0, 1e-9);
    metrics::RunResult empty;
    EXPECT_EQ(empty.average_hit_ratio(), 0.0);
    EXPECT_EQ(empty.mean_epoch_time(), storage::SimDuration::zero());
}

}  // namespace
}  // namespace spider::sim

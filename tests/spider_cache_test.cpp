// SpiderCache facade tests: the Algorithm 1 wiring — lookup/admission flow,
// per-batch graph and score maintenance, homophily updates from the
// highest-degree node, elastic repartitioning at epoch boundaries, and the
// ablation switches (homophily off, elastic off).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/spider_cache.hpp"
#include "data/dataset.hpp"

namespace spider::core {
namespace {

/// Importance score of a resident id, read from a freeze() snapshot.
std::optional<double> resident_score(const cache::TwoLayerSemanticCache& cache,
                                     std::uint32_t id) {
    for (const auto& shard : cache.freeze().shards) {
        for (const auto& [resident, score] : shard.importance) {
            if (resident == id) return score;
        }
    }
    return std::nullopt;
}

/// Two well-separated clusters of trivially distinguishable "embeddings"
/// we can feed into observe_batch directly.
class SpiderCacheTest : public ::testing::Test {
protected:
    static constexpr std::size_t kN = 40;
    static constexpr std::size_t kDim = 4;

    SpiderCacheConfig base_config() {
        SpiderCacheConfig config;
        config.dataset_size = kN;
        config.label_of = [](std::uint32_t id) { return id % 2; };
        config.cache_items = 10;
        config.embedding_dim = kDim;
        config.total_epochs = 10;
        config.seed = 77;
        return config;
    }

    /// Embedding for sample id: class 0 near (1,0,..), class 1 near
    /// (0,1,..), with a small per-id offset. The last four ids are made
    /// "hard": two boundary points between the clusters and two points
    /// embedded inside the wrong cluster, so scores are diverse.
    static std::vector<float> embedding_of(std::uint32_t id) {
        std::vector<float> e(kDim, 0.0F);
        if (id == 36 || id == 37) {  // boundary: between the clusters
            e[0] = 0.7F;
            e[1] = 0.7F;
            e[2] = id == 36 ? 0.05F : -0.05F;
            return e;
        }
        if (id == 38) {  // class 0 sample sitting in the class 1 cluster
            e[1] = 1.0F;
            return e;
        }
        if (id == 39) {  // class 1 sample sitting in the class 0 cluster
            e[0] = 1.0F;
            return e;
        }
        const float jitter = 0.01F * static_cast<float>(id);
        if (id % 2 == 0) {
            e[0] = 1.0F;
            e[2] = jitter;
        } else {
            e[1] = 1.0F;
            e[3] = jitter;
        }
        return e;
    }

    static void observe_all(SpiderCache& spider) {
        std::vector<std::uint32_t> ids(kN);
        tensor::Matrix embeddings{kN, kDim};
        for (std::uint32_t i = 0; i < kN; ++i) {
            ids[i] = i;
            const auto e = embedding_of(i);
            std::copy(e.begin(), e.end(), embeddings.row(i).begin());
        }
        spider.observe_batch(ids, embeddings);
    }
};

TEST_F(SpiderCacheTest, RejectsInvalidConfig) {
    SpiderCacheConfig no_size = base_config();
    no_size.dataset_size = 0;
    EXPECT_THROW(SpiderCache{no_size}, std::invalid_argument);

    SpiderCacheConfig no_labels = base_config();
    no_labels.label_of = nullptr;
    EXPECT_THROW(SpiderCache{no_labels}, std::invalid_argument);
}

TEST_F(SpiderCacheTest, ColdLookupMissesAndAdmits) {
    SpiderCache spider{base_config()};
    const cache::Lookup lookup = spider.lookup(0);
    EXPECT_EQ(lookup.kind, cache::HitKind::kMiss);
    const auto result = spider.on_miss_fetched(0);
    EXPECT_TRUE(result.admitted);  // cache not yet full
    EXPECT_EQ(spider.lookup(0).kind, cache::HitKind::kImportance);
}

TEST_F(SpiderCacheTest, ObserveBatchPopulatesScores) {
    SpiderCache spider{base_config()};
    observe_all(spider);
    const auto scores = spider.scores();
    ASSERT_EQ(scores.size(), kN);
    // All samples scored (> 0: at minimum ln(2) for isolated, less for
    // clustered — but never exactly the initial 0).
    for (double s : scores) {
        EXPECT_GT(s, 0.0);
    }
    EXPECT_GT(spider.score_std(), 0.0);
}

TEST_F(SpiderCacheTest, ScoresFiniteAndBoundedByFormula) {
    SpiderCache spider{base_config()};
    observe_all(spider);
    // Eq. 4 maximum: ln(1/1 + k/neighbor_max + 1) with x_same = 1.
    const double upper =
        std::log(2.0 + static_cast<double>(spider.scorer().config().neighbor_k) /
                           static_cast<double>(
                               spider.scorer().config().neighbor_max));
    for (double s : spider.scores()) {
        EXPECT_LE(s, upper + 1e-9);
        EXPECT_GE(s, 0.0);
    }
}

TEST_F(SpiderCacheTest, HomophilyUpdatedWithHighDegreeNode) {
    SpiderCache spider{base_config()};
    observe_all(spider);
    // The clusters are tight: some node collected close neighbors and was
    // offered to the homophily section.
    EXPECT_GT(spider.cache().homophily_size(), 0U);
}

TEST_F(SpiderCacheTest, HomophilyDisabledAblation) {
    SpiderCacheConfig config = base_config();
    config.homophily_enabled = false;
    SpiderCache spider{config};
    observe_all(spider);
    EXPECT_EQ(spider.cache().homophily_size(), 0U);
    // The whole capacity belongs to the importance section.
    EXPECT_EQ(spider.cache().importance_capacity(), config.cache_items);
}

TEST_F(SpiderCacheTest, EpochOrderHasDatasetLength) {
    SpiderCache spider{base_config()};
    const auto order = spider.epoch_order();
    EXPECT_EQ(order.size(), kN);
    for (std::uint32_t id : order) {
        EXPECT_LT(id, kN);
    }
}

TEST_F(SpiderCacheTest, EpochOrderSkewsTowardHighScores) {
    SpiderCacheConfig config = base_config();
    config.sampler_uniform_floor = 0.01;
    SpiderCache spider{config};
    observe_all(spider);
    // Find the max-score sample and count its draws over many epochs.
    const auto scores = spider.scores();
    const std::size_t argmax =
        std::max_element(scores.begin(), scores.end()) - scores.begin();
    const std::size_t argmin =
        std::min_element(scores.begin(), scores.end()) - scores.begin();
    std::size_t max_draws = 0;
    std::size_t min_draws = 0;
    for (int rep = 0; rep < 50; ++rep) {
        for (std::uint32_t id : spider.epoch_order()) {
            if (id == argmax) ++max_draws;
            if (id == argmin) ++min_draws;
        }
    }
    EXPECT_GT(max_draws, min_draws);
}

TEST_F(SpiderCacheTest, FlatScoreSpreadNeverActivatesElastic) {
    // Eq. 5: beta latches only on a strictly negative spread slope. With
    // the same batch observed every epoch the spread is constant, so the
    // ratio must hold at r_start.
    SpiderCacheConfig config = base_config();
    config.elastic.slope_window = 2;
    config.total_epochs = 6;
    SpiderCache spider{config};
    double ratio = 1.0;
    for (int epoch = 0; epoch < 6; ++epoch) {
        observe_all(spider);
        ratio = spider.end_epoch(0.7);
    }
    EXPECT_FALSE(spider.elastic().activated());
    EXPECT_DOUBLE_EQ(ratio, config.elastic.r_start);
    EXPECT_EQ(spider.current_epoch(), 6U);
}

TEST_F(SpiderCacheTest, DecliningScoreSpreadActivatesAndShrinksRatio) {
    // Epoch 0 scores only the four hard samples (all high, wide spread);
    // later epochs score the full dataset, whose mass of identical
    // well-classified scores pulls the spread down. The negative slope
    // latches beta and the ratio moves below r_start by the final epoch.
    SpiderCacheConfig config = base_config();
    config.elastic.slope_window = 2;
    config.elastic.gamma = 1.0;  // flat accuracy -> penalty ~ 0
    config.total_epochs = 5;
    SpiderCache spider{config};

    // Epoch 0: the raw geometry, hard samples misplaced -> wide spread.
    observe_all(spider);
    spider.end_epoch(0.7);

    // Later epochs: "training converged" — every sample now embeds inside
    // its own class cluster, so all scores collapse to the same low value.
    std::vector<std::uint32_t> ids(kN);
    tensor::Matrix converged{kN, kDim};
    for (std::uint32_t i = 0; i < kN; ++i) {
        ids[i] = i;
        std::vector<float> e(kDim, 0.0F);
        e[i % 2] = 1.0F;
        e[2 + i % 2] = 0.01F * static_cast<float>(i);
        std::copy(e.begin(), e.end(), converged.row(i).begin());
    }
    double ratio = 1.0;
    for (int epoch = 1; epoch < 5; ++epoch) {
        spider.observe_batch(ids, converged);
        ratio = spider.end_epoch(0.7);
    }
    EXPECT_TRUE(spider.elastic().activated());
    EXPECT_LT(ratio, config.elastic.r_start);
    EXPECT_GE(ratio, config.elastic.r_end - 1e-9);
}

TEST_F(SpiderCacheTest, ElasticDisabledKeepsStaticRatio) {
    SpiderCacheConfig config = base_config();
    config.elastic_enabled = false;
    SpiderCache spider{config};
    observe_all(spider);
    for (int epoch = 0; epoch < 5; ++epoch) {
        spider.end_epoch(0.7);
    }
    EXPECT_DOUBLE_EQ(spider.imp_ratio(), config.elastic.r_start);
}

TEST_F(SpiderCacheTest, ResidentScoresRefreshOnObserve) {
    SpiderCache spider{base_config()};
    // Admit sample 0 with its default (zero) score.
    spider.on_miss_fetched(0);
    ASSERT_EQ(resident_score(spider.cache(), 0), 0.0);
    observe_all(spider);
    // After the batch, the resident entry carries the fresh graph score.
    EXPECT_GT(resident_score(spider.cache(), 0).value_or(0.0), 0.0);
}

TEST_F(SpiderCacheTest, ObserveBatchValidatesShapes) {
    SpiderCache spider{base_config()};
    const std::vector<std::uint32_t> ids = {0, 1};
    tensor::Matrix wrong{3, kDim};
    EXPECT_THROW(spider.observe_batch(ids, wrong), std::invalid_argument);
}

TEST_F(SpiderCacheTest, SurrogateServedForClusterNeighbor) {
    SpiderCacheConfig config = base_config();
    config.cache_items = 20;
    // Generous homophily section.
    config.elastic.r_start = 0.5;
    config.elastic.r_end = 0.5;
    SpiderCache spider{config};
    // Several rounds so multiple high-degree nodes enter the section.
    for (int round = 0; round < 8; ++round) {
        observe_all(spider);
    }
    // Some cluster member must now be servable by a surrogate: count
    // homophily lookups across all ids.
    std::size_t homophily_served = 0;
    for (std::uint32_t id = 0; id < kN; ++id) {
        if (spider.lookup(id).kind == cache::HitKind::kHomophily) {
            ++homophily_served;
        }
    }
    EXPECT_GT(homophily_served, 0U);
}

}  // namespace
}  // namespace spider::core

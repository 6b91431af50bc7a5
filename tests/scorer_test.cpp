// Graph-based importance scorer tests: Eqs. 1-4 on hand-constructed
// geometry, the four sample states of the paper's Figure 8 and their score
// ordering, embedding normalization, the surrogate (close-neighbor)
// threshold, and the min-update-distance optimization.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "ann/hnsw.hpp"
#include "core/graph_scorer.hpp"
#include "core/similarity.hpp"

namespace spider::core {
namespace {

TEST(Similarity, ExponentialDecay) {
    EXPECT_DOUBLE_EQ(similarity(0.0, 1.0), 1.0);
    EXPECT_NEAR(similarity(1.0, 1.0), std::exp(-1.0), 1e-12);
    EXPECT_GT(similarity(0.5, 1.0), similarity(1.0, 1.0));
    // Faster decay at larger lambda.
    EXPECT_GT(similarity(1.0, 0.5), similarity(1.0, 2.0));
}

TEST(Similarity, EdgeThresholdRoundTrip) {
    // d* is the distance where sim == alpha, so just inside is an edge and
    // just outside is not.
    const double lambda = 2.0;
    const double alpha = 0.2;
    const double d_star = edge_distance_threshold(lambda, alpha);
    EXPECT_NEAR(similarity(d_star, lambda), alpha, 1e-12);
    EXPECT_TRUE(has_edge(d_star * 0.99, lambda, alpha));
    EXPECT_FALSE(has_edge(d_star * 1.01, lambda, alpha));
}

TEST(Similarity, VectorOverloadUsesEuclideanDistance) {
    const std::vector<float> a = {0.0F, 0.0F};
    const std::vector<float> b = {0.3F, 0.4F};  // distance 0.5
    EXPECT_TRUE(has_edge(a, b, 2.0, 0.2));   // sim = e^-1 = 0.37 > 0.2
    EXPECT_FALSE(has_edge(a, b, 2.0, 0.5));  // 0.37 < 0.5
}

class ScorerFixture : public ::testing::Test {
protected:
    // A 2-D plane with hand-placed unit-norm-ish embeddings; labels are
    // assigned via the map. normalize_embeddings is off so the geometry in
    // the test is exactly the geometry the scorer sees.
    ScorerFixture() {
        ScorerConfig config;
        config.lambda = 2.0;
        config.alpha = 0.2;          // d* = ln(5)/2 = 0.805
        config.surrogate_alpha = 0.5;  // d* = ln(2)/2 = 0.347
        config.neighbor_k = 16;
        config.neighbor_max = 64;
        config.normalize_embeddings = false;
        ann::HnswConfig ann;
        ann.dim = 2;
        index_ = std::make_unique<ann::HnswIndex>(ann);
        scorer_ = std::make_unique<GraphImportanceScorer>(
            *index_, config, [this](std::uint32_t id) { return labels_.at(id); });
    }

    void place(std::uint32_t id, std::uint32_t label, float x, float y) {
        labels_[id] = label;
        scorer_->update_embedding(id, std::vector<float>{x, y});
    }

    std::map<std::uint32_t, std::uint32_t> labels_;
    std::unique_ptr<ann::HnswIndex> index_;
    std::unique_ptr<GraphImportanceScorer> scorer_;
};

TEST_F(ScorerFixture, LoneSampleScoresLnTwo) {
    place(0, 0, 0.0F, 0.0F);
    const ScoreResult result = scorer_->score(0);
    // Only the self-edge: x_same = 1, x_other = 0 -> ln(1/1 + 0 + 1).
    EXPECT_EQ(result.x_same, 1U);
    EXPECT_EQ(result.x_other, 0U);
    EXPECT_NEAR(result.score, std::log(2.0), 1e-9);
    EXPECT_TRUE(result.neighbor_ids.empty());
}

TEST_F(ScorerFixture, WellClassifiedHasLowestScore) {
    // A tight same-class cluster around sample 0.
    place(0, 0, 0.0F, 0.0F);
    for (std::uint32_t i = 1; i <= 8; ++i) {
        place(i, 0, 0.05F * static_cast<float>(i), 0.0F);
    }
    const ScoreResult result = scorer_->score(0);
    EXPECT_EQ(result.x_same, 9U);  // 8 neighbors + self
    EXPECT_EQ(result.x_other, 0U);
    EXPECT_NEAR(result.score, std::log(1.0 / 9.0 + 1.0), 1e-9);
    EXPECT_EQ(result.neighbor_ids.size(), 8U);
}

TEST_F(ScorerFixture, MisclassifiedHasHighestScore) {
    // Sample 100 (class 1) sits inside a class-0 cluster.
    for (std::uint32_t i = 0; i < 8; ++i) {
        place(i, 0, 0.05F * static_cast<float>(i), 0.0F);
    }
    place(100, 1, 0.2F, 0.0F);
    const ScoreResult misclassified = scorer_->score(100);
    EXPECT_EQ(misclassified.x_same, 1U);  // only itself
    EXPECT_EQ(misclassified.x_other, 8U);
    const ScoreResult well = scorer_->score(3);
    EXPECT_GT(misclassified.score, well.score);
    // Exact Eq. 4 value.
    EXPECT_NEAR(misclassified.score, std::log(1.0 + 8.0 / 64.0 + 1.0), 1e-9);
}

TEST_F(ScorerFixture, FourStatesOrderAsInFigure8) {
    // Class 0 cluster at x=0, class 1 cluster at x=1 (inter-cluster
    // distance > d* = 0.805 so clusters do not cross-link), boundary point
    // between them, isolated point far away, misclassified point inside
    // class 0.
    for (std::uint32_t i = 0; i < 6; ++i) {
        place(i, 0, 0.05F * static_cast<float>(i), 0.0F);        // class 0
        place(10 + i, 1, 1.0F + 0.05F * static_cast<float>(i), 0.0F);
    }
    place(50, 0, 0.55F, 0.0F);   // boundary: reaches both clusters
    place(51, 0, 5.0F, 5.0F);    // isolated
    place(52, 1, 0.12F, 0.0F);   // misclassified inside class 0

    const double well = scorer_->score(2).score;
    const double boundary = scorer_->score(50).score;
    const double isolated = scorer_->score(51).score;
    const double misclassified = scorer_->score(52).score;

    // Paper Figure 8(b): well-classified lowest, boundary/isolated medium,
    // misclassified highest.
    EXPECT_LT(well, boundary);
    EXPECT_LT(boundary, misclassified);
    EXPECT_LT(well, isolated);
    EXPECT_LE(isolated, misclassified);
}

TEST_F(ScorerFixture, CloseNeighborsAreSubsetWithinSurrogateThreshold) {
    place(0, 0, 0.0F, 0.0F);
    place(1, 0, 0.1F, 0.0F);   // within surrogate threshold (0.347)
    place(2, 0, 0.6F, 0.0F);   // edge (d < 0.805) but not surrogate-close
    const ScoreResult result = scorer_->score(0);
    ASSERT_EQ(result.neighbor_ids.size(), 2U);
    ASSERT_EQ(result.close_neighbor_ids.size(), 1U);
    EXPECT_EQ(result.close_neighbor_ids[0], 1U);
}

TEST_F(ScorerFixture, ScoreOfUnindexedSampleThrows) {
    place(0, 0, 0.0F, 0.0F);
    EXPECT_THROW(scorer_->score(777), std::logic_error);
}

TEST(Scorer, NormalizationMakesScoresScaleInvariant) {
    // Same geometry at two wildly different norms must produce identical
    // neighbor structure when normalize_embeddings is on.
    auto build = [](float scale) {
        ScorerConfig config;  // defaults: normalization on
        ann::HnswConfig ann;
        ann.dim = 2;
        auto index = std::make_shared<ann::HnswIndex>(ann);
        auto labels = std::make_shared<std::map<std::uint32_t, std::uint32_t>>();
        GraphImportanceScorer scorer{
            *index, config,
            [labels](std::uint32_t id) { return labels->at(id); }};
        auto place = [&](std::uint32_t id, std::uint32_t label, float x,
                         float y) {
            (*labels)[id] = label;
            scorer.update_embedding(id, std::vector<float>{x * scale, y * scale});
        };
        place(0, 0, 1.0F, 0.0F);
        place(1, 0, 0.95F, 0.1F);
        place(2, 1, 0.0F, 1.0F);
        struct Out {
            std::shared_ptr<ann::HnswIndex> keep_alive;
            ScoreResult r;
        };
        return Out{index, scorer.score(0)};
    };
    const auto small = build(1.0F);
    const auto large = build(1000.0F);
    EXPECT_EQ(small.r.x_same, large.r.x_same);
    EXPECT_EQ(small.r.x_other, large.r.x_other);
    EXPECT_NEAR(small.r.score, large.r.score, 1e-9);
}

TEST(Scorer, MinUpdateDistanceSkipsStaticEmbeddings) {
    ScorerConfig config;
    config.normalize_embeddings = false;
    config.min_update_distance = 0.5;
    ann::HnswConfig ann;
    ann.dim = 2;
    ann::HnswIndex index{ann};
    GraphImportanceScorer scorer{index, config,
                                 [](std::uint32_t) { return 0U; }};

    EXPECT_TRUE(scorer.update_embedding(0, std::vector<float>{0.0F, 0.0F}));
    // Tiny drift: skipped.
    EXPECT_FALSE(scorer.update_embedding(0, std::vector<float>{0.1F, 0.0F}));
    EXPECT_EQ(scorer.skipped_updates(), 1U);
    // Large move: applied.
    EXPECT_TRUE(scorer.update_embedding(0, std::vector<float>{2.0F, 0.0F}));
    EXPECT_EQ(scorer.applied_updates(), 2U);
    const auto stored = index.vector_of(0);
    ASSERT_TRUE(stored.has_value());
    EXPECT_FLOAT_EQ((*stored)[0], 2.0F);
}

TEST(Scorer, RejectsInvalidConfig) {
    ann::HnswConfig ann;
    ann.dim = 2;
    ann::HnswIndex index{ann};
    auto label = [](std::uint32_t) { return 0U; };

    ScorerConfig bad_alpha;
    bad_alpha.alpha = 1.5;
    EXPECT_THROW((GraphImportanceScorer{index, bad_alpha, label}),
                 std::invalid_argument);

    ScorerConfig bad_lambda;
    bad_lambda.lambda = -1.0;
    EXPECT_THROW((GraphImportanceScorer{index, bad_lambda, label}),
                 std::invalid_argument);

    ScorerConfig bad_max;
    bad_max.neighbor_max = 0;
    EXPECT_THROW((GraphImportanceScorer{index, bad_max, label}),
                 std::invalid_argument);
}

TEST(Scorer, DistanceThresholdMatchesClosedForm) {
    ScorerConfig config;
    config.lambda = 2.0;
    config.alpha = 0.2;
    ann::HnswConfig ann;
    ann.dim = 2;
    ann::HnswIndex index{ann};
    GraphImportanceScorer scorer{index, config,
                                 [](std::uint32_t) { return 0U; }};
    EXPECT_NEAR(scorer.distance_threshold(), -std::log(0.2) / 2.0, 1e-12);
}

// score_batch must be a pure fan-out of score(): same scores, same
// neighbor lists, in batch order, regardless of thread count.
TEST(ScoreBatch, ParallelEqualsSerialExactly) {
    ann::HnswConfig ann;
    ann.dim = 8;
    ann::HnswIndex index{ann};
    ScorerConfig config;
    config.neighbor_k = 12;
    GraphImportanceScorer scorer{index, config,
                                 [](std::uint32_t id) { return id % 5; }};

    util::Rng rng{37};
    const std::size_t population = 300;
    std::vector<float> embedding(8);
    for (std::uint32_t id = 0; id < population; ++id) {
        const double center = static_cast<double>(id % 5);
        for (float& x : embedding) {
            x = static_cast<float>(rng.normal(center, 1.0));
        }
        scorer.update_embedding(id, embedding);
    }

    std::vector<std::uint32_t> ids(population);
    for (std::uint32_t id = 0; id < population; ++id) ids[id] = id;

    const std::vector<ScoreResult> serial = scorer.score_batch(ids, nullptr);
    util::ThreadPool pool{4};
    const std::vector<ScoreResult> parallel = scorer.score_batch(ids, &pool);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].score, serial[i].score) << "sample " << i;
        EXPECT_EQ(parallel[i].x_same, serial[i].x_same) << "sample " << i;
        EXPECT_EQ(parallel[i].x_other, serial[i].x_other) << "sample " << i;
        EXPECT_EQ(parallel[i].neighbor_ids, serial[i].neighbor_ids)
            << "sample " << i;
        EXPECT_EQ(parallel[i].close_neighbor_ids, serial[i].close_neighbor_ids)
            << "sample " << i;
    }
}

// A batch that repeats ids (the multinomial sampler draws with
// replacement) gives, position by position, what score() gives, serially
// and over a pool, with one knn query per distinct id.
TEST(ScoreBatch, DuplicateIdsMatchSerialScore) {
    ann::HnswConfig ann;
    ann.dim = 8;
    ann::HnswIndex index{ann};
    ScorerConfig config;
    config.neighbor_k = 12;
    GraphImportanceScorer scorer{index, config,
                                 [](std::uint32_t id) { return id % 5; }};

    util::Rng rng{53};
    const std::uint32_t population = 200;
    std::vector<float> embedding(8);
    for (std::uint32_t id = 0; id < population; ++id) {
        const double center = static_cast<double>(id % 5);
        for (float& x : embedding) {
            x = static_cast<float>(rng.normal(center, 1.0));
        }
        scorer.update_embedding(id, embedding);
    }

    // 160 draws from 40 ids: most ids repeat, some several times.
    std::vector<std::uint32_t> ids(160);
    for (std::uint32_t& id : ids) {
        id = static_cast<std::uint32_t>(rng.uniform_index(40));
    }
    std::vector<ScoreResult> want(ids.size());
    std::vector<bool> seen(population, false);
    std::uint64_t distinct_comps = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::uint64_t before = index.distance_computations();
        want[i] = scorer.score(ids[i]);
        if (!seen[ids[i]]) {
            seen[ids[i]] = true;
            distinct_comps += index.distance_computations() - before;
        }
    }

    util::ThreadPool pool{4};
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
        const std::uint64_t before = index.distance_computations();
        const std::vector<ScoreResult> got = scorer.score_batch(ids, p);
        EXPECT_EQ(index.distance_computations() - before, distinct_comps)
            << (p == nullptr ? "serial" : "pool");
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].score, want[i].score) << "position " << i;
            EXPECT_EQ(got[i].x_same, want[i].x_same) << "position " << i;
            EXPECT_EQ(got[i].x_other, want[i].x_other) << "position " << i;
            EXPECT_EQ(got[i].neighbor_ids, want[i].neighbor_ids)
                << "position " << i;
            EXPECT_EQ(got[i].close_neighbor_ids, want[i].close_neighbor_ids)
                << "position " << i;
        }
    }
}

}  // namespace
}  // namespace spider::core

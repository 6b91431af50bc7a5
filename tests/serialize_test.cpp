// Serialization tests: HNSW and PQ binary round trips (structure,
// search-result equivalence, continued updatability after load) and
// corruption rejection.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>

#include "ann/hnsw.hpp"
#include "ann/pq.hpp"
#include "ann/serialize.hpp"
#include "util/rng.hpp"

namespace spider::ann {
namespace {

std::vector<float> random_point(util::Rng& rng, std::size_t dim) {
    std::vector<float> p(dim);
    for (float& x : p) x = static_cast<float>(rng.normal());
    return p;
}

HnswIndex build_sample_index(std::size_t n, std::size_t dim) {
    HnswConfig config;
    config.dim = dim;
    HnswIndex index{config};
    util::Rng rng{21};
    for (std::uint32_t i = 0; i < n; ++i) {
        index.upsert(i, random_point(rng, dim));
    }
    return index;
}

TEST(HnswSerialize, RoundTripPreservesSearchResults) {
    const HnswIndex original = build_sample_index(400, 12);
    std::stringstream buffer;
    save_index(original, buffer);
    const HnswIndex restored = load_index(buffer);

    EXPECT_EQ(restored.size(), original.size());
    EXPECT_EQ(restored.config().dim, original.config().dim);
    EXPECT_EQ(restored.config().M, original.config().M);

    util::Rng rng{22};
    for (int q = 0; q < 25; ++q) {
        const std::vector<float> query = random_point(rng, 12);
        const auto a = original.knn(query, 8);
        const auto b = restored.knn(query, 8);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].label, b[i].label) << "query " << q << " pos " << i;
            EXPECT_FLOAT_EQ(a[i].distance, b[i].distance);
        }
    }
}

TEST(HnswSerialize, RestoredIndexRemainsUpdatable) {
    const HnswIndex original = build_sample_index(150, 8);
    std::stringstream buffer;
    save_index(original, buffer);
    HnswIndex restored = load_index(buffer);

    util::Rng rng{23};
    // Continue inserting and updating on the restored index.
    for (std::uint32_t i = 150; i < 250; ++i) {
        restored.upsert(i, random_point(rng, 8));
    }
    for (std::uint32_t i = 0; i < 50; ++i) {
        restored.upsert(i, random_point(rng, 8));
    }
    EXPECT_EQ(restored.size(), 250U);
    const auto found = restored.knn(random_point(rng, 8), 5);
    EXPECT_EQ(found.size(), 5U);
}

TEST(HnswSerialize, EmptyIndexRoundTrip) {
    HnswConfig config;
    config.dim = 4;
    const HnswIndex original{config};
    std::stringstream buffer;
    save_index(original, buffer);
    HnswIndex restored = load_index(buffer);
    EXPECT_EQ(restored.size(), 0U);
    restored.upsert(1, std::vector<float>{1, 2, 3, 4});
    EXPECT_TRUE(restored.contains(1));
}

TEST(HnswSerialize, RejectsCorruptedInput) {
    std::stringstream empty;
    EXPECT_THROW(load_index(empty), std::runtime_error);

    std::stringstream garbage{"this is not an index"};
    EXPECT_THROW(load_index(garbage), std::runtime_error);

    // Truncation mid-stream.
    const HnswIndex original = build_sample_index(50, 4);
    std::stringstream buffer;
    save_index(original, buffer);
    const std::string bytes = buffer.str();
    std::stringstream truncated{bytes.substr(0, bytes.size() / 2)};
    EXPECT_THROW(load_index(truncated), std::runtime_error);

    // A NaN in the first node's vector, which starts after the magic and
    // version (8 bytes), the config (40), entry point (4), max level (8),
    // empty flag (1), node count (8), label (4) and vector length (8).
    std::string poisoned = bytes;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::memcpy(poisoned.data() + 81, &nan, sizeof nan);
    std::stringstream with_nan{poisoned};
    EXPECT_THROW(load_index(with_nan), std::runtime_error);
}

TEST(PqSerialize, RoundTripPreservesCodes) {
    PqConfig config;
    config.dim = 16;
    config.num_subspaces = 4;
    config.codebook_size = 32;
    ProductQuantizer original{config};
    util::Rng rng{25};
    const std::size_t n = 300;
    std::vector<float> data(n * 16);
    for (float& x : data) x = static_cast<float>(rng.normal());
    original.train(data, n);

    std::stringstream buffer;
    save_quantizer(original, buffer);
    const ProductQuantizer restored = load_quantizer(buffer);
    EXPECT_TRUE(restored.trained());

    for (std::size_t i = 0; i < 20; ++i) {
        const std::span<const float> vec{data.data() + i * 16, 16};
        EXPECT_EQ(restored.encode(vec), original.encode(vec)) << "vec " << i;
        EXPECT_FLOAT_EQ(
            restored.adc_distance(vec, original.encode(vec)),
            original.adc_distance(vec, original.encode(vec)));
    }
}

TEST(PqSerialize, UntrainedRoundTrip) {
    PqConfig config;
    config.dim = 8;
    config.num_subspaces = 2;
    const ProductQuantizer original{config};
    std::stringstream buffer;
    save_quantizer(original, buffer);
    const ProductQuantizer restored = load_quantizer(buffer);
    EXPECT_FALSE(restored.trained());
}

TEST(PqSerialize, RejectsWrongMagic) {
    // An HNSW stream fed to the PQ loader must be rejected.
    const HnswIndex index = build_sample_index(10, 4);
    std::stringstream buffer;
    save_index(index, buffer);
    EXPECT_THROW(load_quantizer(buffer), std::runtime_error);
}

}  // namespace
}  // namespace spider::ann

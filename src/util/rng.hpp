#pragma once

// Deterministic, seedable pseudo-random number generation used throughout
// SpiderCache. Every stochastic component (dataset synthesis, samplers,
// HNSW level assignment, cache replacement) takes an explicit Rng so that
// experiments are reproducible run-to-run.

#include <cstdint>
#include <span>
#include <vector>

namespace spider::util {

/// xoshiro256** PRNG (Blackman & Vigna). Fast, high-quality, and — unlike
/// std::mt19937 — cheap to copy and to seed from a single 64-bit value.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the four-word state via SplitMix64 so that nearby seeds give
    /// uncorrelated streams.
    explicit Rng(std::uint64_t seed = 0x51DE2CAC8EULL);

    /// Raw 64-bit draw.
    std::uint64_t next();

    // UniformRandomBitGenerator interface so Rng works with <algorithm>.
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }
    result_type operator()() { return next(); }

    /// Uniform double in [0, 1).
    double uniform();

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    /// Uniform integer in [0, n). Requires n > 0.
    std::uint64_t uniform_index(std::uint64_t n);

    /// Standard normal draw (Box-Muller, one value per call).
    double normal();

    /// Normal draw with the given mean and standard deviation.
    double normal(double mean, double stddev);

    /// Adds an independent N(0, stddev^2) draw to every element. Uses
    /// Marsaglia's polar method and keeps both values of each pair: one
    /// log and one sqrt per two values, no trig. An odd-length tail takes
    /// one normal(). Not the stream normal() would give, which stays
    /// Box-Muller for everything already seeded from it.
    void add_normal(std::span<float> values, double stddev);

    /// Splits off an independent child stream; used to give each worker
    /// thread or subsystem its own generator.
    [[nodiscard]] Rng split();

    /// Fisher-Yates shuffle of an index vector.
    void shuffle(std::span<std::uint32_t> values);

    /// Draws one index from an unnormalized weight vector (linear scan).
    /// Requires at least one strictly positive weight.
    std::size_t weighted_choice(std::span<const double> weights);

private:
    std::uint64_t state_[4];
};

/// Multinomial sampling with replacement: draws `count` indices in
/// proportion to `weights` using the alias method (O(n) build, O(1) draw).
/// This mirrors torch.multinomial(weights, count, replacement=True), which
/// the paper uses for importance sampling.
class AliasSampler {
public:
    explicit AliasSampler(std::span<const double> weights);

    [[nodiscard]] std::size_t size() const { return prob_.size(); }
    std::size_t draw(Rng& rng) const;
    std::vector<std::uint32_t> draw_many(Rng& rng, std::size_t count) const;

private:
    std::vector<double> prob_;
    std::vector<std::uint32_t> alias_;
};

}  // namespace spider::util

#include "util/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace spider::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
    for (auto& word : state_) {
        word = splitmix64(seed);
    }
}

std::uint64_t Rng::next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double Rng::uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
    if (n == 0) throw std::invalid_argument{"uniform_index: n must be > 0"};
    // Lemire-style rejection-free bounded draw is overkill here; modulo bias
    // is negligible for n << 2^64 but we still debias with rejection.
    const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold) return r % n;
    }
}

double Rng::normal() {
    // Box-Muller; uniform() can return 0, so nudge it away from log(0).
    double u1 = uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
    return mean + stddev * normal();
}

void Rng::add_normal(std::span<float> values, double stddev) {
    std::size_t i = 0;
    for (; i + 2 <= values.size(); i += 2) {
        // A uniform point in the unit disc (rejecting 21.5% of the
        // square, and the origin) yields two independent normals.
        double u = 0.0;
        double v = 0.0;
        double s = 0.0;
        do {
            u = 2.0 * uniform() - 1.0;
            v = 2.0 * uniform() - 1.0;
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        const double scale = stddev * std::sqrt(-2.0 * std::log(s) / s);
        values[i] += static_cast<float>(u * scale);
        values[i + 1] += static_cast<float>(v * scale);
    }
    if (i < values.size()) values[i] += static_cast<float>(stddev * normal());
}

Rng Rng::split() {
    return Rng{next() ^ 0xD1B54A32D192ED03ULL};
}

void Rng::shuffle(std::span<std::uint32_t> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
        const std::size_t j = uniform_index(i);
        std::swap(values[i - 1], values[j]);
    }
}

std::size_t Rng::weighted_choice(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) {
        if (w > 0.0) total += w;
    }
    if (total <= 0.0) {
        throw std::invalid_argument{
            "weighted_choice: needs at least one positive weight"};
    }
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (weights[i] <= 0.0) continue;
        r -= weights[i];
        if (r <= 0.0) return i;
    }
    return weights.size() - 1;  // Floating-point slack: return last index.
}

AliasSampler::AliasSampler(std::span<const double> weights) {
    const std::size_t n = weights.size();
    if (n == 0) throw std::invalid_argument{"AliasSampler: empty weights"};

    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0) throw std::invalid_argument{"AliasSampler: negative weight"};
        total += w;
    }
    if (total <= 0.0) {
        throw std::invalid_argument{"AliasSampler: all weights are zero"};
    }

    prob_.assign(n, 0.0);
    alias_.assign(n, 0);

    // Vose's alias method.
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        scaled[i] = weights[i] * static_cast<double>(n) / total;
        (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
        const std::uint32_t s = small.back();
        small.pop_back();
        const std::uint32_t l = large.back();
        large.pop_back();
        prob_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    for (std::uint32_t i : large) prob_[i] = 1.0;
    for (std::uint32_t i : small) prob_[i] = 1.0;
}

std::size_t AliasSampler::draw(Rng& rng) const {
    const std::size_t column = rng.uniform_index(prob_.size());
    return rng.uniform() < prob_[column] ? column : alias_[column];
}

std::vector<std::uint32_t> AliasSampler::draw_many(Rng& rng,
                                                   std::size_t count) const {
    std::vector<std::uint32_t> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(static_cast<std::uint32_t>(draw(rng)));
    }
    return out;
}

}  // namespace spider::util

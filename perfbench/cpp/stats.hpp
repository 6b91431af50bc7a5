#pragma once

// Summary statistics for timing samples. A timing is reported as its
// median plus a tail: the highest standard percentile (p90, p99, p99.9,
// ...) that still has at least ten samples beyond it, together with the
// sample count, so a reader can tell how much evidence the tail rests on.
// Percentiles use the nearest-rank rule on a sorted copy.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile written as the fraction num/den (p99 = 99/100), so the
/// nearest-rank arithmetic stays exact in integers.
struct Percentile {
    std::uint64_t num;
    std::uint64_t den;

    [[nodiscard]] double percent() const {
        return 100.0 * static_cast<double>(num) / static_cast<double>(den);
    }
    /// 1-based nearest rank of this percentile among n sorted samples.
    [[nodiscard]] std::size_t rank(std::size_t n) const {
        return static_cast<std::size_t>((n * num + den - 1) / den);
    }
    /// Samples strictly above the rank.
    [[nodiscard]] std::size_t beyond(std::size_t n) const {
        return n - rank(n);
    }
};

inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Value at percentile `p` of `values` (nearest rank). Empty input -> 0.
[[nodiscard]] inline double percentile(std::vector<double> values,
                                       Percentile p) {
    if (values.empty()) return 0.0;
    const std::size_t rank = std::max<std::size_t>(p.rank(values.size()), 1);
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

[[nodiscard]] inline double median(std::vector<double> values) {
    return percentile(std::move(values), Percentile{1, 2});
}

/// The highest of p90, p99, p99.9, p99.99, p99.999 with at least ten of
/// `n` samples beyond it; nullopt when even p90 has fewer (n < 100).
[[nodiscard]] inline std::optional<Percentile> tail_percentile(std::size_t n) {
    std::optional<Percentile> best;
    for (Percentile p = {9, 10}; p.den <= 100'000;
         p = {p.num * 10 + 9, p.den * 10}) {
        if (p.beyond(n) < kMinSamplesBeyond) break;
        best = p;
    }
    return best;
}

struct Distribution {
    std::size_t n = 0;
    double p50 = 0.0;
    /// Value at `tail_pct`; equals p50 when n is too small for any tail.
    double tail = 0.0;
    double tail_pct = 50.0;
};

[[nodiscard]] inline Distribution summarize(const std::vector<double>& values) {
    Distribution d;
    d.n = values.size();
    d.p50 = median(values);
    d.tail = d.p50;
    if (const auto p = tail_percentile(values.size())) {
        d.tail = percentile(values, *p);
        d.tail_pct = p->percent();
    }
    return d;
}

}  // namespace perfbench

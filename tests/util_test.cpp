// Unit and property tests for the util substrate: RNG determinism and
// statistical sanity, alias sampling correctness, Welford stats, slope
// estimation, sliding windows, Savitzky-Golay filtering, the thread pool,
// the table formatter, and the IdMap hash table against an
// std::unordered_map oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/id_map.hpp"
#include "util/rng.hpp"
#include "util/sg_filter.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace spider::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
    Rng a{123};
    Rng b{123};
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a{1};
    Rng b{2};
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.next() == b.next() ? 1 : 0;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng{7};
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf) {
    Rng rng{11};
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng{13};
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-3.0, 5.0);
        EXPECT_GE(x, -3.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(Rng, UniformIndexCoversRange) {
    Rng rng{17};
    std::vector<int> counts(7, 0);
    for (int i = 0; i < 7000; ++i) {
        ++counts[rng.uniform_index(7)];
    }
    for (int c : counts) {
        EXPECT_GT(c, 700);  // each bucket within ~30% of expectation
        EXPECT_LT(c, 1300);
    }
}

TEST(Rng, UniformIndexRejectsZero) {
    Rng rng{19};
    EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, NormalMomentsMatch) {
    Rng rng{23};
    RunningStats stats;
    for (int i = 0; i < 200000; ++i) stats.add(rng.normal(2.0, 3.0));
    EXPECT_NEAR(stats.mean(), 2.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, AddNormalMoments) {
    // The same seed gives the same values.
    std::vector<float> a(1001, 0.0F);
    std::vector<float> b(1001, 0.0F);
    Rng{5}.add_normal(a, 1.0);
    Rng{5}.add_normal(b, 1.0);
    EXPECT_EQ(a, b);
    // An odd length adds a draw to every element, the tail included.
    std::vector<float> odd(7, 100.0F);
    Rng{6}.add_normal(odd, 1.0);
    for (float x : odd) EXPECT_NE(x, 100.0F);
    // stddev scales the values (same seed, same pairs accepted).
    std::vector<float> wide(1001, 0.0F);
    Rng{5}.add_normal(wide, 3.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(wide[i], 3.0F * a[i], 1e-5F * (1.0F + std::abs(wide[i])));
    }
    // Over 1M draws: mean 0, variance 1, kurtosis 3, each well within
    // its sampling error (about 0.001, 0.0014 and 0.005 at this n).
    std::vector<float> draws(1'000'000, 0.0F);
    Rng{23}.add_normal(draws, 1.0);
    double sum = 0.0;
    for (float x : draws) sum += x;
    const double mean = sum / static_cast<double>(draws.size());
    double m2 = 0.0;
    double m4 = 0.0;
    for (float x : draws) {
        const double d = x - mean;
        m2 += d * d;
        m4 += d * d * d * d;
    }
    m2 /= static_cast<double>(draws.size());
    m4 /= static_cast<double>(draws.size());
    EXPECT_NEAR(mean, 0.0, 0.006);
    EXPECT_NEAR(m2, 1.0, 0.008);
    EXPECT_NEAR(m4 / (m2 * m2), 3.0, 0.03);
}

TEST(Rng, SplitProducesIndependentStream) {
    Rng parent{31};
    Rng child = parent.split();
    // The child stream should not track the parent.
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += parent.next() == child.next() ? 1 : 0;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng{37};
    std::vector<std::uint32_t> values(100);
    std::iota(values.begin(), values.end(), 0U);
    rng.shuffle(values);
    std::vector<std::uint32_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint32_t i = 0; i < 100; ++i) {
        EXPECT_EQ(sorted[i], i);
    }
}

TEST(Rng, WeightedChoiceRespectsZeroWeights) {
    Rng rng{41};
    const std::vector<double> weights = {0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(rng.weighted_choice(weights), 1U);
    }
}

TEST(Rng, WeightedChoiceThrowsOnAllZero) {
    Rng rng{43};
    const std::vector<double> weights = {0.0, 0.0};
    EXPECT_THROW(rng.weighted_choice(weights), std::invalid_argument);
}

TEST(AliasSampler, MatchesWeightDistribution) {
    Rng rng{47};
    const std::vector<double> weights = {1.0, 2.0, 4.0, 8.0};
    const AliasSampler alias{weights};
    std::vector<int> counts(4, 0);
    const int n = 150000;
    for (int i = 0; i < n; ++i) ++counts[alias.draw(rng)];
    const double total = 15.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double expected = weights[i] / total;
        const double observed = static_cast<double>(counts[i]) / n;
        EXPECT_NEAR(observed, expected, 0.01) << "bucket " << i;
    }
}

TEST(AliasSampler, HandlesZeroWeightEntries) {
    Rng rng{53};
    const std::vector<double> weights = {0.0, 5.0, 0.0, 5.0};
    const AliasSampler alias{weights};
    for (int i = 0; i < 1000; ++i) {
        const std::size_t drawn = alias.draw(rng);
        EXPECT_TRUE(drawn == 1 || drawn == 3);
    }
}

TEST(AliasSampler, RejectsEmptyAndNegative) {
    const std::vector<double> empty;
    const std::vector<double> negative = {1.0, -1.0};
    const std::vector<double> zeros = {0.0, 0.0};
    EXPECT_THROW(AliasSampler{empty}, std::invalid_argument);
    EXPECT_THROW(AliasSampler{negative}, std::invalid_argument);
    EXPECT_THROW(AliasSampler{zeros}, std::invalid_argument);
}

TEST(AliasSampler, DrawManyLengthAndRange) {
    Rng rng{59};
    const std::vector<double> weights = {1.0, 1.0, 1.0};
    const AliasSampler alias{weights};
    const auto draws = alias.draw_many(rng, 500);
    ASSERT_EQ(draws.size(), 500U);
    for (std::uint32_t d : draws) EXPECT_LT(d, 3U);
}

TEST(RunningStats, MatchesClosedForm) {
    RunningStats stats;
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (double x : xs) stats.add(x);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
    EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
}

TEST(RunningStats, EmptyAndSingle) {
    RunningStats stats;
    EXPECT_EQ(stats.mean(), 0.0);
    EXPECT_EQ(stats.variance(), 0.0);
    stats.add(42.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 42.0);
    EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, ResetClears) {
    RunningStats stats;
    stats.add(1.0);
    stats.add(2.0);
    stats.reset();
    EXPECT_EQ(stats.count(), 0U);
    EXPECT_EQ(stats.mean(), 0.0);
}

TEST(Stats, LinearSlopeExact) {
    // y = 3x + 1 over x = 0..9.
    std::vector<double> ys(10);
    for (int i = 0; i < 10; ++i) ys[i] = 3.0 * i + 1.0;
    EXPECT_NEAR(linear_slope(ys), 3.0, 1e-12);
}

TEST(Stats, LinearSlopeOfConstantIsZero) {
    const std::vector<double> ys(20, 5.0);
    EXPECT_DOUBLE_EQ(linear_slope(ys), 0.0);
}

TEST(Stats, LinearSlopeDegenerateInputs) {
    EXPECT_DOUBLE_EQ(linear_slope({}), 0.0);
    const std::vector<double> one = {4.0};
    EXPECT_DOUBLE_EQ(linear_slope(one), 0.0);
}

TEST(SlidingWindow, EvictsOldest) {
    SlidingWindow window{3};
    window.push(1.0);
    window.push(2.0);
    window.push(3.0);
    EXPECT_TRUE(window.full());
    window.push(4.0);
    ASSERT_EQ(window.size(), 3U);
    EXPECT_DOUBLE_EQ(window.values()[0], 2.0);
    EXPECT_DOUBLE_EQ(window.back(), 4.0);
}

TEST(SlidingWindow, SlopeTracksTrend) {
    SlidingWindow window{4};
    for (double x : {1.0, 2.0, 3.0, 4.0}) window.push(x);
    EXPECT_GT(window.slope(), 0.0);
    for (double x : {3.0, 2.0, 1.0, 0.0}) window.push(x);
    EXPECT_LT(window.slope(), 0.0);
}

TEST(SlidingWindow, RejectsZeroCapacity) {
    EXPECT_THROW(SlidingWindow{0}, std::invalid_argument);
}

TEST(SavitzkyGolay, PreservesPolynomialUpToOrder) {
    // A filter of order p reproduces degree-<=p polynomials exactly.
    const SavitzkyGolayFilter filter{7, 2};
    std::vector<double> quadratic(40);
    for (int i = 0; i < 40; ++i) {
        quadratic[i] = 0.5 * i * i - 3.0 * i + 2.0;
    }
    const std::vector<double> smoothed = filter.smooth(quadratic);
    ASSERT_EQ(smoothed.size(), quadratic.size());
    for (std::size_t i = 0; i < quadratic.size(); ++i) {
        EXPECT_NEAR(smoothed[i], quadratic[i], 1e-6) << "index " << i;
    }
}

TEST(SavitzkyGolay, CenterCoefficientsMatchKnownValues) {
    // Classic 5-point quadratic smoother: (-3, 12, 17, 12, -3) / 35.
    const SavitzkyGolayFilter filter{5, 2};
    const auto coeffs = filter.center_coefficients();
    ASSERT_EQ(coeffs.size(), 5U);
    const double expected[5] = {-3.0 / 35, 12.0 / 35, 17.0 / 35, 12.0 / 35,
                                -3.0 / 35};
    for (int i = 0; i < 5; ++i) {
        EXPECT_NEAR(coeffs[i], expected[i], 1e-9);
    }
}

TEST(SavitzkyGolay, ReducesNoiseVariance) {
    Rng rng{61};
    std::vector<double> noisy(200);
    for (std::size_t i = 0; i < noisy.size(); ++i) {
        noisy[i] = std::sin(0.05 * static_cast<double>(i)) + rng.normal(0, 0.3);
    }
    const SavitzkyGolayFilter filter{9, 2};
    const std::vector<double> smoothed = filter.smooth(noisy);
    double noisy_error = 0.0;
    double smooth_error = 0.0;
    for (std::size_t i = 0; i < noisy.size(); ++i) {
        const double truth = std::sin(0.05 * static_cast<double>(i));
        noisy_error += (noisy[i] - truth) * (noisy[i] - truth);
        smooth_error += (smoothed[i] - truth) * (smoothed[i] - truth);
    }
    EXPECT_LT(smooth_error, noisy_error * 0.5);
}

TEST(SavitzkyGolay, ShortSeriesReturnedVerbatim) {
    const SavitzkyGolayFilter filter{7, 2};
    const std::vector<double> shorty = {1.0, 2.0, 3.0};
    EXPECT_EQ(filter.smooth(shorty), shorty);
    EXPECT_DOUBLE_EQ(filter.smooth_last(shorty), 3.0);
}

TEST(SavitzkyGolay, RejectsBadParameters) {
    EXPECT_THROW((SavitzkyGolayFilter{4, 2}), std::invalid_argument);  // even
    EXPECT_THROW((SavitzkyGolayFilter{5, 5}), std::invalid_argument);  // order
    EXPECT_THROW((SavitzkyGolayFilter{1, 0}), std::invalid_argument);  // tiny
}

TEST(SavitzkyGolay, SmoothLastTracksTrailingWindow) {
    const SavitzkyGolayFilter filter{5, 1};
    std::vector<double> linear(30);
    for (int i = 0; i < 30; ++i) linear[i] = 2.0 * i;
    EXPECT_NEAR(filter.smooth_last(linear), 58.0, 1e-9);
}

TEST(ThreadPool, ExecutesAllTasks) {
    ThreadPool pool{4};
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i) {
        futures.push_back(pool.submit([&counter] { ++counter; }));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
    ThreadPool pool{2};
    auto f = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
    ThreadPool pool{1};
    auto f = pool.submit([]() -> int { throw std::runtime_error{"boom"}; });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
    ThreadPool pool{3};
    std::vector<std::atomic<int>> touched(64);
    pool.parallel_for(64, [&](std::size_t i) { touched[i] = 1; });
    for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, RejectsZeroThreads) {
    EXPECT_THROW(ThreadPool{0}, std::invalid_argument);
}

TEST(ThreadPool, ChunkedParallelForCoversEveryIndexExactlyOnce) {
    ThreadPool pool{3};
    std::vector<std::atomic<int>> touched(1000);
    std::atomic<int> chunks{0};
    pool.parallel_for(1000, 64, [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end - begin, 64U);
        ++chunks;
        for (std::size_t i = begin; i < end; ++i) ++touched[i];
    });
    for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
    EXPECT_EQ(chunks.load(), 16);  // ceil(1000/64)
}

TEST(ThreadPool, ChunkedParallelForEmptyRangeCallsNothing) {
    ThreadPool pool{2};
    std::atomic<int> calls{0};
    pool.parallel_for(0, 8, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ChunkedParallelForZeroGrainActsAsOne) {
    ThreadPool pool{2};
    std::atomic<int> chunks{0};
    pool.parallel_for(5, 0, [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(end, begin + 1);
        ++chunks;
    });
    EXPECT_EQ(chunks.load(), 5);
}

TEST(ThreadPool, ChunkedParallelForSingleChunkRunsInline) {
    ThreadPool pool{2};
    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.parallel_for(10, 100, [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, 0U);
        EXPECT_EQ(end, 10U);
        ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, ChunkedParallelForPropagatesFirstExceptionAfterDraining) {
    ThreadPool pool{4};
    std::atomic<int> completed{0};
    try {
        pool.parallel_for(100, 10, [&](std::size_t begin, std::size_t) {
            if (begin == 30) throw std::runtime_error{"chunk failed"};
            ++completed;
        });
        FAIL() << "expected the chunk exception to propagate";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "chunk failed");
    }
    // All other chunks ran to completion before the rethrow — none were
    // abandoned mid-flight.
    EXPECT_EQ(completed.load(), 9);
}

TEST(ThreadPool, IndexParallelForPropagatesExceptions) {
    ThreadPool pool{2};
    EXPECT_THROW(pool.parallel_for(32,
                                   [](std::size_t i) {
                                       if (i == 7) {
                                           throw std::logic_error{"bad index"};
                                       }
                                   }),
                 std::logic_error);
}

// With the only worker blocked, the caller claims every chunk itself: the
// first exception in chunk order still wins, and the other chunks run.
TEST(ThreadPool, CallerRunsChunksAndRethrowsFirstInChunkOrder) {
    ThreadPool pool{1};
    std::promise<void> gate;
    auto blocker = pool.submit([opened = gate.get_future()]() mutable {
        opened.wait();
    });
    const auto caller = std::this_thread::get_id();
    std::atomic<int> completed{0};
    std::atomic<int> off_caller{0};
    try {
        pool.parallel_for(50, 10, [&](std::size_t begin, std::size_t) {
            if (std::this_thread::get_id() != caller) ++off_caller;
            if (begin == 30) throw std::runtime_error{"chunk 30"};
            if (begin == 10) throw std::runtime_error{"chunk 10"};
            ++completed;
        });
        FAIL() << "expected a chunk exception to propagate";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "chunk 10");
    }
    EXPECT_EQ(completed.load(), 3);
    EXPECT_EQ(off_caller.load(), 0);
    gate.set_value();
    blocker.get();
}

// A task that fans out over its own pool must not wait for workers that
// are all busy running such tasks.
TEST(ThreadPool, ParallelForFromInsidePoolTaskCompletes) {
    ThreadPool pool{2};
    std::atomic<int> touched{0};
    std::vector<std::future<void>> outer;
    for (int t = 0; t < 4; ++t) {
        outer.push_back(pool.submit([&] {
            pool.parallel_for(64, 4, [&](std::size_t begin, std::size_t end) {
                touched += static_cast<int>(end - begin);
            });
        }));
    }
    for (auto& f : outer) f.get();
    EXPECT_EQ(touched.load(), 4 * 64);
}

// The caller can finish every chunk while a helper task is still queued.
// That helper runs after the call returned and `fn` is gone; it must find
// no chunk left and never call `fn`.
TEST(ThreadPool, HelperQueuedPastReturnNeverRunsFn) {
    ThreadPool pool{1};
    std::promise<void> gate;
    auto blocker = pool.submit([opened = gate.get_future()]() mutable {
        opened.wait();
    });
    std::atomic<int> calls{0};
    {
        auto counted = std::make_unique<std::atomic<int>*>(&calls);
        pool.parallel_for(4, 1, [&counted](std::size_t, std::size_t) {
            ++**counted;
        });
    }  // `counted` and the std::function wrapping the lambda are gone
    EXPECT_EQ(calls.load(), 4);
    gate.set_value();
    blocker.get();
    pool.submit([] {}).get();  // FIFO: the stale helper has run by now
    EXPECT_EQ(calls.load(), 4);
}

TEST(Table, RendersAlignedColumns) {
    Table table{"T"};
    table.set_header({"a", "bbbb"});
    table.add_row({"xx", "y"});
    std::ostringstream oss;
    table.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("== T =="), std::string::npos);
    EXPECT_NE(out.find("| a  | bbbb |"), std::string::npos);
    EXPECT_NE(out.find("| xx | y    |"), std::string::npos);
}

TEST(Table, CsvOutput) {
    Table table;
    table.set_header({"x", "y"});
    table.add_row({"1", "2"});
    std::ostringstream oss;
    table.write_csv(oss);
    EXPECT_EQ(oss.str(), "x,y\n1,2\n");
}

TEST(Table, FmtPrecision) {
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

// ------------------------------------------------------------------ IdMap

using Oracle = std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>;

/// Every oracle entry is in `map` with the same value, and nothing else.
void expect_same_entries(const IdMap<std::vector<std::uint32_t>>& map,
                         const Oracle& oracle, int op) {
    ASSERT_EQ(map.size(), oracle.size()) << "op " << op;
    std::size_t visited = 0;
    map.for_each([&](std::uint32_t id, const std::vector<std::uint32_t>& v) {
        ++visited;
        const auto it = oracle.find(id);
        ASSERT_NE(it, oracle.end()) << "op " << op << " id " << id;
        EXPECT_EQ(v, it->second) << "op " << op << " id " << id;
    });
    EXPECT_EQ(visited, oracle.size()) << "op " << op;
}

TEST(IdMap, MatchesOracleOver20kOps) {
    // Ids: a dense space, the two extremes 0 and 0xFFFFFFFF, and a run of
    // ids whose Fibonacci hash has its top ten bits set. At every table
    // size up to 1024 buckets (the trace holds at most 326 ids) the run
    // shares the last bucket, so its probe run wraps past the end and a
    // backward shift crosses it.
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < 300; ++id) ids.push_back(id);
    ids.push_back(0xFFFFFFFFU);
    for (std::uint32_t id = 1; ids.size() < 325; ++id) {
        if (((std::uint64_t{id} * 0x9E3779B97F4A7C15ULL) >> 54) == 1023) {
            ids.push_back(id);
        }
    }
    IdMap<std::vector<std::uint32_t>> map;
    Oracle oracle;
    Rng rng{2025};
    for (int op = 0; op < 20'000; ++op) {
        // Half the draws come from the last 25 ids: extremes and the run.
        const std::uint32_t id =
            rng.uniform_index(2) == 0
                ? ids[300 + rng.uniform_index(25)]
                : ids[rng.uniform_index(ids.size())];
        const std::vector<std::uint32_t> value{
            id, static_cast<std::uint32_t>(op)};
        const std::uint64_t roll = rng.uniform_index(1000);
        if (roll < 300) {
            const auto [mapped, inserted] = map.try_emplace(id, value);
            const auto [it, oracle_inserted] = oracle.try_emplace(id, value);
            EXPECT_EQ(inserted, oracle_inserted) << "op " << op;
            EXPECT_EQ(*mapped, it->second) << "op " << op;
        } else if (roll < 450) {
            map[id].push_back(id);
            oracle[id].push_back(id);
        } else if (roll < 700) {
            const auto* found = map.find(id);
            const auto it = oracle.find(id);
            ASSERT_EQ(found != nullptr, it != oracle.end()) << "op " << op;
            if (found != nullptr) {
                EXPECT_EQ(*found, it->second) << "op " << op;
            }
            EXPECT_EQ(map.contains(id), it != oracle.end()) << "op " << op;
        } else if (roll < 850) {
            EXPECT_EQ(map.erase(id), oracle.erase(id) == 1) << "op " << op;
        } else if (roll < 997) {
            const auto taken = map.take(id);
            const auto it = oracle.find(id);
            ASSERT_EQ(taken.has_value(), it != oracle.end()) << "op " << op;
            if (taken) {
                EXPECT_EQ(*taken, it->second) << "op " << op;
                oracle.erase(it);
            }
        } else {
            // Clear, then reuse the kept buckets straight away.
            map.clear();
            oracle.clear();
            EXPECT_TRUE(map.empty());
            EXPECT_FALSE(map.contains(id));
        }
        ASSERT_EQ(map.size(), oracle.size()) << "op " << op;
        if (op % 500 == 0) expect_same_entries(map, oracle, op);
    }
    expect_same_entries(map, oracle, 20'000);
    // The extremes are ordinary keys.
    map.clear();
    map[0] = {1};
    map[0xFFFFFFFFU] = {2};
    EXPECT_EQ(map.size(), 2U);
    EXPECT_EQ(*map.find(0), std::vector<std::uint32_t>{1});
    EXPECT_EQ(*map.find(0xFFFFFFFFU), std::vector<std::uint32_t>{2});
    EXPECT_EQ(map.take(0xFFFFFFFFU), std::vector<std::uint32_t>{2});
    EXPECT_FALSE(map.contains(0xFFFFFFFFU));
    EXPECT_TRUE(map.contains(0));
}

TEST(IdMap, CrowdedTraceMatchesOracle) {
    // Thousands of entries over 20k ids: the table grows and rehashes,
    // and erases and shrinks delete from a crowded one. The size moves
    // between 1024 and 8192 like a cache's capacity.
    IdMap<std::vector<std::uint32_t>> map;
    Oracle oracle;
    Rng rng{102};
    std::size_t limit = 4096;
    for (int op = 0; op < 20'000; ++op) {
        const auto id = static_cast<std::uint32_t>(rng.uniform_index(20'000));
        const std::uint64_t roll = rng.uniform_index(100);
        if (roll < 40) {
            const auto* found = map.find(id);
            const auto it = oracle.find(id);
            ASSERT_EQ(found != nullptr, it != oracle.end()) << "op " << op;
            if (found != nullptr) {
                EXPECT_EQ(*found, it->second) << "op " << op;
            }
        } else if (roll < 82) {
            if (oracle.size() < limit) {
                const std::vector<std::uint32_t> value{id};
                EXPECT_EQ(map.try_emplace(id, value).second,
                          oracle.try_emplace(id, value).second)
                    << "op " << op;
            }
        } else if (roll < 94) {
            EXPECT_EQ(map.erase(id), oracle.erase(id) == 1) << "op " << op;
        } else {
            limit = 1024 + rng.uniform_index(8192 - 1024 + 1);
            while (oracle.size() > limit) {
                const std::uint32_t victim = oracle.begin()->first;
                oracle.erase(oracle.begin());
                ASSERT_TRUE(map.erase(victim)) << "op " << op;
            }
        }
        ASSERT_EQ(map.size(), oracle.size()) << "op " << op;
    }
    expect_same_entries(map, oracle, 20'000);
}

}  // namespace
}  // namespace spider::util

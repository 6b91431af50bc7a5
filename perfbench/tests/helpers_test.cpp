// Tests of the benchmark's own helpers: the percentile rule, span self
// time, and the JSON the binary hands to run.py.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "layers.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, NearestRank) {
    EXPECT_DOUBLE_EQ(percentile(one_to(100), {9, 10}), 90.0);
    EXPECT_DOUBLE_EQ(percentile(one_to(1000), {99, 100}), 990.0);
    EXPECT_DOUBLE_EQ(median(one_to(5)), 3.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
    EXPECT_FALSE(tail_percentile(99).has_value());  // p90 leaves 9 beyond
    ASSERT_TRUE(tail_percentile(100).has_value());
    EXPECT_DOUBLE_EQ(tail_percentile(100)->percent(), 90.0);
    EXPECT_DOUBLE_EQ(tail_percentile(999)->percent(), 90.0);
    EXPECT_DOUBLE_EQ(tail_percentile(1000)->percent(), 99.0);
    EXPECT_DOUBLE_EQ(tail_percentile(10'000)->percent(), 99.9);
    EXPECT_DOUBLE_EQ(tail_percentile(20'000'000)->percent(), 99.999);
    for (const std::size_t n : {100U, 123U, 999U, 1000U, 54'321U}) {
        EXPECT_GE(tail_percentile(n)->beyond(n), kMinSamplesBeyond) << n;
    }
}

TEST(Summarize, FallsBackToTheMedianWithoutATail) {
    const Distribution small = summarize(one_to(50));
    EXPECT_EQ(small.n, 50U);
    EXPECT_DOUBLE_EQ(small.tail, small.p50);
    EXPECT_DOUBLE_EQ(small.tail_pct, 50.0);

    const Distribution big = summarize(one_to(2000));
    EXPECT_DOUBLE_EQ(big.p50, 1000.0);
    EXPECT_DOUBLE_EQ(big.tail, 1980.0);
    EXPECT_DOUBLE_EQ(big.tail_pct, 99.0);
}

Span span(SpanName name, std::uint32_t parent, std::int64_t start,
          std::int64_t end) {
    return Span{.name = name, .parent = parent, .step = 1, .start_ns = start,
                .end_ns = end};
}

TEST(SelfTime, ParentMinusUnionOfChildren) {
    const std::vector<Span> spans = {
        span(SpanName::kStep, kNoParent, 0, 100),
        span(SpanName::kForward, 0, 10, 30),
        span(SpanName::kBackward, 0, 20, 40),  // overlaps the previous child
        span(SpanName::kGather, 0, 90, 120),   // overhangs the parent
        span(SpanName::kCacheAccess, 1, 12, 15),
    };
    const std::vector<std::int64_t> self = self_times(spans);
    EXPECT_EQ(self[0], 100 - (30 + 10));  // union [10,40) + [90,100)
    EXPECT_EQ(self[1], 20 - 3);
    EXPECT_EQ(self[2], 20);
    EXPECT_EQ(self[4], 3);
}

TEST(SpanLog, NestsSpansAndSharesStepIds) {
    SpanLog log{true};
    log.begin_step();
    {
        const auto outer = log.scope(SpanName::kStep);
        const auto inner = log.scope(SpanName::kForward);
    }
    log.end_step();
    const auto orphan = log.scope(SpanName::kEvaluate);
    ASSERT_EQ(log.spans().size(), 3U);
    EXPECT_EQ(log.spans()[1].parent, 0U);
    EXPECT_EQ(log.spans()[1].step, log.spans()[0].step);
    EXPECT_NE(log.spans()[0].step, 0U);
    EXPECT_EQ(log.spans()[2].parent, kNoParent);
    EXPECT_EQ(log.spans()[2].step, 0U);
}

TEST(SpanLog, DisabledRecordsNothing) {
    SpanLog log{false};
    { const auto s = log.scope(SpanName::kStep); }
    EXPECT_TRUE(log.spans().empty());
}

TEST(SpanTotals, StepShareUsesSelfTimeInsideSteps) {
    SpanTotals totals;
    totals.add(std::vector<Span>{
        span(SpanName::kStep, kNoParent, 0, 100),
        span(SpanName::kForward, 0, 0, 60),
        span(SpanName::kObserveBatch, 0, 60, 90),
    });
    EXPECT_DOUBLE_EQ(totals.step_share("nn"), 0.6);
    EXPECT_DOUBLE_EQ(totals.step_share("core"), 0.3);
    EXPECT_DOUBLE_EQ(totals.step_share("bench"), 0.1);
    EXPECT_EQ(layer_of(SpanName::kSsdFetch), "storage");
}

TEST(Report, JsonCarriesTallyMetricsAndUnits) {
    Report report;
    report.metric("samples_per_s", 1234.5, "1/s");
    report.check(true, "", 3);
    report.check(false, "broken");
    report.provenance("kernels", "avx2\"fma");
    EXPECT_EQ(report.to_json(),
              "{\"correct\": false, \"attempted\": 4, \"failed\": 1, "
              "\"metrics\": {\"samples_per_s\": {\"value\": 1234.5, \"unit\": "
              "\"1/s\"}}, \"info\": {}, \"provenance\": {\"kernels\": "
              "\"avx2\\\"fma\"}}");
}

TEST(Report, ZeroLayerMetricsCoversTheWholeTable) {
    Report report;
    zero_layer_metrics(report);
    layer_metric(report, "nn.forward_us", 2.5);
    const std::string json = report.to_json();
    for (const LayerMetric& m : kLayerMetrics) {
        EXPECT_NE(json.find("\"" + std::string{m.name} + "\""), std::string::npos)
            << m.name;
    }
    EXPECT_NE(json.find("\"nn.forward_us\": {\"value\": 2.5, \"unit\": \"us\"}"),
              std::string::npos);
}

}  // namespace
}  // namespace perfbench

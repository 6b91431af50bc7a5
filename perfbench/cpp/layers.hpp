#pragma once

// The per-layer metric set of the traced run. Every workload reports every
// metric; a layer a workload never calls reads 0 there. BENCHMARK.json's
// "per_layer" list must name exactly these metrics with these units
// (tests/test_run.py checks that).

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "stats.hpp"

namespace perfbench {

struct LayerMetric {
    std::string_view name;
    std::string_view unit;
};

inline constexpr std::array kLayerMetrics = {
    LayerMetric{"core.observe_batch_p50_us", "us"},
    LayerMetric{"core.observe_batch_tail_us", "us"},
    LayerMetric{"core.observe_batch_n", "count"},
    LayerMetric{"core.observe_share", "ratio"},
    LayerMetric{"core.upserts_applied", "count"},
    LayerMetric{"core.upserts_skipped", "count"},
    LayerMetric{"core.epoch_order_ms", "ms"},
    LayerMetric{"core.end_epoch_us", "us"},
    LayerMetric{"ann.dist_comps_per_sample", "comps/sample"},
    LayerMetric{"ann.index_mb", "MiB"},
    LayerMetric{"ann.nodes", "count"},
    LayerMetric{"nn.forward_us", "us"},
    LayerMetric{"nn.backward_us", "us"},
    LayerMetric{"nn.evaluate_ms", "ms"},
    LayerMetric{"nn.step_share", "ratio"},
    LayerMetric{"data.gather_us", "us"},
    LayerMetric{"data.step_share", "ratio"},
    LayerMetric{"cache.access_p50_ns", "ns"},
    LayerMetric{"cache.access_tail_ns", "ns"},
    LayerMetric{"cache.access_n", "count"},
    LayerMetric{"cache.importance_hits", "count"},
    LayerMetric{"cache.homophily_hits", "count"},
    LayerMetric{"cache.misses", "count"},
    LayerMetric{"cache.step_share", "ratio"},
    LayerMetric{"storage.ssd_fetch_p50_us", "us"},
    LayerMetric{"storage.ssd_fetch_tail_us", "us"},
    LayerMetric{"storage.ssd_fetch_n", "count"},
    LayerMetric{"storage.ssd_insert_us", "us"},
    LayerMetric{"storage.ssd_flush_ms", "ms"},
    LayerMetric{"storage.disk_reads_per_ssd_read", "reads/read"},
    LayerMetric{"storage.segments_sealed", "count"},
    LayerMetric{"storage.segments_collected", "count"},
    LayerMetric{"storage.wal_append_us", "us"},
    LayerMetric{"storage.wal_compact_ms", "ms"},
    LayerMetric{"storage.remote_fetches", "count"},
    LayerMetric{"storage.step_share", "ratio"},
    LayerMetric{"server.miss_fetch_p50_us", "us"},
    LayerMetric{"server.miss_fetch_tail_us", "us"},
    LayerMetric{"server.miss_fetch_n", "count"},
    LayerMetric{"server.payload_read_us", "us"},
    LayerMetric{"server.frames_per_batch", "frames/batch"},
    LayerMetric{"server.bytes_out_per_sample", "B/sample"},
    LayerMetric{"server.write_ops", "count"},
    LayerMetric{"server.errors", "count"},
    LayerMetric{"server.step_p50_us", "us"},
    LayerMetric{"server.step_tail_us", "us"},
    LayerMetric{"server.step_n", "count"},
    LayerMetric{"server.step_share", "ratio"},
    LayerMetric{"sim.load_min", "min"},
    LayerMetric{"sim.compute_min", "min"},
    LayerMetric{"sim.is_min", "min"},
    LayerMetric{"replay.hit_ratio", "ratio"},
    LayerMetric{"replay.steps", "count"},
    LayerMetric{"replay.top1_acc", "ratio"},
    LayerMetric{"e2e.hit_ratio", "ratio"},
    LayerMetric{"e2e.steps", "count"},
    LayerMetric{"trace.overhead_frac", "ratio"},
};

/// Unit of a per-layer metric by name (empty when unknown).
[[nodiscard]] inline std::string_view layer_unit(std::string_view name) {
    for (const LayerMetric& m : kLayerMetrics) {
        if (m.name == name) return m.unit;
    }
    return {};
}

/// Sets every per-layer metric to 0 so that each workload reports the full
/// set; the workload then overwrites what it measured.
inline void zero_layer_metrics(Report& report) {
    for (const LayerMetric& m : kLayerMetrics) {
        report.metric(std::string{m.name}, 0.0, std::string{m.unit});
    }
}

/// Reports one per-layer metric, taking its unit from kLayerMetrics.
inline void layer_metric(Report& report, std::string_view name, double value) {
    report.metric(std::string{name}, value, std::string{layer_unit(name)});
}

/// Reports `<prefix>_p50_<unit>`, `<prefix>_tail_<unit>` and `<prefix>_n`
/// from raw nanosecond samples, scaled by `ns_per_unit`.
inline void layer_distribution(Report& report, const std::string& prefix,
                               const std::string& unit,
                               const std::vector<double>& samples_ns,
                               double ns_per_unit) {
    const Distribution d = summarize(samples_ns);
    layer_metric(report, prefix + "_p50_" + unit, d.p50 / ns_per_unit);
    layer_metric(report, prefix + "_tail_" + unit, d.tail / ns_per_unit);
    layer_metric(report, prefix + "_n", static_cast<double>(d.n));
}

}  // namespace perfbench

// Training workloads. The untraced run measures sim::TrainingSimulator::run()
// end to end; the traced run replays the same configuration step by step
// through the layers' public functions (the examples/custom_loop.cpp
// pattern, extended with the simulator's SSD and WAL steps) and records a
// span around each call. Virtual-time figures come from run() itself.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/spider_cache.hpp"
#include "data/presets.hpp"
#include "layers.hpp"
#include "nn/optimizer.hpp"
#include "sim/frontend.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "storage/ssd_block_store.hpp"
#include "storage/wal.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace spider;

// Workload parameters. Everything else is a library default.
constexpr std::size_t kBatch = 128;
constexpr double kSpiderScale = 0.04;  // 2000 samples, the quickstart scale
constexpr std::size_t kSpiderEpochs = 8;
// Large enough that the 2 MiB SSD budget spans several 1 MiB segments and
// whole-segment GC fires.
constexpr double kLruScale = 0.4;  // 20000 samples
constexpr std::size_t kLruEpochs = 4;
constexpr std::size_t kSsdCapacityMb = 2;
constexpr std::size_t kSsdSegmentMb = 1;
/// Set-ups timed per untraced run (the reported set-up time is their median).
constexpr std::size_t kMinSetups = 21;

/// Training runs per window alternate between this many datasets (each
/// with its own dataset and simulator seed), so one dataset's quirks weigh
/// less on the reported hit ratio and throughput.
constexpr std::size_t kDatasets = 3;

sim::SimConfig make_config(const RunOptions& options, std::size_t dataset,
                           const fs::path& dir) {
    const bool lru_ssd = options.workload == "train_lru_ssd";
    sim::SimConfig config;
    config.dataset = data::cifar10_like(lru_ssd ? kLruScale : kSpiderScale,
                                        derive_seed(options.seed, 1 + 10 * dataset));
    config.model = nn::make_profile(nn::ModelKind::kResNet18);
    config.strategy = lru_ssd ? sim::StrategyKind::kBaselineLru
                              : sim::StrategyKind::kSpider;
    config.cache_fraction = 0.20;
    config.batch_size = kBatch;
    config.epochs = lru_ssd ? kLruEpochs : kSpiderEpochs;
    config.worker_threads = 1;
    // Explicit: the auto setting depends on the host's core count.
    config.cache_shards = 1;
    config.seed = derive_seed(options.seed, 2 + 10 * dataset);
    if (lru_ssd) {
        config.ssd.enabled = true;
        config.ssd.path = (dir / "ssd").string();
        config.ssd.capacity_mb = kSsdCapacityMb;
        config.ssd.segment_mb = kSsdSegmentMb;
        config.wal_dir = (dir / "wal").string();
    }
    return config;
}

std::span<const std::uint8_t> feature_bytes(const data::SyntheticDataset& dataset,
                                            std::uint32_t id) {
    const std::vector<float>& f = dataset.sample(id).features;
    return {reinterpret_cast<const std::uint8_t*>(f.data()),
            f.size() * sizeof(float)};
}

bool same_bytes(std::span<const std::uint8_t> a,
                std::span<const std::uint8_t> b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

std::uint64_t samples_of(const metrics::RunResult& r) {
    std::uint64_t samples = 0;
    for (const metrics::EpochMetrics& e : r.epochs) samples += e.accesses;
    return samples;
}

std::uint64_t steps_of(const metrics::RunResult& r, std::size_t batch) {
    std::uint64_t steps = 0;
    for (const metrics::EpochMetrics& e : r.epochs) {
        steps += (e.accesses + batch - 1) / batch;
    }
    return steps;
}

/// Sum of one virtual stage over a run's epochs, in minutes.
double stage_minutes(const metrics::RunResult& r,
                     storage::SimDuration metrics::EpochMetrics::*stage) {
    storage::SimDuration total{};
    for (const metrics::EpochMetrics& e : r.epochs) total += e.*stage;
    return storage::to_minutes(total);
}

void check_epoch_accounting(const metrics::RunResult& r, Report& report) {
    for (const metrics::EpochMetrics& e : r.epochs) {
        report.check(e.hits + e.misses == e.accesses,
                     "run(): an epoch's hits + misses != accesses");
    }
}

/// Re-opens the block store a finished run left behind and reads every
/// record back: each must equal the features it was written from.
void verify_ssd_store(const sim::SimConfig& config,
                      const data::SyntheticDataset& dataset, Report& report) {
    storage::SsdBlockStore store{storage::SsdBlockStoreConfig{
        .dir = config.ssd.path,
        .capacity_bytes = 0,
        .segment_bytes = config.ssd.segment_mb << 20,
        .bloom_bits_per_key = config.ssd.bloom_bits_per_key,
    }};
    const std::vector<std::uint32_t> ids = store.live_ids();
    report.check(!ids.empty(), "SSD store is empty after the run");
    for (const std::uint32_t id : ids) {
        const auto bytes = store.read(id);
        report.check(bytes && same_bytes(*bytes, feature_bytes(dataset, id)),
                     "a stored SSD payload differs from its features");
    }
}

struct ReplayResult {
    double wall_s = 0.0;
    std::size_t steps = 0;
    std::uint64_t importance_hits = 0;
    std::uint64_t homophily_hits = 0;
    std::uint64_t misses = 0;
    double avg_hit_ratio = 0.0;
    double best_accuracy = 0.0;
    std::uint64_t observed_samples = 0;
    std::uint64_t upserts_applied = 0;
    std::uint64_t upserts_skipped = 0;
    std::uint64_t dist_comps = 0;
    std::size_t index_bytes = 0;
    std::size_t index_nodes = 0;
    storage::SsdBlockStoreStats ssd{};
    std::uint64_t remote_fetches = 0;
};

/// The serial path of TrainingSimulator::run() for the two workload
/// configurations (LRU or SpiderCache frontend, optional block-mode SSD
/// tier and residency WAL), spelled out through the public layer APIs with
/// a span around every layer call. Virtual time is left to run(): the
/// replay reproduces its accesses, training and storage traffic only.
ReplayResult replay(const sim::SimConfig& config,
                    const data::SyntheticDataset& dataset, SpanLog& log,
                    Report& report) {
    const double t0 = now_s();
    ReplayResult out;
    const std::size_t n = dataset.size();
    const auto cache_items = static_cast<std::size_t>(
        std::llround(config.cache_fraction * static_cast<double>(n)));
    storage::RemoteStore remote{dataset, config.remote};

    util::Rng rng{config.seed ^ 0xC0FFEEULL};
    std::unique_ptr<core::SpiderCache> spider;
    std::unique_ptr<sim::CacheFrontend> frontend;
    std::unique_ptr<core::UniformSampler> sampler;
    if (config.strategy == sim::StrategyKind::kSpider) {
        core::SpiderCacheConfig sc;
        sc.dataset_size = n;
        sc.label_of = [&dataset](std::uint32_t id) {
            return dataset.label_of(id);
        };
        sc.cache_items = cache_items;
        sc.embedding_dim = config.model.sim_embedding_dim;
        sc.scorer = config.scorer;
        sc.elastic = config.elastic;
        sc.total_epochs = config.epochs;
        sc.sampler_uniform_floor = config.spider_sampler_floor;
        sc.elastic_enabled = config.elastic_enabled;
        sc.homophily_enabled = true;
        sc.seed = config.seed;
        sc.cache_shards = config.cache_shards;
        sc.cache_lockfree_reads = config.cache_lockfree_reads;
        sc.cache_policies = config.policy;
        spider = std::make_unique<core::SpiderCache>(std::move(sc));
        frontend = std::make_unique<sim::SpiderFrontend>(*spider);
    } else {
        sampler = std::make_unique<core::UniformSampler>(n, rng);
        frontend = std::make_unique<sim::PolicyFrontend>(
            std::make_unique<cache::LruCache>(cache_items));
    }

    nn::MlpConfig mlp;
    mlp.input_dim = dataset.feature_dim();
    mlp.hidden_dims = config.model.sim_hidden_dims;
    mlp.num_classes = dataset.num_classes();
    mlp.sgd = config.sgd;
    mlp.seed = config.seed ^ 0x11DDULL;
    nn::MlpClassifier model{mlp};

    const std::size_t batch = config.batch_size;
    storage::SsdTier ssd{config.ssd};
    ssd.clear_store();
    const bool ssd_block = ssd.block_mode();
    util::Rng aug_rng{config.seed ^ 0xA067ULL};

    std::unique_ptr<storage::CacheWal> wal;
    if (!config.wal_dir.empty()) {
        wal = std::make_unique<storage::CacheWal>(storage::WalConfig{
            .enabled = true,
            .dir = config.wal_dir,
            .sync_every_append = config.wal_sync_every_append,
        });
        const cache::ResidencyListener listener =
            [&wal, &log](const cache::ResidencyRecord& record) {
                const auto span = log.scope(SpanName::kWalAppend);
                wal->append(record);
            };
        if (spider) spider->cache().set_residency_listener(listener);
        ssd.set_residency_listener(listener);
        wal->compact({});
    }

    double hit_ratio_sum = 0.0;
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        model.set_learning_rate(nn::cosine_lr(config.sgd.learning_rate,
                                              config.lr_min, epoch,
                                              config.epochs));
        remote.reset_contention_counters();
        ssd.reset_counters();
        std::vector<std::uint32_t> order;
        {
            const auto span = log.scope(SpanName::kEpochOrder);
            order = spider ? spider->epoch_order() : sampler->epoch_order(epoch);
        }

        std::uint64_t epoch_hits = 0;
        std::uint64_t epoch_misses = 0;
        for (std::size_t start = 0; start < order.size(); start += batch) {
            log.begin_step();
            {
                const auto step = log.scope(SpanName::kStep);
                const std::size_t count = std::min(batch, order.size() - start);
                std::vector<std::uint32_t> served(count);
                for (std::size_t i = 0; i < count; ++i) {
                    const std::uint32_t id = order[start + i];
                    sim::Access access;
                    {
                        const auto span = log.scope(SpanName::kCacheAccess);
                        access = frontend->access(id);
                    }
                    served[i] = access.served_id;
                    if (access.hit) {
                        ++epoch_hits;
                        if (access.importance_hit) ++out.importance_hits;
                        if (access.homophily_hit) ++out.homophily_hits;
                        continue;
                    }
                    ++out.misses;
                    ++epoch_misses;
                    std::optional<std::vector<std::uint8_t>> payload;
                    {
                        const auto span = log.scope(SpanName::kSsdFetch);
                        payload = ssd.fetch_payload(id);
                    }
                    if (payload) {
                        if (ssd_block) {
                            report.check(
                                same_bytes(*payload, feature_bytes(dataset, id)),
                                "an SSD read returned other bytes");
                        }
                        continue;
                    }
                    {
                        const auto span = log.scope(SpanName::kRemoteFetch);
                        (void)remote.fetch(id);
                    }
                    const auto span = log.scope(SpanName::kSsdInsert);
                    if (ssd_block) {
                        ssd.insert(id, feature_bytes(dataset, id));
                    } else {
                        ssd.insert(id);
                    }
                }

                tensor::Matrix features;
                std::vector<std::uint32_t> labels;
                {
                    const auto span = log.scope(SpanName::kGather);
                    features = dataset.gather_features_augmented(served, aug_rng);
                    labels = dataset.gather_labels(served);
                }
                nn::ForwardResult fwd;
                {
                    const auto span = log.scope(SpanName::kForward);
                    fwd = model.forward(features, labels);
                }
                {
                    const auto span = log.scope(SpanName::kBackward);
                    model.backward_and_step(labels);
                }
                frontend->post_batch(served);
                if (spider) {
                    const auto span = log.scope(SpanName::kObserveBatch);
                    spider->observe_batch(served, fwd.embeddings);
                }
                out.observed_samples += count;
                ++out.steps;
            }
            log.end_step();
        }
        report.check(epoch_hits + epoch_misses == order.size(),
                     "replay: an epoch's hits + misses != accesses");
        hit_ratio_sum += static_cast<double>(epoch_hits) /
                         static_cast<double>(order.size());

        double accuracy = 0.0;
        {
            const auto span = log.scope(SpanName::kEvaluate);
            accuracy = model.evaluate(dataset.test_features(),
                                      dataset.test_labels());
        }
        out.best_accuracy = std::max(out.best_accuracy, accuracy);
        if (spider) {
            const auto span = log.scope(SpanName::kEndEpoch);
            (void)spider->end_epoch(accuracy);
        }
        if (wal && (epoch + 1) % config.wal_compact_every_epochs == 0) {
            const auto span = log.scope(SpanName::kWalCompact);
            cache::RestoreImage image;
            if (spider) image = spider->cache().dump_residency();
            image.ssd = ssd.dump_residency();
            wal->compact(image);
        }
        const auto span = log.scope(SpanName::kSsdFlush);
        ssd.flush();
    }

    out.avg_hit_ratio = hit_ratio_sum / static_cast<double>(config.epochs);
    if (spider) {
        out.upserts_applied = spider->scorer().applied_updates();
        out.upserts_skipped = spider->scorer().skipped_updates();
        out.dist_comps = spider->index().distance_computations();
        out.index_bytes = spider->index().memory_bytes();
        out.index_nodes = spider->index().size();
    }
    out.ssd = ssd.block_stats();
    out.remote_fetches = remote.total_fetches();
    out.wall_s = now_s() - t0;
    return out;
}

/// A scratch directory for one repetition, removed when it goes away.
class ScratchDir {
public:
    ScratchDir(const std::string& parent, std::size_t rep)
        : path_{fs::path{parent} / ("rep-" + std::to_string(rep))} {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ignored;
        fs::remove_all(path_, ignored);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    [[nodiscard]] const fs::path& path() const { return path_; }

private:
    fs::path path_;
};

void run_untraced(const RunOptions& options, Report& report) {
    const double deadline = now_s() + options.seconds;
    std::vector<double> setup_s;
    std::array<std::vector<double>, kDatasets> rate;
    std::array<std::optional<metrics::RunResult>, kDatasets> first;
    std::size_t rep = 0;
    std::size_t runs = 0;
    while (rep < kDatasets || now_s() < deadline) {
        const std::size_t k = rep % kDatasets;
        ++runs;
        const ScratchDir dir{options.tmp_dir, rep++};
        const sim::SimConfig config = make_config(options, k, dir.path());
        const double t0 = now_s();
        sim::TrainingSimulator simulator{config};
        const double t1 = now_s();
        const metrics::RunResult result = simulator.run();
        const double t2 = now_s();

        setup_s.push_back(t1 - t0);
        rate[k].push_back(static_cast<double>(samples_of(result)) / (t2 - t1));

        check_epoch_accounting(result, report);
        if (config.ssd.enabled) verify_ssd_store(config, simulator.dataset(), report);
        if (!first[k]) {
            first[k] = result;
        } else {
            report.check(result.average_hit_ratio() == first[k]->average_hit_ratio() &&
                             result.best_accuracy == first[k]->best_accuracy &&
                             result.total_time == first[k]->total_time,
                         "repeated run() with the same seed gave other results");
        }
    }
    while (setup_s.size() < kMinSetups) {
        const ScratchDir dir{options.tmp_dir, rep};
        const double t0 = now_s();
        const sim::TrainingSimulator simulator{
            make_config(options, rep++ % kDatasets, dir.path())};
        setup_s.push_back(now_s() - t0);
    }

    // Each figure is the mean over the datasets of that dataset's value.
    const auto mean = [](const auto& per_dataset) {
        double sum = 0.0;
        for (std::size_t k = 0; k < kDatasets; ++k) sum += per_dataset(k);
        return sum / static_cast<double>(kDatasets);
    };
    const double samples_per_s =
        mean([&](std::size_t k) { return median(rate[k]); });
    report.metric("samples_per_s", samples_per_s, "1/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("hit_ratio",
                  mean([&](std::size_t k) { return first[k]->average_hit_ratio(); }),
                  "ratio");
    report.info("train_samples_per_s", samples_per_s, "1/s");
    report.info("top1_acc", mean([&](std::size_t k) { return first[k]->best_accuracy; }),
                "ratio");
    report.info("sim_train_min",
                mean([&](std::size_t k) { return first[k]->total_minutes(); }), "min");
    report.info("steps_per_run", static_cast<double>(steps_of(*first[0], kBatch)),
                "count");
    report.info("runs", static_cast<double>(runs), "count");
    report.info("setups", static_cast<double>(setup_s.size()), "count");
}

void run_traced(const RunOptions& options, Report& report) {
    const double deadline = now_s() + options.seconds;
    zero_layer_metrics(report);

    // The simulator's own result for this seed, for the drift comparison.
    std::size_t rep = 0;
    metrics::RunResult e2e;
    std::optional<sim::TrainingSimulator> simulator;
    sim::SimConfig config;
    {
        const ScratchDir dir{options.tmp_dir, rep++};
        config = make_config(options, 0, dir.path());
        simulator.emplace(config);
        e2e = simulator->run();
        check_epoch_accounting(e2e, report);
    }
    const data::SyntheticDataset& dataset = simulator->dataset();

    // Alternate untraced and traced replays until the time is up.
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    SpanTotals totals;
    std::vector<Span> last_spans;
    ReplayResult last;
    while (traced_s.empty() || now_s() < deadline) {
        for (const bool traced : {false, true}) {
            const ScratchDir dir{options.tmp_dir, rep++};
            const sim::SimConfig replay_config = make_config(options, 0, dir.path());
            SpanLog log{traced};
            const ReplayResult r = replay(replay_config, dataset, log, report);
            report.check(r.avg_hit_ratio == e2e.average_hit_ratio() &&
                             r.steps == steps_of(e2e, config.batch_size) &&
                             r.best_accuracy == e2e.best_accuracy,
                         "replay drifted from run()");
            (traced ? traced_s : untraced_s).push_back(r.wall_s);
            if (traced) {
                totals.add(log.spans());
                last_spans = log.spans();
                last = r;
            }
        }
    }

    const auto span_samples = [&totals](SpanName name) -> const std::vector<double>& {
        return totals.of(name).durations_ns;
    };
    const auto median_of = [&](SpanName name, double ns_per_unit) {
        return median(span_samples(name)) / ns_per_unit;
    };
    if (last.index_nodes > 0) {
        layer_distribution(report, "core.observe_batch", "us",
                           span_samples(SpanName::kObserveBatch), 1e3);
        layer_metric(report, "core.upserts_applied",
                     static_cast<double>(last.upserts_applied));
        layer_metric(report, "core.upserts_skipped",
                     static_cast<double>(last.upserts_skipped));
        layer_metric(report, "core.end_epoch_us", median_of(SpanName::kEndEpoch, 1e3));
        layer_metric(report, "ann.dist_comps_per_sample",
                     static_cast<double>(last.dist_comps) /
                         static_cast<double>(last.observed_samples));
        layer_metric(report, "ann.index_mb",
                     static_cast<double>(last.index_bytes) / (1024.0 * 1024.0));
        layer_metric(report, "ann.nodes", static_cast<double>(last.index_nodes));
    }
    layer_metric(report, "core.observe_share", totals.step_share("core"));
    layer_metric(report, "core.epoch_order_ms", median_of(SpanName::kEpochOrder, 1e6));
    layer_metric(report, "nn.forward_us", median_of(SpanName::kForward, 1e3));
    layer_metric(report, "nn.backward_us", median_of(SpanName::kBackward, 1e3));
    layer_metric(report, "nn.evaluate_ms", median_of(SpanName::kEvaluate, 1e6));
    layer_metric(report, "nn.step_share", totals.step_share("nn"));
    layer_metric(report, "data.gather_us", median_of(SpanName::kGather, 1e3));
    layer_metric(report, "data.step_share", totals.step_share("data"));
    layer_distribution(report, "cache.access", "ns",
                       span_samples(SpanName::kCacheAccess), 1.0);
    layer_metric(report, "cache.importance_hits",
                 static_cast<double>(last.importance_hits));
    layer_metric(report, "cache.homophily_hits",
                 static_cast<double>(last.homophily_hits));
    layer_metric(report, "cache.misses", static_cast<double>(last.misses));
    layer_metric(report, "cache.step_share", totals.step_share("cache"));
    layer_metric(report, "storage.remote_fetches",
                 static_cast<double>(last.remote_fetches));
    layer_metric(report, "storage.step_share", totals.step_share("storage"));
    if (config.ssd.enabled) {
        layer_distribution(report, "storage.ssd_fetch", "us",
                           span_samples(SpanName::kSsdFetch), 1e3);
        layer_metric(report, "storage.ssd_insert_us",
                     median_of(SpanName::kSsdInsert, 1e3));
        layer_metric(report, "storage.ssd_flush_ms",
                     median_of(SpanName::kSsdFlush, 1e6));
        layer_metric(report, "storage.disk_reads_per_ssd_read",
                     last.ssd.reads == 0
                         ? 0.0
                         : static_cast<double>(last.ssd.disk_reads) /
                               static_cast<double>(last.ssd.reads));
        layer_metric(report, "storage.segments_sealed",
                     static_cast<double>(last.ssd.segments_sealed));
        layer_metric(report, "storage.segments_collected",
                     static_cast<double>(last.ssd.segments_collected));
    }
    if (!config.wal_dir.empty()) {
        layer_metric(report, "storage.wal_append_us",
                     median_of(SpanName::kWalAppend, 1e3));
        layer_metric(report, "storage.wal_compact_ms",
                     median_of(SpanName::kWalCompact, 1e6));
    }
    layer_metric(report, "sim.load_min",
                 stage_minutes(e2e, &metrics::EpochMetrics::load_time));
    layer_metric(report, "sim.compute_min",
                 stage_minutes(e2e, &metrics::EpochMetrics::compute_time));
    layer_metric(report, "sim.is_min",
                 stage_minutes(e2e, &metrics::EpochMetrics::is_time));
    layer_metric(report, "replay.hit_ratio", last.avg_hit_ratio);
    layer_metric(report, "replay.steps", static_cast<double>(last.steps));
    layer_metric(report, "replay.top1_acc", last.best_accuracy);
    layer_metric(report, "e2e.hit_ratio", e2e.average_hit_ratio());
    layer_metric(report, "e2e.steps",
                 static_cast<double>(steps_of(e2e, config.batch_size)));
    layer_metric(report, "trace.overhead_frac",
                 median(traced_s) / median(untraced_s) - 1.0);
    report.info("replays_traced", static_cast<double>(traced_s.size()), "count");
    report.info("e2e_top1_acc", e2e.best_accuracy, "ratio");
    report.info("e2e_sim_train_min", e2e.total_minutes(), "min");

    if (!options.spans_path.empty()) {
        const std::vector<Span>* logs[] = {&last_spans};
        if (!write_tsv(options.spans_path, logs)) {
            std::cerr << "perfbench: cannot write " << options.spans_path << "\n";
        }
    }
}

}  // namespace

void run_training(const RunOptions& options, Report& report) {
    if (options.trace) {
        run_traced(options, report);
    } else {
        run_untraced(options, report);
    }
}

}  // namespace perfbench

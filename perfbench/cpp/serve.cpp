// serve_loader: two closed-loop loaders drive an in-process SpiderServer
// over loopback, each as its own tenant. The server's miss path is wired
// like tools/spider_server_main.cpp: a block-mode SSD tier in front of the
// remote store, plus a payload-read hook for memory hits. Both hooks are
// owned by the benchmark, which is where the traced run times them.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/presets.hpp"
#include "layers.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "storage/remote_store.hpp"
#include "storage/ssd_tier.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace spider;

// Workload parameters. Everything else is a library default.
constexpr std::uint8_t kTenants = 2;
constexpr std::uint32_t kIdsPerTenant = 9000;
/// Each tenant's cache slice, as a fraction of its id range: most but not
/// all of the range fits, so a minority of GETs miss to the SSD hook.
constexpr double kSliceCoverage = 0.8;
constexpr std::size_t kBatch = 128;
constexpr std::size_t kNeighbors = 8;
constexpr std::size_t kCacheShards = 4;
/// Below the ~2.5 MB the 18000 framed payloads take, so misses keep
/// writing back, sealing segments and collecting them, while the live set
/// still spans sealed segments that reads must fetch from disk.
constexpr std::size_t kSsdCapacityMb = 2;
constexpr std::size_t kSsdSegmentMb = 1;
constexpr std::size_t kSetups = 5;
/// Spans written per log: the serve run records millions of hook spans.
constexpr std::size_t kMaxSpansWritten = 200'000;

std::vector<std::uint8_t> sample_bytes(const data::SyntheticDataset& dataset,
                                       std::uint32_t id) {
    const std::vector<float>& f = dataset.sample(id).features;
    const auto* p = reinterpret_cast<const std::uint8_t*>(f.data());
    return {p, p + f.size() * sizeof(float)};
}

/// What one loader saw. Merged across loaders after they join.
struct LoaderTally {
    std::uint64_t steps = 0;
    std::uint64_t gets = 0;
    std::uint64_t verified = 0;  // GET_DATA replies whose bytes matched
    std::uint64_t memory_hits = 0;
    std::uint64_t ok_ops = 0;
    std::uint64_t failed_ops = 0;
    std::uint64_t writes = 0;  // PUT_NEIGHBORS + TENANT_SET_RATIO sent
    std::vector<double> step_ns;
    std::string error;  // transport failure that ended the loader

    void merge(const LoaderTally& o) {
        steps += o.steps;
        gets += o.gets;
        verified += o.verified;
        memory_hits += o.memory_hits;
        ok_ops += o.ok_ops;
        failed_ops += o.failed_ops;
        writes += o.writes;
        step_ns.insert(step_ns.end(), o.step_ns.begin(), o.step_ns.end());
        if (error.empty()) error = o.error;
    }
};

/// One tenant's loader: walks a seeded permutation of its id range in
/// batches, scoring from a seeded stream, over its own connection.
class Loader {
public:
    Loader(const data::SyntheticDataset& dataset, std::uint16_t port,
           std::uint8_t tenant, std::uint64_t seed)
        : dataset_{dataset},
          tenant_{tenant},
          rng_{seed},
          first_id_{tenant * kIdsPerTenant},
          order_(kIdsPerTenant),
          scores_(kIdsPerTenant) {
        client_.connect("127.0.0.1", port);
        std::iota(order_.begin(), order_.end(), first_id_);
        for (double& s : scores_) s = rng_.uniform();
        rng_.shuffle(order_);
    }

    /// One step: a pipelined flush of GET_DATA for the next batch, then a
    /// flush of PUT_SCORE for those ids plus one PUT_NEIGHBORS offer. At
    /// the end of the id range the tenant's imp-ratio is reset and a new
    /// epoch order drawn.
    void step(SpanLog& log, LoaderTally& tally) {
        const std::size_t count = std::min(kBatch, order_.size() - pos_);
        const std::span<const std::uint32_t> ids{order_.data() + pos_, count};
        log.begin_step();
        const auto t0 = std::chrono::steady_clock::now();
        {
            const auto step_span = log.scope(SpanName::kStep);
            std::vector<server::Response> replies;
            {
                const auto span = log.scope(SpanName::kGetFlush);
                for (const std::uint32_t id : ids) {
                    client_.queue_get_data(tenant_, id, score_of(id));
                }
                replies = client_.flush();
            }
            for (const server::Response& r : replies) verify_get(r, tally);
            tally.gets += count;

            {
                const auto span = log.scope(SpanName::kPutFlush);
                for (const std::uint32_t id : ids) {
                    score_of(id) = rng_.uniform();
                    client_.queue_put_score(tenant_, id, score_of(id));
                }
                std::vector<std::uint32_t> neighbors(kNeighbors);
                for (std::size_t k = 0; k < kNeighbors; ++k) {
                    neighbors[k] = first_id_ + static_cast<std::uint32_t>(
                                                   (ids[0] - first_id_ + 1 + k) %
                                                   kIdsPerTenant);
                }
                client_.queue_put_neighbors(tenant_, ids[0], neighbors);
                replies = client_.flush();
            }
            tally.writes += 1;
            for (const server::Response& r : replies) count_status(r, tally);
        }
        log.end_step();
        tally.step_ns.push_back(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
        ++tally.steps;

        pos_ += count;
        if (pos_ == order_.size()) {
            pos_ = 0;
            rng_.shuffle(order_);
            const double applied =
                client_.tenant_set_ratio(tenant_, rng_.uniform(0.80, 0.95));
            count_ok(applied > 0.0, tally);
            tally.writes += 1;
        }
    }

    void run_epoch(SpanLog& log, LoaderTally& tally) {
        do {
            step(log, tally);
        } while (pos_ != 0);
    }

private:
    double& score_of(std::uint32_t id) { return scores_[id - first_id_]; }

    static void count_ok(bool ok, LoaderTally& tally) {
        ++(ok ? tally.ok_ops : tally.failed_ops);
    }
    static void count_status(const server::Response& r, LoaderTally& tally) {
        count_ok(r.status == server::Status::kOk, tally);
    }
    void verify_get(const server::Response& r, LoaderTally& tally) const {
        std::optional<server::GetDataReply> reply;
        if (r.status == server::Status::kOk && r.op == server::Op::kGetData) {
            reply = server::decode_get_data_reply(r.payload);
        }
        const bool ok = reply.has_value() &&
                        reply->base.served_id < dataset_.size() &&
                        reply->payload ==
                            sample_bytes(dataset_, reply->base.served_id);
        count_ok(ok, tally);
        if (!ok) return;
        ++tally.verified;
        if (reply->base.kind == server::ServeKind::kImportanceHit ||
            reply->base.kind == server::ServeKind::kHomophilyHit) {
            ++tally.memory_hits;
        }
    }

    const data::SyntheticDataset& dataset_;
    std::uint8_t tenant_;
    util::Rng rng_;
    std::uint32_t first_id_;
    std::vector<std::uint32_t> order_;
    std::vector<double> scores_;
    std::size_t pos_ = 0;
    server::Client client_;
};

/// Dataset, SSD tier, remote store, running server and one loader per
/// tenant. Constructing it is the workload's set-up, warm-up pass included.
class Rig {
public:
    Rig(const RunOptions& options, const fs::path& dir)
        : dataset_{make_spec(options.seed)},
          remote_{dataset_, simulator_remote()},
          ssd_{storage::SsdTierConfig{
              .enabled = true,
              .path = (dir / "ssd").string(),
              .capacity_mb = kSsdCapacityMb,
              .segment_mb = kSsdSegmentMb,
          }},
          server_{make_server_config(),
                  [this](std::uint8_t, std::uint32_t id, storage::SimDuration) {
                      return miss_fetch(id);
                  },
                  [this](std::uint8_t, std::uint32_t id) {
                      SpanLog& log = *hook_log_.load(std::memory_order_acquire);
                      const auto span = log.scope(SpanName::kPayloadRead);
                      return sample_bytes(dataset_, id);
                  }} {
        ssd_.clear_store();
        server_.start();
        for (std::uint8_t t = 0; t < kTenants; ++t) {
            loaders_.push_back(std::make_unique<Loader>(
                dataset_, server_.port(), t, derive_seed(options.seed, 10 + t)));
        }
        SpanLog untraced{false};
        for (auto& loader : loaders_) loader->run_epoch(untraced, warmup_);
    }
    ~Rig() {
        loaders_.clear();
        server_.stop();
    }
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;

    [[nodiscard]] const LoaderTally& warmup() const { return warmup_; }
    [[nodiscard]] server::SpiderServer& server() { return server_; }
    [[nodiscard]] storage::SsdTier& ssd() { return ssd_; }
    [[nodiscard]] storage::RemoteStore& remote() { return remote_; }

    /// Runs every loader on its own thread until `deadline`; loader i
    /// records spans into logs[i] and the server hooks into `hook_log`.
    LoaderTally drive(double deadline, std::vector<SpanLog>& logs,
                      SpanLog& hook_log) {
        hook_log_.store(&hook_log, std::memory_order_release);
        std::vector<LoaderTally> tallies(loaders_.size());
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < loaders_.size(); ++i) {
            threads.emplace_back([&, i] {
                try {
                    while (now_s() < deadline) loaders_[i]->step(logs[i], tallies[i]);
                } catch (const std::exception& e) {
                    tallies[i].error = e.what();
                }
            });
        }
        for (std::thread& t : threads) t.join();
        hook_log_.store(&idle_log_, std::memory_order_release);
        LoaderTally total;
        for (const LoaderTally& t : tallies) total.merge(t);
        return total;
    }

private:
    static data::DatasetSpec make_spec(std::uint64_t seed) {
        data::DatasetSpec spec = data::cifar10_like(0.04, derive_seed(seed, 1));
        spec.num_samples = std::size_t{kTenants} * kIdsPerTenant;
        return spec;
    }
    /// The simulator's default remote-store model, as the server tool uses.
    static storage::RemoteStoreConfig simulator_remote() {
        const sim::SimConfig defaults;
        return defaults.remote;
    }
    static server::ServerConfig make_server_config() {
        server::ServerConfig config;
        config.cache_items = static_cast<std::size_t>(
            kSliceCoverage * kTenants * kIdsPerTenant);
        // Explicit: the auto setting depends on the host's core count.
        config.cache_shards = kCacheShards;
        config.tenants.assign(kTenants,
                              server::TenantSpec{.capacity_pct = 100.0 / kTenants});
        return config;
    }

    server::MissOutcome miss_fetch(std::uint32_t id) {
        SpanLog& log = *hook_log_.load(std::memory_order_acquire);
        const auto span = log.scope(SpanName::kMissFetch);
        std::optional<std::vector<std::uint8_t>> stored;
        {
            const auto fetch = log.scope(SpanName::kSsdFetch);
            stored = ssd_.fetch_payload(id);
        }
        if (stored) {
            return {.ok = true, .from_ssd = true, .payload = std::move(*stored)};
        }
        {
            const auto fetch = log.scope(SpanName::kRemoteFetch);
            (void)remote_.fetch(id);
        }
        std::vector<std::uint8_t> payload = sample_bytes(dataset_, id);
        {
            const auto insert = log.scope(SpanName::kSsdInsert);
            ssd_.insert(id, payload);
        }
        return {.ok = true, .from_ssd = false, .payload = std::move(payload)};
    }

    data::SyntheticDataset dataset_;
    storage::RemoteStore remote_;
    storage::SsdTier ssd_;
    SpanLog idle_log_{false};
    std::atomic<SpanLog*> hook_log_{&idle_log_};
    LoaderTally warmup_;
    server::SpiderServer server_;
    std::vector<std::unique_ptr<Loader>> loaders_;
};

void add_tally_checks(const LoaderTally& tally, Report& report) {
    report.check(tally.error.empty(), "a loader lost its connection");
    if (!tally.error.empty()) {
        std::cerr << "perfbench: loader error: " << tally.error << "\n";
    }
    report.check(true, "", tally.ok_ops);
    report.check(false, "a reply failed verification or had a non-OK status",
                 tally.failed_ops);
}

double hit_ratio_of(const LoaderTally& t) {
    return t.gets == 0 ? 0.0
                       : static_cast<double>(t.memory_hits) /
                             static_cast<double>(t.gets);
}

std::vector<SpanLog> make_logs(bool enabled) {
    std::vector<SpanLog> logs;
    for (std::uint8_t t = 0; t < kTenants; ++t) logs.emplace_back(enabled);
    return logs;
}

void run_untraced(const RunOptions& options, Report& report) {
    // Set up several times and keep the last rig for the measurement.
    std::vector<double> setup_s;
    std::unique_ptr<Rig> rig;
    for (std::size_t i = 0; i < kSetups; ++i) {
        rig.reset();
        const fs::path dir = fs::path{options.tmp_dir} / ("rig-" + std::to_string(i));
        fs::remove_all(dir);
        const double t0 = now_s();
        rig = std::make_unique<Rig>(options, dir);
        setup_s.push_back(now_s() - t0);
        add_tally_checks(rig->warmup(), report);
    }

    std::vector<SpanLog> logs = make_logs(false);
    SpanLog hook_log{false};
    const double t0 = now_s();
    const LoaderTally tally = rig->drive(t0 + options.seconds, logs, hook_log);
    const double wall = now_s() - t0;
    rig.reset();
    add_tally_checks(tally, report);

    const double samples_per_s = static_cast<double>(tally.verified) / wall;
    const Distribution step = summarize(tally.step_ns);
    report.metric("samples_per_s", samples_per_s, "1/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("hit_ratio", hit_ratio_of(tally), "ratio");
    report.info("serve_samples_per_s", samples_per_s, "1/s");
    report.info("serve_step_p50_us", step.p50 / 1e3, "us");
    report.info("serve_step_p99_us", percentile(tally.step_ns, {99, 100}) / 1e3, "us");
    report.info("serve_step_tail_us", step.tail / 1e3, "us");
    report.info("serve_step_tail_pct", step.tail_pct, "pct");
    report.info("serve_steps", static_cast<double>(step.n), "count");
    report.info("serve_batch", static_cast<double>(kBatch), "count");
}

void run_traced(const RunOptions& options, Report& report) {
    zero_layer_metrics(report);
    const fs::path dir = fs::path{options.tmp_dir} / "rig";
    fs::remove_all(dir);
    Rig rig{options, dir};
    add_tally_checks(rig.warmup(), report);

    // Untraced half first, then the traced half on the same warm rig.
    const double half = options.seconds / 2.0;
    std::vector<SpanLog> quiet = make_logs(false);
    SpanLog quiet_hooks{false};
    const LoaderTally untraced = rig.drive(now_s() + half, quiet, quiet_hooks);
    add_tally_checks(untraced, report);

    const server::StatsReply stats0 = rig.server().stats();
    std::vector<server::TenantStatReply> tenants0;
    for (std::uint8_t t = 0; t < kTenants; ++t) {
        tenants0.push_back(rig.server().tenants().stats(t));
    }
    const storage::SsdBlockStoreStats ssd0 = rig.ssd().block_stats();
    const std::uint64_t remote0 = rig.remote().total_fetches();

    std::vector<SpanLog> logs = make_logs(true);
    SpanLog hook_log{true};
    const LoaderTally traced = rig.drive(now_s() + half, logs, hook_log);
    add_tally_checks(traced, report);

    const server::StatsReply stats1 = rig.server().stats();
    std::uint64_t importance_hits = 0;
    std::uint64_t homophily_hits = 0;
    std::uint64_t misses = 0;
    for (std::uint8_t t = 0; t < kTenants; ++t) {
        const server::TenantStatReply now = rig.server().tenants().stats(t);
        importance_hits += now.hits_importance - tenants0[t].hits_importance;
        homophily_hits += now.hits_homophily - tenants0[t].hits_homophily;
        misses += now.misses - tenants0[t].misses;
    }
    const storage::SsdBlockStoreStats ssd1 = rig.ssd().block_stats();

    SpanTotals totals;
    for (const SpanLog& log : logs) totals.add(log.spans());
    totals.add(hook_log.spans());
    const auto samples = [&totals](SpanName name) -> const std::vector<double>& {
        return totals.of(name).durations_ns;
    };

    layer_distribution(report, "server.miss_fetch", "us",
                       samples(SpanName::kMissFetch), 1e3);
    layer_metric(report, "server.payload_read_us",
                 median(samples(SpanName::kPayloadRead)) / 1e3);
    const std::uint64_t batches = stats1.batches - stats0.batches;
    layer_metric(report, "server.frames_per_batch",
                 batches == 0 ? 0.0
                              : static_cast<double>(stats1.frames - stats0.frames) /
                                    static_cast<double>(batches));
    layer_metric(report, "server.bytes_out_per_sample",
                 traced.gets == 0
                     ? 0.0
                     : static_cast<double>(stats1.bytes_out - stats0.bytes_out) /
                           static_cast<double>(traced.gets));
    layer_metric(report, "server.write_ops",
                 static_cast<double>(stats1.put_scores - stats0.put_scores +
                                     traced.writes));
    layer_metric(report, "server.errors",
                 static_cast<double>(stats1.errors - stats0.errors));
    layer_distribution(report, "server.step", "us", samples(SpanName::kStep), 1e3);
    layer_metric(report, "server.step_share", totals.step_share("server"));
    layer_metric(report, "cache.importance_hits", static_cast<double>(importance_hits));
    layer_metric(report, "cache.homophily_hits", static_cast<double>(homophily_hits));
    layer_metric(report, "cache.misses", static_cast<double>(misses));
    layer_distribution(report, "storage.ssd_fetch", "us",
                       samples(SpanName::kSsdFetch), 1e3);
    layer_metric(report, "storage.ssd_insert_us",
                 median(samples(SpanName::kSsdInsert)) / 1e3);
    const std::uint64_t ssd_reads = ssd1.reads - ssd0.reads;
    layer_metric(report, "storage.disk_reads_per_ssd_read",
                 ssd_reads == 0 ? 0.0
                                : static_cast<double>(ssd1.disk_reads - ssd0.disk_reads) /
                                      static_cast<double>(ssd_reads));
    layer_metric(report, "storage.segments_sealed",
                 static_cast<double>(ssd1.segments_sealed - ssd0.segments_sealed));
    layer_metric(report, "storage.segments_collected",
                 static_cast<double>(ssd1.segments_collected -
                                     ssd0.segments_collected));
    layer_metric(report, "storage.remote_fetches",
                 static_cast<double>(rig.remote().total_fetches() - remote0));
    layer_metric(report, "replay.hit_ratio", hit_ratio_of(traced));
    layer_metric(report, "replay.steps", static_cast<double>(traced.steps));
    layer_metric(report, "e2e.hit_ratio", hit_ratio_of(untraced));
    layer_metric(report, "e2e.steps", static_cast<double>(untraced.steps));
    layer_metric(report, "trace.overhead_frac",
                 median(traced.step_ns) / median(untraced.step_ns) - 1.0);

    if (!options.spans_path.empty()) {
        std::vector<const std::vector<Span>*> all;
        for (const SpanLog& log : logs) all.push_back(&log.spans());
        all.push_back(&hook_log.spans());
        if (!write_tsv(options.spans_path, all, kMaxSpansWritten)) {
            std::cerr << "perfbench: cannot write " << options.spans_path << "\n";
        }
    }
}

}  // namespace

void run_serving(const RunOptions& options, Report& report) {
    if (options.trace) {
        run_traced(options, report);
    } else {
        run_untraced(options, report);
    }
}

}  // namespace perfbench

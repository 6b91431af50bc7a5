#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/prefetch.hpp"
#include "nn/optimizer.hpp"
#include "sim/net_frontend.hpp"
#include "storage/wal.hpp"
#include "util/thread_pool.hpp"

namespace spider::sim {

namespace {

[[nodiscard]] std::size_t ceil_div(std::size_t a, std::size_t b) {
    return b == 0 ? 0 : (a + b - 1) / b;
}

/// Fault-draw contexts (DESIGN.md §9): demand and speculative fetches draw
/// independent weather, so a demand retry after a failed prefetch is not
/// condemned to replay the same failure.
constexpr std::uint32_t kDemandContext = 1;
constexpr std::uint32_t kPrefetchContext = 2;
/// `served` slot of a sample the degradation ladder dropped (skip rung).
constexpr std::uint32_t kSkippedSentinel = 0xFFFFFFFFU;

/// What run() fixes once from the config, and the simulator parts that
/// outlive a simulated kill: the dataset, the remote store, and `vnow`,
/// the virtual-"now" mirror for background prefetch threads (they cannot
/// read the clock mid-step, and batch granularity is all the fault
/// model's outage windows need).
struct Context {
    const SimConfig& config;
    const data::SyntheticDataset& dataset;
    storage::RemoteStore& remote;
    const std::atomic<std::int64_t>& vnow;
    std::size_t gpus = std::max<std::size_t>(config.num_gpus, 1);
    /// Loader-worker threads after resolving the 0 = per-GPU default.
    std::size_t workers =
        config.worker_threads != 0 ? config.worker_threads : gpus;
    std::size_t cache_items = static_cast<std::size_t>(std::llround(
        config.cache_fraction * static_cast<double>(dataset.size())));
    /// Cache shards: an explicit value wins; auto (0) is one shard (the
    /// legacy sequence) for a serial loader and sharded under threads.
    std::size_t cache_shards =
        config.cache_shards == 0 && workers <= 1 ? 1 : config.cache_shards;
    std::size_t global_batch = config.batch_size * gpus;
    /// Per-GPU loader workers share the storage server's fetch-slot cap.
    std::size_t fetch_slots =
        std::min(config.remote.parallelism * gpus,
                 std::max<std::size_t>(config.storage_parallel_cap, 1));
    double per_fetch_ms = storage::to_ms(remote.fetch_cost(0));
};

struct StrategyParts {
    std::unique_ptr<core::Sampler> sampler;
    std::unique_ptr<CacheFrontend> frontend;
    std::unique_ptr<core::SpiderCache> spider;  // kSpider* only
};

StrategyParts build_strategy(const Context& ctx) {
    const SimConfig& config = ctx.config;
    StrategyParts parts;
    util::Rng rng{config.seed ^ 0xC0FFEEULL};
    const std::size_t n = ctx.dataset.size();
    const std::size_t cache_items = ctx.cache_items;

    switch (config.strategy) {
        case StrategyKind::kBaselineLru:
            parts.sampler = std::make_unique<core::UniformSampler>(n, rng);
            parts.frontend = std::make_unique<PolicyFrontend>(
                std::make_unique<cache::LruCache>(cache_items));
            break;
        case StrategyKind::kLfu:
            parts.sampler = std::make_unique<core::UniformSampler>(n, rng);
            parts.frontend = std::make_unique<PolicyFrontend>(
                std::make_unique<cache::LfuCache>(cache_items));
            break;
        case StrategyKind::kCoorDL:
            parts.sampler = std::make_unique<core::UniformSampler>(n, rng);
            parts.frontend = std::make_unique<PolicyFrontend>(
                std::make_unique<cache::StaticCache>(cache_items));
            break;
        case StrategyKind::kShade: {
            auto sampler = std::make_unique<core::ShadeSampler>(n, rng);
            parts.frontend =
                std::make_unique<ShadeFrontend>(cache_items, *sampler);
            parts.sampler = std::move(sampler);
            break;
        }
        case StrategyKind::kICacheImp:
        case StrategyKind::kICache: {
            auto sampler = std::make_unique<core::ComputeBoundSampler>(
                n, rng, config.icache_keep_fraction);
            ICacheFrontend::Options options = config.icache;
            options.l_section_enabled =
                config.strategy == StrategyKind::kICache;
            parts.frontend = std::make_unique<ICacheFrontend>(
                cache_items, *sampler, options, rng.split());
            parts.sampler = std::move(sampler);
            break;
        }
        case StrategyKind::kSpiderImp:
        case StrategyKind::kSpider: {
            core::SpiderCacheConfig sc;
            sc.dataset_size = n;
            sc.label_of = [&dataset = ctx.dataset](std::uint32_t id) {
                return dataset.label_of(id);
            };
            sc.cache_items = cache_items;
            sc.embedding_dim = config.model.sim_embedding_dim;
            sc.scorer = config.scorer;
            sc.elastic = config.elastic;
            sc.total_epochs = config.epochs;
            sc.sampler_uniform_floor = config.spider_sampler_floor;
            sc.elastic_enabled = config.elastic_enabled;
            sc.homophily_enabled = config.strategy == StrategyKind::kSpider;
            sc.seed = config.seed;
            sc.cache_shards = ctx.cache_shards;
            sc.cache_lockfree_reads = config.cache_lockfree_reads;
            sc.cache_policies = config.policy;
            parts.spider = std::make_unique<core::SpiderCache>(std::move(sc));
            parts.frontend = std::make_unique<SpiderFrontend>(*parts.spider);
            // Sampling order comes from the facade, not a standalone
            // sampler; a uniform sampler slot stays unused but keeps the
            // loop uniform for observe_losses (no-op).
            parts.sampler = std::make_unique<core::UniformSampler>(n, rng);
            break;
        }
    }
    if (config.served_port != 0) {
        // Served-cache mode: residency decisions move behind the wire.
        // The strategy's sampler (and, for kSpider*, its scoring/elastic
        // machinery) keeps running locally; only the front-end is swapped.
        parts.frontend = std::make_unique<NetworkFrontend>(
            config.served_host, config.served_port, config.served_tenant);
    }
    return parts;
}

/// Per-slice tallies of the data-loading stage. Workers fill private
/// instances; the driver thread merges them in slice order after the
/// join, so epoch counters need no atomics and the serial loader (one
/// slice) is bit-identical to the pre-threading code. Cluster sources
/// and resilience events are not tallied here: the ledger diffs the
/// layers' own monotone counters per epoch.
struct SliceCounts {
    std::uint64_t hits = 0;
    std::uint64_t importance_hits = 0;
    std::uint64_t homophily_hits = 0;
    std::uint64_t substitutions = 0;
    std::uint64_t ssd_hits = 0;
    std::uint64_t remote_misses = 0;  // served misses past the SSD tier
    std::uint64_t prefetch_hidden = 0;

    // Outcomes of remote legs, the breaker's batch input.
    std::uint64_t fetch_ok = 0;
    std::uint64_t fetch_failed = 0;  // exhausted or breaker-rejected
    // Degradation ladder (zero on a healthy backend).
    std::uint64_t fault_substitutions = 0;
    std::uint64_t fault_skips = 0;
    std::vector<std::uint32_t> skipped;  // ids to offer the refill queue
    /// Direct remote fetches: envelope cost beyond the nominal fetch.
    double fault_extra_ms = 0.0;
    /// Cluster mode: summed virtual service time of the slice's misses.
    double cluster_ms = 0.0;

    struct TraceEvent {
        std::uint32_t requested;
        std::uint32_t served;
        trace::Outcome outcome;
    };
    std::vector<TraceEvent> trace;

    SliceCounts& operator+=(const SliceCounts& s) {
        hits += s.hits;
        importance_hits += s.importance_hits;
        homophily_hits += s.homophily_hits;
        substitutions += s.substitutions;
        ssd_hits += s.ssd_hits;
        remote_misses += s.remote_misses;
        prefetch_hidden += s.prefetch_hidden;
        fetch_ok += s.fetch_ok;
        fetch_failed += s.fetch_failed;
        fault_substitutions += s.fault_substitutions;
        fault_skips += s.fault_skips;
        skipped.insert(skipped.end(), s.skipped.begin(), s.skipped.end());
        fault_extra_ms += s.fault_extra_ms;
        cluster_ms += s.cluster_ms;
        trace.insert(trace.end(), s.trace.begin(), s.trace.end());
        return *this;
    }

    /// Adds the batch to the epoch's counters and its trace events to
    /// `access_trace`.
    void credit(metrics::EpochMetrics& em,
                trace::AccessTrace& access_trace) const {
        em.hits += hits;
        em.importance_hits += importance_hits;
        em.homophily_hits += homophily_hits;
        em.substitutions += substitutions;
        em.ssd_hits += ssd_hits;
        em.misses += ssd_hits + remote_misses + fetch_failed;
        em.prefetch_hidden += prefetch_hidden;
        em.fault_substitutions += fault_substitutions;
        em.fault_skips += fault_skips;
        for (const TraceEvent& t : trace) {
            access_trace.record(static_cast<std::uint32_t>(em.epoch),
                                t.requested, t.served, t.outcome);
        }
    }
};

/// One global batch of the data-loading stage (Algorithm 1 lines 4-12).
/// Loader slices read `requested` and write disjoint ranges of `served`.
struct Batch {
    std::span<const std::uint32_t> requested;
    std::vector<std::uint32_t> served;
    /// All fault draws of the batch see this virtual time: outage
    /// membership is then a pure function of the batch index, not of
    /// worker scheduling.
    storage::SimDuration now;
};

/// Everything a simulated kill -9 destroys (DESIGN.md §12.2): the
/// strategy, the SSD tier handle, the resilient client and its counter
/// baselines, the tuner's ghosts, the cooperative cache and the
/// lookahead. run() builds one at start-up; at restart_epoch it destroys
/// it and builds the next through the same constructor, which then
/// restores the pre-kill residency from the WAL when there is one.
struct Process {
    const Context& ctx;
    StrategyParts parts;
    /// SsdTier serializes internally, so threaded loader workers share it
    /// directly (the cache server's miss path relies on the same contract).
    storage::SsdTier ssd;
    /// Every remote fetch — demand, speculative, and the cluster's remote
    /// legs — goes through this one client. With fault injection off its
    /// healthy path is one RemoteStore::fetch at the nominal cost.
    storage::ResilientStore resilient;
    storage::ResilientStore::Counters fault_prev{};
    std::uint64_t timeouts_prev = 0;
    std::unique_ptr<cache::ShadowTuner> tuner;
    std::unique_ptr<cluster::CooperativeCache> coop;
    cluster::ClusterCounters cluster_prev{};
    /// Items the restore image put back (the restart epoch's metric).
    std::uint64_t restored = 0;

    // Per-epoch state, reset by begin_epoch: the active cluster nodes, and
    // the degradation ladder (DESIGN.md §9) — the epoch's surrogate budget
    // and the refill queue, which appends a failed id to the epoch order
    // at most once, so every sample gets a second chance but the epoch is
    // guaranteed to terminate.
    std::vector<std::uint32_t> cluster_nodes;
    std::uint64_t substitute_budget = 0;
    std::atomic<std::uint64_t> substitutes_used{0};
    std::unordered_set<std::uint32_t> refilled;

    // Lookahead (DESIGN.md §8.3), declared last so it is destroyed first:
    // the background fetches drain before the frontend they probe and the
    // client they fetch through go away. `prefetched` is the id set chosen
    // (and already issued) ahead of demand. With a threaded loader the
    // fetches run on a real background pool with dedup and a bounded
    // window; with a serial one the issue is immediate and only the
    // virtual overlap accounting matters. The adaptive depth controller
    // replaces the static prefetch_window with a per-step window sized
    // from the EWMA of the observed storage-idle span.
    std::unordered_set<std::uint32_t> prefetched;
    std::optional<core::AdaptivePrefetchController> adaptive;
    std::unique_ptr<core::PrefetchPipeline> prefetcher;

    // The prefetch pipeline's callbacks hold `this`.
    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    Process(const Context& context, storage::CacheWal* wal, bool restart)
        : ctx{context},
          parts{build_strategy(context)},
          ssd{context.config.ssd},
          resilient{context.remote, context.config.faults,
                    context.config.resilience} {
        const SimConfig& config = ctx.config;
        // Residency WAL (DESIGN.md §12): cache layers stream admissions /
        // evictions; epoch-end compaction folds a consistent snapshot. The
        // listener holds the affected shard/tier lock while appending — the
        // WAL's internal mutex is always innermost and never calls back out.
        // After a kill the caches restore their pre-kill residency from the
        // snapshot and the surviving log. The SSD tier listens first, so ids
        // its restore drops (smaller tier, payload lost in the crash) stream
        // kSsdEvict and the WAL converges to actual residency instead of
        // drifting; the cache listens once its own restore is done.
        if (wal) {
            const cache::ResidencyListener listener =
                [wal](const cache::ResidencyRecord& record) {
                    wal->append(record);
                };
            ssd.set_residency_listener(listener);
            if (restart) {
                const cache::RestoreImage image = wal->load();
                if (parts.spider) {
                    restored += parts.spider->restore_from_wal(image);
                }
                restored += ssd.restore(image.ssd);
            }
            if (parts.spider) {
                parts.spider->cache().set_residency_listener(listener);
            }
        }
        if (!restart) {
            // Fresh run: wipe the segment files and the WAL a previous
            // process left, so a mid-run restore only ever sees this run's
            // records.
            ssd.clear_store();
            if (wal) wal->compact({});
        }
        // Online shadow tuner (DESIGN.md §13): ghost caches replay the served
        // stream on the driver thread after the loader slices merge, so the
        // replay order — and therefore every switch decision — is
        // deterministic regardless of worker count. After a restart the panel
        // shadows the restored incumbent and its streaks start over.
        if (config.tuner.enabled && parts.spider) {
            tuner = std::make_unique<cache::ShadowTuner>(
                config.tuner, ctx.cache_items, parts.spider->imp_ratio(),
                parts.spider->cache().section_policies().importance);
        }
        // Multi-node cooperative cache (DESIGN.md §11). Engaged only when
        // nodes > 1, so single-node runs keep the legacy path bit for bit.
        if (config.cluster.nodes > 1) {
            cluster::ClusterConfig cc = config.cluster;
            cc.node_cache_items = std::max<std::size_t>(
                static_cast<std::size_t>(
                    std::llround(config.cluster_node_cache_fraction *
                                 static_cast<double>(ctx.dataset.size()))),
                1);
            cc.local_hit_ms = config.hit_cost_ms;
            cc.cache_shards = ctx.cache_shards;
            cc.cache_lockfree_reads = config.cache_lockfree_reads;
            cc.seed = config.seed ^ 0xC10C5EEDULL;
            coop = std::make_unique<cluster::CooperativeCache>(ctx.dataset,
                                                               resilient, cc);
        }
        if (!config.prefetch_enabled) return;
        if (config.prefetch_adaptive) {
            adaptive.emplace(core::AdaptivePrefetchController::Config{
                .min_window = 1,
                .max_window =
                    std::max<std::size_t>(config.prefetch_window_max, 1),
                .alpha = 0.25,
            });
        }
        if (ctx.workers > 1) {
            prefetcher = std::make_unique<core::PrefetchPipeline>(
                [this](std::uint32_t id) { return parts.frontend->probe(id); },
                [this](std::uint32_t id) {
                    const storage::SimDuration now{
                        ctx.vnow.load(std::memory_order_relaxed)};
                    // Propagates through consume()/drain() (the pipeline's
                    // exception contract); the demand path falls back to its
                    // own resilient fetch.
                    if (!resilient.fetch(id, now, kPrefetchContext).ok) {
                        throw std::runtime_error{"speculative fetch failed"};
                    }
                },
                // The adaptive controller resizes the window before the
                // first issue; its clamp is the only bound that matters then.
                core::PrefetchPipeline::Config{
                    .threads = std::max<std::size_t>(ctx.workers / 2, 1),
                    .max_in_flight = adaptive ? config.prefetch_window_max
                                              : config.prefetch_window});
        }
    }

    std::vector<std::uint32_t> begin_epoch(std::size_t epoch) {
        const SimConfig& config = ctx.config;
        // Per-epoch contention counters (slot_waits / peak_in_flight) start
        // fresh so CSV rows don't accumulate across epochs — the SSD tier's
        // hit/miss counters follow the same discipline.
        ctx.remote.reset_contention_counters();
        ssd.reset_counters();
        if (coop) {
            // Membership events land at epoch boundaries, workers quiesced;
            // the ring moves only the affected keys and stranded entries age
            // out of their old shard.
            if (epoch != 0 && epoch == config.cluster_join_epoch) {
                (void)coop->add_node();
            }
            if (epoch != 0 && epoch == config.cluster_leave_epoch &&
                coop->num_nodes() > 1) {
                coop->remove_node(coop->active_nodes().back());
            }
            cluster_nodes = coop->active_nodes();
            coop->begin_epoch();  // fresh communication budget
        }
        // A new epoch draws a new order. Static lookahead never outlives its
        // step; adaptive lookahead carries over, because it was drawn from a
        // peek of this very order.
        std::vector<std::uint32_t> order =
            parts.spider ? parts.spider->epoch_order()
                         : parts.sampler->epoch_order(epoch);
        substitute_budget = static_cast<std::uint64_t>(
            config.resilience.max_substitute_fraction *
            static_cast<double>(order.size()));
        substitutes_used.store(0, std::memory_order_relaxed);
        refilled.clear();
        return order;
    }

    /// The data-loading stage of one batch: one slice per loader worker,
    /// merged in slice order (a serial loader is the one-slice case and
    /// runs on this thread), then the batch-end bookkeeping on the driver
    /// thread.
    SliceCounts load(Batch& batch, std::vector<std::uint32_t>& order,
                     util::ThreadPool* pool) {
        const std::size_t count = batch.requested.size();
        const std::size_t chunk = ceil_div(count, ctx.workers);
        std::vector<SliceCounts> slices(ceil_div(count, chunk));
        std::vector<std::future<void>> futures;
        for (std::size_t s = 0; s < slices.size(); ++s) {
            const auto job = [this, &batch, &slices, s, chunk, count] {
                load_slice(batch, s * chunk, std::min(s * chunk + chunk, count),
                           slices[s]);
            };
            if (pool) {
                futures.push_back(pool->submit(job));
            } else {
                job();
            }
        }
        for (auto& f : futures) f.get();
        SliceCounts total;
        for (const SliceCounts& s : slices) total += s;
        if (tuner) {
            // Ghost replay of the merged batch: the requested ids with the
            // scores the live lookups saw (observe_batch has not refreshed
            // them yet). Driver thread, post-merge — the replay order is the
            // sampler's, not the workers'.
            const std::span<const double> live_scores = parts.spider->scores();
            for (const std::uint32_t id : batch.requested) {
                tuner->on_access(
                    id, id < live_scores.size() ? live_scores[id] : 0.0);
            }
        }
        // Refill queue: each failed id is re-queued once, at the epoch's tail
        // (appending may reallocate `order`, so `batch.requested` is not read
        // past this point; the epoch loop re-reads order.size()). Then advance
        // the breaker/hedge state machines with the batch totals (driver
        // thread, so the outcome is independent of worker interleaving).
        for (const std::uint32_t id : total.skipped) {
            if (refilled.insert(id).second) order.push_back(id);
        }
        resilient.on_batch_end(total.fetch_failed, total.fetch_ok, batch.now);
        std::erase(batch.served, kSkippedSentinel);
        if (coop) coop->on_batch_end(batch.now);
        return total;
    }

    void load_slice(Batch& batch, std::size_t lo, std::size_t hi,
                    SliceCounts& out) {
        for (std::size_t i = lo; i < hi; ++i) {
            const Access access = parts.frontend->access(batch.requested[i]);
            batch.served[i] = access.served_id;
            if (ctx.config.record_trace) {
                trace::Outcome outcome = trace::Outcome::kMiss;
                if (access.substitution) {
                    outcome = trace::Outcome::kSubstitution;
                } else if (access.homophily_hit) {
                    outcome = trace::Outcome::kHomophilyHit;
                } else if (access.importance_hit) {
                    outcome = trace::Outcome::kImportanceHit;
                } else if (access.hit) {
                    outcome = trace::Outcome::kPolicyHit;
                }
                out.trace.push_back(
                    {batch.requested[i], access.served_id, outcome});
            }
            if (!access.hit) {
                serve_miss(batch, i, out);
                continue;
            }
            ++out.hits;
            if (access.importance_hit) ++out.importance_hits;
            if (access.homophily_hit) ++out.homophily_hits;
            if (access.substitution) ++out.substitutions;
        }
    }

    /// Miss service, one path in every mode: the SSD tier, then the prefetched
    /// copy, then the cluster (peer or remote) or remote storage through the
    /// resilient client; a failed fetch takes the degradation ladder, a
    /// fetched one is written back to the SSD tier.
    void serve_miss(Batch& batch, std::size_t i, SliceCounts& out) {
        const std::uint32_t id = batch.requested[i];
        if (ssd.fetch(id)) {
            ++out.ssd_hits;
            return;
        }
        bool hidden = false;
        if (prefetched.contains(id)) {
            // The prefetcher already issued (and accounted) this fetch during
            // the previous compute window. A speculative fetch that failed
            // rethrows from consume(); fall through to a demand fetch.
            try {
                hidden = prefetcher == nullptr || prefetcher->consume(id);
            } catch (...) {
            }
        }
        bool ok = true;
        bool write_back = true;
        if (coop) {
            // The requester node is the batch-slice position mapped onto the
            // active node list (contiguous per-node micro-slices, like the
            // per-GPU split).
            const std::uint32_t node = cluster_nodes
                [i * cluster_nodes.size() / batch.requested.size()];
            const cluster::ServiceResult sr =
                coop->service(node, id, batch.now);
            out.cluster_ms += storage::to_ms(sr.cost);
            ok = sr.ok;
            // A local hit never left this node: nothing to write.
            write_back = sr.source != cluster::ServeSource::kLocalHit;
            if (ok && (sr.source == cluster::ServeSource::kRemote ||
                       sr.source == cluster::ServeSource::kPeerMiss)) {
                ++out.fetch_ok;
            }
        } else if (hidden) {
            ++out.prefetch_hidden;
        } else {
            const storage::FetchResult r =
                resilient.fetch(id, batch.now, kDemandContext);
            ok = r.ok;
            if (ok) ++out.fetch_ok;
            // Surplus: past the nominal cost, or all of a failure.
            out.fault_extra_ms +=
                storage::to_ms(r.cost) - (ok ? ctx.per_fetch_ms : 0.0);
        }
        if (!ok) {
            // Degradation ladder: a resident surrogate within the epoch
            // budget, else drop the slot and let the refill queue retry the id
            // later in the epoch.
            ++out.fetch_failed;
            std::optional<std::uint32_t> surrogate;
            if (substitutes_used.load(std::memory_order_relaxed) <
                substitute_budget) {
                surrogate = parts.frontend->substitute(id);
            }
            if (surrogate &&
                substitutes_used.fetch_add(1, std::memory_order_relaxed) <
                    substitute_budget) {
                batch.served[i] = *surrogate;
                ++out.fault_substitutions;
            } else {
                batch.served[i] = kSkippedSentinel;
                ++out.fault_skips;
                out.skipped.push_back(id);
            }
            return;
        }
        ++out.remote_misses;
        if (!write_back) return;
        // Block mode persists real payloads: the sample's feature bytes
        // stand in for the decoded training record (byte-identical round
        // trips are what the restart test checks). The residency model
        // ignores them.
        const std::vector<float>& features = ctx.dataset.sample(id).features;
        ssd.insert(id, {reinterpret_cast<const std::uint8_t*>(features.data()),
                        features.size() * sizeof(float)});
    }

    /// Virtual time of one step, added to the epoch's stage totals, and
    /// the storage-idle span the lookahead may fill. Load stage: every
    /// remote miss pays a fetch round, minus the rounds the prefetcher
    /// already absorbed into the previous batch's compute window. Compute
    /// stages: per-GPU micro-batch compute runs in parallel; loads already
    /// share fetch slots. Skipped slots train nothing, so they scale no
    /// compute.
    std::pair<storage::SimDuration, double> step_time(
        const SliceCounts& loaded, std::size_t served, double stage2_scale,
        metrics::EpochMetrics& em) const {
        const SimConfig& config = ctx.config;
        const nn::ModelProfile& model = config.model;
        const bool graph_is = uses_graph_is(config.strategy);
        const auto slots = static_cast<double>(ctx.fetch_slots);
        const std::size_t miss_rounds =
            ceil_div(loaded.remote_misses, ctx.fetch_slots);
        const std::size_t demand_rounds = ceil_div(
            loaded.remote_misses - loaded.prefetch_hidden, ctx.fetch_slots);
        const double hidden_ms =
            ctx.per_fetch_ms * static_cast<double>(miss_rounds - demand_rounds);
        // Fault surplus (spikes, timeouts, backoff, failed envelopes)
        // shares the same fetch slots as the nominal rounds. An
        // aggressively cheap hedge win can undercut the nominal cost; the
        // floor keeps the surplus a penalty, never a credit.
        const double fault_ms = std::max(0.0, loaded.fault_extra_ms) / slots;
        // In cluster mode the misses carry heterogeneous per-sample service
        // costs (local hit / peer / remote), so the rounds model is
        // replaced by the summed service time spread across the same fetch
        // channels.
        const double miss_service_ms =
            coop ? loaded.cluster_ms / slots
                 : ctx.per_fetch_ms * static_cast<double>(miss_rounds);
        const double load_ms =
            miss_service_ms +
            storage::to_ms(
                ssd.batch_read_cost(loaded.ssd_hits, ctx.fetch_slots)) +
            config.hit_cost_ms * static_cast<double>(loaded.hits) / slots +
            fault_ms;
        const double batch_fraction = static_cast<double>(served) /
                                      static_cast<double>(ctx.global_batch);
        const double stage1_ms = load_ms + model.forward_ms * batch_fraction;
        const double stage2_ms =
            model.backward_ms * stage2_scale * batch_fraction;
        const double is_ms = model.is_ms * batch_fraction;
        storage::SimDuration step = core::pipelined_batch_time(
            stage1_ms, stage2_ms, is_ms, model.long_is_pipeline, graph_is,
            config.pipeline_is, hidden_ms);
        if (ctx.gpus > 1) {
            step += storage::from_ms(config.allreduce_ms * 2.0 *
                                     static_cast<double>(ctx.gpus - 1) /
                                     static_cast<double>(ctx.gpus));
        }
        em.fault_time += storage::from_ms(fault_ms);
        em.load_time += storage::from_ms(load_ms - hidden_ms);
        em.compute_time +=
            storage::from_ms(model.forward_ms * batch_fraction + stage2_ms);
        if (graph_is) em.is_time += storage::from_ms(is_ms);
        em.epoch_time += step;
        // Storage sits idle for everything past the (reduced) load phase:
        // forward, backward, IS, all-reduce.
        return {step,
                std::max(0.0, storage::to_ms(step) - (load_ms - hidden_ms))};
    }

    void observe(std::span<const std::uint32_t> served,
                 const nn::ForwardResult& fwd) {
        parts.sampler->observe_losses(served, fwd.per_sample_loss);
        parts.frontend->post_batch(served);
        if (!parts.spider) return;
        parts.spider->observe_batch(served, fwd.embeddings);
        if (!tuner) return;
        // Mirror the write path into the ghosts: the batch's score refreshes
        // and its homophily offer.
        const std::span<const double> fresh = parts.spider->scores();
        for (const std::uint32_t id : served) {
            if (id < fresh.size()) tuner->on_score_update(id, fresh[id]);
        }
        const core::SpiderCache::HomophilyOffer& offer =
            parts.spider->last_homophily_offer();
        if (!offer.neighbors.empty()) {
            tuner->on_homophily_offer(offer.key, offer.neighbors);
        }
    }

    /// Lookahead (DESIGN.md §8.3): the sampler's order for the rest of the
    /// epoch is known, so predict upcoming misses and issue them into this
    /// step's storage-idle window. The static path looks exactly one batch
    /// ahead under a fixed window; the adaptive path sizes the window from the
    /// observed idle span, looks as deep as the window allows, and at the
    /// epoch's final step spills leftover budget into the next epoch's head.
    /// Returns the window the step ran under.
    std::size_t lookahead(const std::vector<std::uint32_t>& order,
                          std::size_t start, std::size_t count,
                          std::size_t epoch, double idle_ms,
                          storage::SimDuration now,
                          metrics::EpochMetrics& em) {
        const std::size_t next_start = start + ctx.global_batch;
        const std::size_t remaining =
            next_start < order.size() ? order.size() - next_start : 0;
        const std::size_t idle_fetches =
            core::idle_fetch_budget(idle_ms, ctx.per_fetch_ms, ctx.fetch_slots);
        std::size_t window = ctx.config.prefetch_window;
        std::size_t budget = 0;
        std::span<const std::uint32_t> candidates;
        if (!adaptive) {
            // Static path: next batch only, fresh set each step.
            prefetched.clear();
            if (remaining > 0) {
                candidates = {order.data() + next_start,
                              std::min(ctx.global_batch, remaining)};
                budget = std::min({idle_fetches, window, candidates.size()});
                // Unconsumed completions are wasted lookahead; drop them so
                // they stop occupying the window.
                if (prefetcher) prefetcher->discard_ready();
            }
        } else {
            // This batch's lookahead slots are spent — consumed, resident by
            // demand time, or skipped — so release them. (Index into `order`:
            // the refill queue may have reallocated it.)
            for (std::size_t i = start; i < start + count; ++i) {
                if (prefetched.erase(order[i]) > 0 && prefetcher) {
                    prefetcher->discard(order[i]);
                }
            }
            window =
                adaptive->update(idle_ms, ctx.per_fetch_ms, ctx.fetch_slots);
            if (prefetcher) prefetcher->set_max_in_flight(window);
            // Budget = what this step's idle span can absorb, capped by the
            // window, minus lookahead already in flight from earlier steps.
            budget = std::min(window, idle_fetches);
            budget =
                budget > prefetched.size() ? budget - prefetched.size() : 0;
            if (remaining > 0) {
                candidates = {order.data() + next_start, remaining};
            } else if (epoch + 1 < ctx.config.epochs) {
                // Epoch-crossing: at the final step every score update of this
                // epoch is already in, so the next epoch's order can be drawn
                // now — the sampler caches the peek and replays the identical
                // draw — and leftover budget warms its head instead of
                // expiring into cold-start misses.
                candidates = parts.spider
                                 ? parts.spider->peek_next_epoch_order()
                                 : parts.sampler->peek_epoch_order(epoch + 1);
            }
        }
        std::vector<std::uint32_t> issue;
        for (const std::uint32_t id : candidates) {
            if (issue.size() >= budget) break;
            if (prefetched.contains(id)) continue;
            if (parts.frontend->probe(id)) continue;
            prefetched.insert(id);
            issue.push_back(id);
        }
        if (issue.empty()) return window;
        if (prefetcher) {
            prefetcher->prefetch(issue);
        } else {
            // Speculative fetches ride the idle window; a failed one simply
            // drops out of the lookahead set and the demand path retries the
            // id with fresh fault draws.
            for (const std::uint32_t id : issue) {
                if (!resilient.fetch(id, now, kPrefetchContext).ok) {
                    prefetched.erase(id);
                }
            }
        }
        em.prefetch_issued += issue.size();
        return window;
    }

    /// The epoch-end ledger: the strategy's end-of-epoch step and the tuner's
    /// verdict, the per-epoch deltas of the monotone fault and cluster
    /// counters, this epoch's slot contention and SSD misses, then the stable
    /// point — WAL compaction and the SSD flush. Expects em.test_accuracy.
    void end_epoch(metrics::EpochMetrics& em, std::size_t epoch,
                   storage::CacheWal* wal) {
        const SimConfig& config = ctx.config;
        if (parts.spider) {
            em.score_std = parts.spider->score_std();
            em.imp_ratio = parts.spider->end_epoch(em.test_accuracy);
            if (tuner) {
                // Tuner verdict after the elastic repartition: when the
                // hysteresis rule fires, the winner overrides the elastic
                // proposal for this boundary. (With elastic_enabled the
                // manager re-proposes next epoch; disable it to keep tuned
                // ratios sticky — the bench's configuration.)
                const cache::ShadowTuner::Verdict verdict =
                    tuner->end_epoch(em.hit_ratio());
                em.shadow_hits = verdict.shadow_hits;
                em.tuner_switches = verdict.switched ? 1 : 0;
                if (verdict.switched && config.tuner.auto_apply) {
                    cache::TwoLayerSemanticCache& live = parts.spider->cache();
                    live.set_imp_ratio(verdict.winner->imp_ratio);
                    cache::SectionPolicies next = live.section_policies();
                    next.importance = verdict.winner->importance;
                    live.set_section_policies(next);
                    em.imp_ratio = live.imp_ratio();
                }
            }
        } else {
            // Loss-based strategies still have a score view; record its
            // spread for Fig. 6(c)-style comparisons.
            util::RunningStats stats;
            for (std::uint32_t id = 0; id < ctx.dataset.size(); ++id) {
                stats.add(parts.sampler->importance_of(id));
            }
            em.score_std = stats.stddev();
        }

        // Fault-tolerance counters: per-epoch deltas of the resilient client's
        // monotone totals (timeouts live in the fault model).
        const storage::ResilientStore::Counters faults = resilient.counters();
        em.fetch_retries = faults.retries - fault_prev.retries;
        em.fetch_hedges = faults.hedges - fault_prev.hedges;
        em.breaker_trips = faults.breaker_trips - fault_prev.breaker_trips;
        const std::uint64_t timeouts =
            resilient.fault_model().injected_timeouts();
        em.fetch_timeouts = timeouts - timeouts_prev;
        timeouts_prev = timeouts;
        if (coop) {
            // Cluster misses carry their remote envelope's surplus inside the
            // service cost; report that slice of the load stage, spread over
            // the fetch slots like the direct path's.
            em.fault_time = (faults.fault_time - fault_prev.fault_time) /
                            static_cast<std::int64_t>(ctx.fetch_slots);
            // Sources and peer-path events, from the cluster's own counters.
            // remote_fetches includes the remote leg of every peer miss.
            const cluster::ClusterCounters c = coop->counters();
            em.cluster_local_hits = c.local_hits - cluster_prev.local_hits;
            em.peer_hits = c.peer_hits - cluster_prev.peer_hits;
            em.peer_misses = c.peer_misses - cluster_prev.peer_misses;
            em.cluster_remote =
                c.remote_fetches - cluster_prev.remote_fetches - em.peer_misses;
            em.peer_hedges = c.hedges - cluster_prev.hedges;
            em.peer_hedge_wins = c.hedge_wins - cluster_prev.hedge_wins;
            em.peer_throttled = c.throttled - cluster_prev.throttled;
            em.peer_failovers = c.failovers - cluster_prev.failovers;
            cluster_prev = c;
        }
        fault_prev = faults;

        // Fetch-slot contention of this epoch alone (reset at its start).
        em.slot_waits = ctx.remote.slot_waits();
        em.peak_in_flight = ctx.remote.peak_in_flight();
        // The tier's own per-epoch miss counter (reset alongside the
        // contention counters) — uniform across enabled/disabled and
        // residency/block modes: ssd_hits + ssd_misses == consults.
        em.ssd_misses = ssd.misses();

        // Epoch-end WAL compaction (a stable point): folds the live residency
        // into the snapshot, which also reconciles the elastic-repartition
        // evictions the listeners do not stream.
        if (wal && (epoch + 1) % config.wal_compact_every_epochs == 0) {
            cache::RestoreImage image;
            if (parts.spider) image = parts.spider->cache().dump_residency();
            image.ssd = ssd.dump_residency();
            wal->compact(image);
        }
        // Block mode: the epoch boundary is the fsync point for segment files
        // — a mid-epoch kill -9 loses only the tail past here.
        ssd.flush();
    }
};

}  // namespace

TrainingSimulator::TrainingSimulator(SimConfig config)
    : config_{std::move(config)},
      dataset_{config_.dataset},
      remote_{dataset_, config_.remote} {}

void validate(const SimConfig& config) {
    // The mode pairs that do not compose; DESIGN.md §12.2 gives reasons.
    const bool clustered = config.cluster.nodes > 1;
    const bool served = config.served_port != 0;
    const bool restart = config.restart_epoch > 0;
    const std::pair<bool, const char*> rules[] = {
        {clustered && served,
         "cluster.nodes > 1 is mutually exclusive with served_port (the "
         "cluster tier sits behind a local cache frontend)"},
        {clustered && config.prefetch_enabled,
         "cluster.nodes > 1 is mutually exclusive with prefetch.enabled (the "
         "lookahead fetches from remote storage, not through the cluster)"},
        {restart && served,
         "restart.epoch is mutually exclusive with served_port (the kill "
         "cannot reach the server's residency)"},
        {restart && clustered,
         "restart.epoch is mutually exclusive with cluster.nodes > 1 (the WAL "
         "logs the local cache, not the node shards)"},
        {config.wal_compact_every_epochs == 0,
         "wal.compact_every_epochs must be >= 1"},
        {config.tuner.enabled && !uses_graph_is(config.strategy),
         "tuner.enabled requires a kSpider* strategy (the ghosts shadow the "
         "two-layer cache)"},
        {config.tuner.enabled && served,
         "tuner.enabled is mutually exclusive with served_port (residency "
         "lives server-side there)"},
    };
    for (const auto& [violated, message] : rules) {
        if (violated) {
            throw std::invalid_argument{std::string{"SimConfig: "} + message};
        }
    }
    cache::validate(config.tuner);  // no-op while disabled
}

metrics::RunResult TrainingSimulator::run() {
    // Before the strategy is built, so a served-mode conflict is reported
    // as such, not as a failed connect to an absent server.
    validate(config_);
    std::atomic<std::int64_t> vnow{0};
    const Context ctx{config_, dataset_, remote_, vnow};
    nn::MlpClassifier model{nn::MlpConfig{
        .input_dim = dataset_.feature_dim(),
        .hidden_dims = config_.model.sim_hidden_dims,
        .num_classes = dataset_.num_classes(),
        .sgd = config_.sgd,
        .seed = config_.seed ^ 0x11DDULL,
    }};
    util::Rng aug_rng{config_.seed ^ 0xA067ULL};
    storage::VirtualClock clock;
    metrics::RunResult result;
    result.strategy = to_string(config_.strategy);
    result.model = config_.model.name;
    result.dataset = dataset_.spec().name;

    std::unique_ptr<storage::CacheWal> wal;
    if (!config_.wal_dir.empty()) {
        wal = std::make_unique<storage::CacheWal>(storage::WalConfig{
            .enabled = true,
            .dir = config_.wal_dir,
            .sync_every_append = config_.wal_sync_every_append,
        });
    }
    auto process = std::make_unique<Process>(ctx, wal.get(), /*restart=*/false);

    // Real loader workers (Fig. 17 on actual threads), only when requested;
    // the serial loader takes no locks beyond the frontends' own.
    std::unique_ptr<util::ThreadPool> loader_pool;
    if (ctx.workers > 1) {
        loader_pool = std::make_unique<util::ThreadPool>(ctx.workers);
        remote_.set_fetch_slot_cap(ctx.fetch_slots);
    }

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        model.set_learning_rate(nn::cosine_lr(config_.sgd.learning_rate,
                                              config_.lr_min, epoch,
                                              config_.epochs));
        metrics::EpochMetrics em;
        em.epoch = epoch;
        // Simulated kill -9 + restart (DESIGN.md §12): the process dies
        // between epochs, and with it the WAL's and the SSD segments'
        // unsynced tails; the model is assumed checkpointed. The next
        // process starts up like the first, but from what the WAL and the
        // segment files kept.
        if (epoch != 0 && epoch == config_.restart_epoch) {
            if (wal) wal->drop_unflushed();
            process->ssd.drop_unflushed();
            process.reset();
            process =
                std::make_unique<Process>(ctx, wal.get(), /*restart=*/true);
            em.restored_items = process->restored;
        }
        std::vector<std::uint32_t> order = process->begin_epoch(epoch);
        double loss_sum = 0.0;
        std::size_t loss_batches = 0;
        double window_sum = 0.0;
        std::size_t window_steps = 0;

        for (std::size_t start = 0; start < order.size();
             start += ctx.global_batch) {
            const std::size_t count =
                std::min(ctx.global_batch, order.size() - start);
            Batch batch{.requested = {order.data() + start, count},
                        .served = std::vector<std::uint32_t>(count),
                        .now = clock.now()};
            const SliceCounts loaded =
                process->load(batch, order, loader_pool.get());
            loaded.credit(em, result.access_trace);
            em.accesses += count;
            // The epoch's first global batch is its cold start: any remote
            // miss there that the prefetcher did not hide was paid on the
            // demand path — the number epoch-crossing prefetch drives down.
            if (start == 0) {
                em.cold_start_misses +=
                    loaded.remote_misses - loaded.prefetch_hidden;
            }

            // ---- Forward and backward (real) over the served samples,
            // with training-time augmentation (crop/flip stand-in) and the
            // selective-backprop mask of compute-bound IS. A batch can end
            // up empty when every slot was skipped by the degradation
            // ladder (total outage, no surrogates): the load cost is still
            // paid but there is nothing to train on.
            const std::vector<std::uint32_t>& served = batch.served;
            double stage2_scale = 1.0;
            if (!served.empty()) {
                const tensor::Matrix features =
                    dataset_.gather_features_augmented(served, aug_rng);
                const std::vector<std::uint32_t> labels =
                    dataset_.gather_labels(served);
                const nn::ForwardResult fwd = model.forward(features, labels);
                loss_sum += fwd.mean_loss;
                ++loss_batches;
                const std::vector<std::uint8_t> mask =
                    process->parts.sampler->train_mask(served,
                                                       fwd.per_sample_loss);
                if (!mask.empty()) {
                    const auto trained = static_cast<double>(
                        std::count(mask.begin(), mask.end(), std::uint8_t{1}));
                    stage2_scale = trained / static_cast<double>(mask.size());
                }
                model.backward_and_step(labels, mask);
                process->observe(served, fwd);
            }

            const auto [step, idle_ms] =
                process->step_time(loaded, served.size(), stage2_scale, em);
            clock.advance(step);
            vnow.store(clock.now().count(), std::memory_order_relaxed);
            if (config_.prefetch_enabled) {
                window_sum += static_cast<double>(process->lookahead(
                    order, start, count, epoch, idle_ms, clock.now(), em));
                ++window_steps;
            }
        }

        // ---- Epoch bookkeeping (real accuracy on the clean test split).
        em.prefetch_window_avg =
            window_steps == 0
                ? 0.0
                : window_sum / static_cast<double>(window_steps);
        em.train_loss =
            loss_batches == 0 ? 0.0
                              : loss_sum / static_cast<double>(loss_batches);
        em.test_accuracy =
            model.evaluate(dataset_.test_features(), dataset_.test_labels());
        process->end_epoch(em, epoch, wal.get());
        result.epochs.push_back(em);
        result.best_accuracy = std::max(result.best_accuracy, em.test_accuracy);
    }

    process.reset();  // drains the background fetches first
    if (loader_pool) remote_.set_fetch_slot_cap(0);

    result.total_time = clock.now();
    result.final_accuracy =
        result.epochs.empty() ? 0.0 : result.epochs.back().test_accuracy;
    return result;
}

}  // namespace spider::sim

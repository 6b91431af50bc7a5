#pragma once

// End-to-end training simulator: the full Algorithm 1 loop over a real
// trainable model and a virtual-time storage stack. One TrainingSimulator
// run produces the per-epoch series behind every figure and the totals
// behind every table of the paper's evaluation.
//
// Real parts: sampling order, cache decisions, MLP forward/backward (loss,
// embeddings, accuracy), graph construction and scoring (HNSW), elastic
// ratio control. Modeled parts: stage durations on the virtual clock
// (remote fetch latency, per-model forward/backward/IS costs from the
// calibrated profiles).
//
// `num_gpus > 1` simulates synchronous data-parallel training: each global
// step consumes one micro-batch per GPU, the micro-batch loads contend for
// the shared remote-storage fetch slots, compute runs in parallel, and an
// all-reduce term is added per step (Fig. 17).
//
// run() is Algorithm 1's epoch loop over one process (DESIGN.md §8.2):
// the strategy, SSD tier, resilient client, tuner, cooperative cache and
// lookahead are built together at start-up, and a simulated kill -9
// destroys them and rebuilds them through the same start-up path. Each
// batch takes one path whatever the loader-thread count: a serial loader
// is the one-slice case of the threaded split.

#include <cstdint>
#include <memory>
#include <optional>

#include "cache/shadow_tuner.hpp"
#include "cluster/cooperative_cache.hpp"
#include "core/elastic.hpp"
#include "core/graph_scorer.hpp"
#include "data/dataset.hpp"
#include "metrics/metrics.hpp"
#include "nn/mlp_classifier.hpp"
#include "nn/model_profile.hpp"
#include "sim/frontend.hpp"
#include "sim/strategy.hpp"
#include "storage/remote_store.hpp"
#include "storage/resilient_store.hpp"
#include "storage/ssd_tier.hpp"

namespace spider::sim {

struct SimConfig {
    data::DatasetSpec dataset;
    nn::ModelProfile model = nn::make_profile(nn::ModelKind::kResNet18);
    StrategyKind strategy = StrategyKind::kSpider;

    /// Cache capacity as a fraction of the dataset (paper: 10-75%).
    double cache_fraction = 0.20;
    std::size_t epochs = 100;
    std::size_t batch_size = 128;
    std::size_t num_gpus = 1;

    storage::RemoteStoreConfig remote{
        .latency_per_sample = storage::from_ms(4.5),
        .bytes_per_ms = 1.25e6,
        .parallelism = 2,
    };
    /// Virtual cost of serving one sample from the in-memory cache.
    double hit_cost_ms = 0.02;
    /// Per-step gradient synchronization cost when num_gpus > 1.
    double allreduce_ms = 6.0;
    /// Remote storage serves at most this many concurrent fetches across
    /// all GPUs (the NFS-server bandwidth cap behind Fig. 17's sub-linear
    /// baseline scaling).
    std::size_t storage_parallel_cap = 6;

    /// Overlap the graph-IS stage per Fig. 12 (true in the paper; false
    /// reproduces the "serial" column of the overhead analysis).
    bool pipeline_is = true;

    /// Real loader-worker threads for the data-loading stage. 1 (default)
    /// runs the legacy serial path, bit-identical to previous releases;
    /// N > 1 splits each global batch across N OS threads that share the
    /// (sharded) cache and the capped remote fetch slots — the Fig. 17
    /// configuration on real concurrency. 0 = one worker per simulated
    /// GPU. Aggregate counters are exact under threading; the hit/miss
    /// *interleaving* (and thus per-run hit totals) may vary slightly
    /// between runs, like any concurrent cache.
    std::size_t worker_threads = 1;

    /// Lookahead prefetcher: at the end of each step, probe the sampler's
    /// next-batch ids and fetch the predicted misses during the compute
    /// window, when the storage path is idle (DESIGN.md §8.3). Never
    /// changes hit/miss/eviction decisions — admission stays on the
    /// demand path — so it is a pure latency-hiding term.
    bool prefetch_enabled = false;
    /// Bounded in-flight window of the prefetcher (max outstanding ids).
    /// Static mode only; the adaptive controller sizes its own window.
    std::size_t prefetch_window = 256;
    /// Adaptive + epoch-crossing prefetch (DESIGN.md §8.3): size the
    /// lookahead window each step from an EWMA of the observed
    /// storage-idle span instead of the static prefetch_window, let the
    /// window run past the next batch deep into the epoch's remaining
    /// order, and spill leftover tail budget into the head of the next
    /// epoch's order (peeked from the sampler — the draw the next epoch
    /// then reuses bit-identically). false (default) keeps the legacy
    /// static-window next-batch-only path untouched.
    bool prefetch_adaptive = false;
    /// Upper clamp of the adaptive window (max outstanding ids).
    std::size_t prefetch_window_max = 1024;

    /// Two-layer cache shards (kSpider strategies). 0 = auto: 1 shard when
    /// worker_threads <= 1 (exact legacy semantics), min(16, hw) shards
    /// otherwise. Any explicit value is used as-is.
    std::size_t cache_shards = 0;
    /// Serve cache lookups/probes from the seqlock residency view instead
    /// of the shard mutex (DESIGN.md §8.4). Same hit/miss sequence either
    /// way; off forces every read through the locked path.
    bool cache_lockfree_reads = true;

    /// Per-section eviction policies of the kSpider* two-layer cache
    /// ([policy] INI block, DESIGN.md §13). The defaults — semantic
    /// importance + FIFO homophily — are the paper's Algorithm 1.
    cache::SectionPolicies policy{};

    /// Online shadow-cache tuner ([tuner] INI block, DESIGN.md §13):
    /// ghost caches replay the served stream under candidate imp_ratio
    /// splits and importance policies; a sustained winner is auto-applied
    /// at the epoch boundary (overriding the elastic manager's proposal
    /// for that boundary). kSpider* strategies only; off by default.
    cache::TunerConfig tuner{};

    // SpiderCache knobs (used by kSpiderImp / kSpider).
    core::ScorerConfig scorer{};
    core::ElasticConfig elastic{};
    bool elastic_enabled = true;
    /// Uniform mixing floor of the graph-IS multinomial sampler.
    double spider_sampler_floor = 0.05;

    // iCache knobs.
    ICacheFrontend::Options icache{};
    double icache_keep_fraction = 0.6;

    // Optimizer.
    nn::SgdConfig sgd{};
    float lr_min = 0.005F;

    /// Optional local-SSD tier between the memory cache and remote
    /// storage (CoorDL-style write-back caching; off by default to match
    /// the paper's Spot-VM setting where local SSDs are unreliable).
    storage::SsdTierConfig ssd{};

    /// Crash-safe warm restart (DESIGN.md §12): when nonzero, a kill -9 +
    /// restart is simulated at the START of this 0-based epoch — the
    /// in-memory cache, SSD tier object, resilient-client state, and the
    /// prefetcher's lookahead are torn down and rebuilt (the model itself
    /// is assumed checkpointed, the standard practice). With a WAL
    /// configured the rebuilt caches restore their pre-kill residency
    /// (warm); without one the restart is stone-cold — the baseline the
    /// cold_start_misses burn-down is measured against. 0 = never.
    /// Mutually exclusive with served_port and cluster.nodes > 1.
    std::size_t restart_epoch = 0;
    /// Directory of the residency WAL + snapshot ("" = WAL disabled).
    /// kSpider* strategies log both in-memory sections; every strategy
    /// logs the SSD tier.
    std::string wal_dir;
    /// Compact the WAL into a snapshot every this many epochs (epoch-end;
    /// >= 1). Records since the last compaction ride the log tail and are
    /// lost if unsynced at the kill (see wal_sync_every_append).
    std::size_t wal_compact_every_epochs = 1;
    /// Flush the log on every append instead of only at compaction.
    bool wal_sync_every_append = false;

    /// Remote-storage fault injection (DESIGN.md §9). Disabled by default:
    /// every remote fetch still goes through the resilient client, whose
    /// healthy path is one plain fetch at the nominal cost.
    storage::FaultModelConfig faults{};
    /// Retry/hedge/breaker policy and the degraded-mode substitution bound
    /// of the resilient client (inert while no fetch fails).
    storage::ResiliencePolicy resilience{};

    /// Served-cache mode (DESIGN.md §10.4): when nonzero, the strategy's
    /// local cache front-end is replaced by a NetworkFrontend speaking
    /// the spider::server wire protocol to served_host:served_port,
    /// tenant served_tenant — the whole simulator then trains against a
    /// (typically in-process) SpiderServer, and several simulators can
    /// share one server as separate tenants. Residency/admission move
    /// server-side; sampling and the virtual cost model stay local. Run
    /// the server cache-only (no MissFetchFn) so miss costs are charged
    /// exactly once, by the simulator.
    std::uint16_t served_port = 0;
    std::string served_host = "127.0.0.1";
    std::uint8_t served_tenant = 0;

    /// Multi-node cooperative cache (DESIGN.md §11): engaged when
    /// cluster.nodes > 1. Each node owns a consistent-hash slice of the
    /// id space with its own cache shard; local frontend misses are
    /// serviced through cluster::CooperativeCache (local hit / peer
    /// fetch / remote fallback) instead of a plain remote fetch.
    /// `nodes <= 1` leaves the single-node path bit-identical (parity
    /// test). Composes with faults.enabled: the remote legs go through
    /// the resilient client. Mutually exclusive with served_port,
    /// prefetch_enabled, and restart_epoch.
    /// node_cache_items and local_hit_ms are derived at run() time from
    /// cluster_node_cache_fraction and hit_cost_ms; the seed from
    /// run.seed.
    cluster::ClusterConfig cluster{.nodes = 1};
    /// Per-node cluster-shard capacity as a fraction of the dataset.
    double cluster_node_cache_fraction = 0.10;
    /// Simulated membership events, applied at the start of the given
    /// 0-based epoch (0 = never; epoch 0 is construction): join adds a
    /// fresh node, leave removes the highest-id active node.
    std::size_t cluster_join_epoch = 0;
    std::size_t cluster_leave_epoch = 0;

    /// Record the full access trace into RunResult (offline analysis via
    /// spider::trace).
    bool record_trace = false;

    std::uint64_t seed = 1;
};

/// Throws std::invalid_argument when `config` combines modes that do not
/// compose or holds an out-of-range WAL/tuner setting. run() and
/// sim_config_from call it.
void validate(const SimConfig& config);

class TrainingSimulator {
public:
    explicit TrainingSimulator(SimConfig config);

    /// Runs the full training; returns per-epoch metrics and totals.
    [[nodiscard]] metrics::RunResult run();

    /// Access to the dataset (built in the constructor) so callers can
    /// inspect difficulty states etc.
    [[nodiscard]] const data::SyntheticDataset& dataset() const {
        return dataset_;
    }

private:
    SimConfig config_;
    data::SyntheticDataset dataset_;
    storage::RemoteStore remote_;
};

}  // namespace spider::sim

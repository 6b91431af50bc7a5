#include "sim/config_io.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <stdexcept>
#include <vector>

#include "cache/policy.hpp"
#include "cache/shadow_tuner.hpp"
#include "data/presets.hpp"
#include "storage/fault_model.hpp"

namespace spider::sim {

namespace {

std::string lower(std::string text) {
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return text;
}

const std::set<std::string>& known_keys() {
    static const std::set<std::string> keys = {
        "dataset.preset",      "dataset.scale",        "dataset.seed",
        "dataset.separation",  "dataset.imbalance",    "model.name",
        "run.strategy",        "run.epochs",           "run.batch_size",
        "run.cache_fraction",  "run.num_gpus",         "run.seed",
        "run.record_trace",    "storage.latency_ms",   "storage.parallelism",
        "storage.parallel_cap", "storage.ssd_enabled", "storage.ssd_items",
        "ssd.path",            "ssd.capacity_mb",      "ssd.segment_mb",
        "ssd.bloom_bits_per_key",
        "scorer.lambda",       "scorer.alpha",         "scorer.surrogate_alpha",
        "scorer.neighbor_k",   "scorer.min_update_distance",
        "sampler.floor",       "elastic.enabled",      "elastic.r_start",
        "elastic.r_end",       "elastic.gamma",        "optimizer.lr",
        "optimizer.momentum",  "optimizer.weight_decay",
        "faults.enabled",      "faults.seed",          "faults.transient_prob",
        "faults.spike_prob",   "faults.spike_mult",    "faults.timeout_ms",
        "faults.outage_start_ms",   "faults.outage_duration_ms",
        "faults.outage_period_ms",  "faults.brownout_factor",
        "faults.brownout_ms",
        "weather.enabled",          "weather.slot_ms",
        "weather.p_degrade",        "weather.p_recover",
        "weather.p_fail",           "weather.p_restore",
        "weather.degraded_mult",    "weather.degraded_slowdown",
        "restart.epoch",            "wal.dir",
        "wal.compact_every_epochs", "wal.sync_every_append",
        "resilience.max_attempts",
        "resilience.backoff_base_ms",  "resilience.backoff_mult",
        "resilience.backoff_max_ms",   "resilience.backoff_jitter",
        "resilience.hedge_enabled",    "resilience.hedge_delay_ms",
        "resilience.hedge_quantile",   "resilience.breaker_threshold",
        "resilience.breaker_cooldown_ms",
        "resilience.max_substitute_fraction",
        "prefetch.enabled",    "prefetch.window",      "prefetch.adaptive",
        "prefetch.window_max", "cache.lockfree_reads",
        "policy.importance",   "policy.homophily",
        "tuner.enabled",       "tuner.ratio_grid",     "tuner.policies",
        "tuner.margin",        "tuner.sustain_epochs", "tuner.auto_apply",
        "tuner.max_neighbors",
        "cluster.nodes",       "cluster.vnodes",
        "cluster.node_cache_fraction",  "cluster.peer_fetch_enabled",
        "cluster.peer_cost_ms",         "cluster.peer_bytes_per_ms",
        "cluster.hedge_enabled",        "cluster.hedge_delay_ms",
        "cluster.max_attempts",         "cluster.comm_budget_mb",
        "cluster.peer_transient_prob",  "cluster.straggler_node",
        "cluster.straggler_spike_prob", "cluster.straggler_spike_mult",
        "cluster.join_epoch",           "cluster.leave_epoch",
        // [server] keys (consumed by server::server_config_from; accepted
        // here so one INI can configure a sim and the cache service).
        "server.port",         "server.max_pipeline",  "server.cache_items",
        "server.cache_shards", "server.lockfree_reads", "server.tenants",
        "server.capacity_pct", "server.imp_ratio",      "server.imp_policy",
        "server.hom_policy",
    };
    return keys;
}

}  // namespace

StrategyKind strategy_from_string(const std::string& name) {
    const std::string n = lower(name);
    if (n == "spider" || n == "spidercache") return StrategyKind::kSpider;
    if (n == "spider-imp" || n == "spidercache-imp") {
        return StrategyKind::kSpiderImp;
    }
    if (n == "shade") return StrategyKind::kShade;
    if (n == "icache") return StrategyKind::kICache;
    if (n == "icache-imp") return StrategyKind::kICacheImp;
    if (n == "coordl") return StrategyKind::kCoorDL;
    if (n == "lfu") return StrategyKind::kLfu;
    if (n == "baseline" || n == "lru") return StrategyKind::kBaselineLru;
    throw std::invalid_argument{"unknown strategy '" + name + "'"};
}

nn::ModelKind model_from_string(const std::string& name) {
    const std::string n = lower(name);
    if (n == "resnet18") return nn::ModelKind::kResNet18;
    if (n == "resnet50") return nn::ModelKind::kResNet50;
    if (n == "alexnet") return nn::ModelKind::kAlexNet;
    if (n == "vgg16") return nn::ModelKind::kVgg16;
    if (n == "mobilenetv2") return nn::ModelKind::kMobileNetV2;
    if (n == "inceptionv3") return nn::ModelKind::kInceptionV3;
    throw std::invalid_argument{"unknown model '" + name + "'"};
}

SimConfig sim_config_from(const util::Config& config) {
    for (const auto& [key, value] : config.values()) {
        if (!known_keys().contains(key)) {
            throw std::invalid_argument{"sim_config_from: unknown key '" +
                                        key + "'"};
        }
    }

    SimConfig sim;

    const std::string preset =
        lower(config.get_string("dataset.preset", "cifar10"));
    const double scale = config.get_double("dataset.scale", 0.06);
    const auto dataset_seed =
        static_cast<std::uint64_t>(config.get_int("dataset.seed", 42));
    if (preset == "cifar10") {
        sim.dataset = data::cifar10_like(scale, dataset_seed);
    } else if (preset == "cifar100") {
        sim.dataset = data::cifar100_like(scale, dataset_seed);
    } else if (preset == "imagenet") {
        sim.dataset = data::imagenet_like(scale, dataset_seed);
    } else {
        throw std::invalid_argument{"unknown dataset preset '" + preset + "'"};
    }
    if (config.contains("dataset.separation")) {
        sim.dataset.class_separation =
            config.get_double("dataset.separation", 0.0);
    }
    if (config.contains("dataset.imbalance")) {
        sim.dataset.imbalance_factor =
            config.get_double("dataset.imbalance", 1.0);
    }

    sim.model =
        nn::make_profile(model_from_string(config.get_string("model.name",
                                                             "resnet18")));
    sim.strategy =
        strategy_from_string(config.get_string("run.strategy", "spider"));
    sim.epochs = config.get_count("run.epochs", 30);
    sim.batch_size = config.get_count("run.batch_size", 128);
    sim.cache_fraction = config.get_double("run.cache_fraction", 0.20);
    sim.num_gpus = config.get_count("run.num_gpus", 1);
    sim.seed = static_cast<std::uint64_t>(config.get_int("run.seed", 1));
    sim.record_trace = config.get_bool("run.record_trace", false);

    sim.remote.latency_per_sample =
        storage::from_ms(config.get_double("storage.latency_ms", 4.5));
    sim.remote.parallelism = config.get_count("storage.parallelism", 2);
    sim.storage_parallel_cap = config.get_count("storage.parallel_cap", 6);
    sim.ssd.enabled = config.get_bool("storage.ssd_enabled", false);
    sim.ssd.capacity_items = config.get_count("storage.ssd_items", 0);
    // [ssd] block mode (DESIGN.md §14): a path switches the tier from the
    // pure residency model to real on-disk segment files.
    sim.ssd.path = config.get_string("ssd.path", "");
    sim.ssd.capacity_mb = config.get_count("ssd.capacity_mb", 0);
    sim.ssd.segment_mb = config.get_count("ssd.segment_mb", 4);
    sim.ssd.bloom_bits_per_key =
        config.get_count("ssd.bloom_bits_per_key", 10);
    if (sim.ssd.segment_mb == 0) {
        throw std::invalid_argument{"ssd.segment_mb: must be >= 1"};
    }
    if (sim.ssd.bloom_bits_per_key > 64) {
        throw std::invalid_argument{"ssd.bloom_bits_per_key: must be <= 64"};
    }

    sim.scorer.lambda = config.get_double("scorer.lambda", sim.scorer.lambda);
    sim.scorer.alpha = config.get_double("scorer.alpha", sim.scorer.alpha);
    sim.scorer.surrogate_alpha =
        config.get_double("scorer.surrogate_alpha", sim.scorer.surrogate_alpha);
    sim.scorer.neighbor_k =
        config.get_count("scorer.neighbor_k", sim.scorer.neighbor_k);
    sim.scorer.min_update_distance = config.get_double(
        "scorer.min_update_distance", sim.scorer.min_update_distance);
    sim.spider_sampler_floor =
        config.get_double("sampler.floor", sim.spider_sampler_floor);

    sim.elastic_enabled = config.get_bool("elastic.enabled", true);
    sim.elastic.r_start = config.get_double("elastic.r_start", 0.90);
    sim.elastic.r_end = config.get_double("elastic.r_end", 0.80);
    sim.elastic.gamma = config.get_double("elastic.gamma", sim.elastic.gamma);

    sim.faults.enabled = config.get_bool("faults.enabled", false);
    sim.faults.seed = static_cast<std::uint64_t>(
        config.get_int("faults.seed",
                       static_cast<std::int64_t>(sim.faults.seed)));
    sim.faults.transient_failure_prob =
        config.get_double("faults.transient_prob", 0.0);
    sim.faults.latency_spike_prob = config.get_double("faults.spike_prob", 0.0);
    sim.faults.latency_spike_mult =
        config.get_double("faults.spike_mult", sim.faults.latency_spike_mult);
    sim.faults.timeout_ms = config.get_double("faults.timeout_ms", 0.0);
    sim.faults.outage_start_ms =
        config.get_double("faults.outage_start_ms", 0.0);
    sim.faults.outage_duration_ms =
        config.get_double("faults.outage_duration_ms", 0.0);
    sim.faults.outage_period_ms =
        config.get_double("faults.outage_period_ms", 0.0);
    sim.faults.brownout_factor =
        config.get_double("faults.brownout_factor", 1.0);
    sim.faults.brownout_duration_ms =
        config.get_double("faults.brownout_ms", 0.0);

    sim.faults.weather.enabled = config.get_bool("weather.enabled", false);
    sim.faults.weather.slot_ms =
        config.get_double("weather.slot_ms", sim.faults.weather.slot_ms);
    sim.faults.weather.p_degrade =
        config.get_double("weather.p_degrade", sim.faults.weather.p_degrade);
    sim.faults.weather.p_recover =
        config.get_double("weather.p_recover", sim.faults.weather.p_recover);
    sim.faults.weather.p_fail =
        config.get_double("weather.p_fail", sim.faults.weather.p_fail);
    sim.faults.weather.p_restore =
        config.get_double("weather.p_restore", sim.faults.weather.p_restore);
    sim.faults.weather.degraded_mult = config.get_double(
        "weather.degraded_mult", sim.faults.weather.degraded_mult);
    sim.faults.weather.degraded_slowdown = config.get_double(
        "weather.degraded_slowdown", sim.faults.weather.degraded_slowdown);
    // Reject malformed fault/weather settings at parse time, with the
    // offending key in the message, instead of at TrainingSimulator
    // construction deep inside a bench loop.
    storage::validate(sim.faults);

    sim.restart_epoch = config.get_count("restart.epoch", 0);
    sim.wal_dir = config.get_string("wal.dir", "");
    sim.wal_compact_every_epochs =
        config.get_count("wal.compact_every_epochs", 1);
    sim.wal_sync_every_append =
        config.get_bool("wal.sync_every_append", false);

    sim.resilience.max_attempts = config.get_count(
        "resilience.max_attempts", sim.resilience.max_attempts);
    sim.resilience.backoff_base_ms = config.get_double(
        "resilience.backoff_base_ms", sim.resilience.backoff_base_ms);
    sim.resilience.backoff_mult = config.get_double(
        "resilience.backoff_mult", sim.resilience.backoff_mult);
    sim.resilience.backoff_max_ms = config.get_double(
        "resilience.backoff_max_ms", sim.resilience.backoff_max_ms);
    sim.resilience.backoff_jitter = config.get_double(
        "resilience.backoff_jitter", sim.resilience.backoff_jitter);
    sim.resilience.hedge_enabled =
        config.get_bool("resilience.hedge_enabled", true);
    sim.resilience.hedge_delay_ms = config.get_double(
        "resilience.hedge_delay_ms", sim.resilience.hedge_delay_ms);
    sim.resilience.hedge_quantile = config.get_double(
        "resilience.hedge_quantile", sim.resilience.hedge_quantile);
    sim.resilience.breaker_failure_threshold =
        config.get_count("resilience.breaker_threshold",
                         sim.resilience.breaker_failure_threshold);
    sim.resilience.breaker_cooldown_ms = config.get_double(
        "resilience.breaker_cooldown_ms", sim.resilience.breaker_cooldown_ms);
    sim.resilience.max_substitute_fraction =
        config.get_double("resilience.max_substitute_fraction",
                          sim.resilience.max_substitute_fraction);

    sim.prefetch_enabled = config.get_bool("prefetch.enabled", false);
    sim.prefetch_window =
        config.get_count("prefetch.window", sim.prefetch_window);
    sim.prefetch_adaptive = config.get_bool("prefetch.adaptive", false);
    sim.prefetch_window_max =
        config.get_count("prefetch.window_max", sim.prefetch_window_max);
    sim.cache_lockfree_reads = config.get_bool("cache.lockfree_reads", true);

    // [policy] — per-section eviction policies of the two-layer cache
    // (DESIGN.md §13). Defaults are the paper's Algorithm 1.
    sim.policy.importance = cache::policy_from_string(
        config.get_string("policy.importance", "semantic"));
    sim.policy.homophily = cache::policy_from_string(
        config.get_string("policy.homophily", "fifo"));
    cache::validate(sim.policy);

    // [tuner] — online shadow-cache tuner (DESIGN.md §13).
    sim.tuner.enabled = config.get_bool("tuner.enabled", false);
    if (config.contains("tuner.ratio_grid")) {
        sim.tuner.ratio_grid = config.get_doubles("tuner.ratio_grid");
    }
    if (config.contains("tuner.policies")) {
        sim.tuner.policy_grid.clear();
        for (const std::string& name : config.get_list("tuner.policies")) {
            sim.tuner.policy_grid.push_back(cache::policy_from_string(name));
        }
    }
    sim.tuner.margin = config.get_double("tuner.margin", sim.tuner.margin);
    sim.tuner.sustain_epochs =
        config.get_count("tuner.sustain_epochs", sim.tuner.sustain_epochs);
    sim.tuner.auto_apply = config.get_bool("tuner.auto_apply", true);
    sim.tuner.max_neighbors =
        config.get_count("tuner.max_neighbors", sim.tuner.max_neighbors);

    // 1 = single-node path (cluster tier off).
    sim.cluster.nodes = config.get_count("cluster.nodes", 1);
    if (sim.cluster.nodes > 64) {
        throw std::invalid_argument{"cluster.nodes: at most 64"};
    }
    sim.cluster.vnodes_per_node =
        config.get_count("cluster.vnodes", sim.cluster.vnodes_per_node);
    sim.cluster_node_cache_fraction = config.get_double(
        "cluster.node_cache_fraction", sim.cluster_node_cache_fraction);
    sim.cluster.peer_fetch_enabled =
        config.get_bool("cluster.peer_fetch_enabled", true);
    sim.cluster.peer_latency_ms =
        config.get_double("cluster.peer_cost_ms", sim.cluster.peer_latency_ms);
    sim.cluster.peer_bytes_per_ms = config.get_double(
        "cluster.peer_bytes_per_ms", sim.cluster.peer_bytes_per_ms);
    sim.cluster.hedge_enabled = config.get_bool("cluster.hedge_enabled", true);
    sim.cluster.hedge_delay_ms =
        config.get_double("cluster.hedge_delay_ms", 0.0);
    sim.cluster.max_attempts =
        config.get_count("cluster.max_attempts", sim.cluster.max_attempts);
    sim.cluster.comm_budget_mb =
        config.get_double("cluster.comm_budget_mb", 0.0);
    sim.cluster.peer_transient_prob =
        config.get_double("cluster.peer_transient_prob", 0.0);
    sim.cluster.straggler_node = config.get_int("cluster.straggler_node", -1);
    sim.cluster.straggler_spike_prob = config.get_double(
        "cluster.straggler_spike_prob", sim.cluster.straggler_spike_prob);
    sim.cluster.straggler_spike_mult = config.get_double(
        "cluster.straggler_spike_mult", sim.cluster.straggler_spike_mult);
    sim.cluster_join_epoch = config.get_count("cluster.join_epoch", 0);
    sim.cluster_leave_epoch = config.get_count("cluster.leave_epoch", 0);
    if (sim.cluster.straggler_node >= 0 &&
        static_cast<std::size_t>(sim.cluster.straggler_node) >=
            sim.cluster.nodes) {
        throw std::invalid_argument{
            "cluster.straggler_node: outside the initial node set"};
    }

    sim.sgd.learning_rate =
        static_cast<float>(config.get_double("optimizer.lr", 0.05));
    sim.sgd.momentum =
        static_cast<float>(config.get_double("optimizer.momentum", 0.9));
    sim.sgd.weight_decay =
        static_cast<float>(config.get_double("optimizer.weight_decay", 5e-4));

    // Mode pairs that do not compose, and the WAL/tuner ranges, fail here
    // rather than when the run starts.
    validate(sim);
    return sim;
}

}  // namespace spider::sim

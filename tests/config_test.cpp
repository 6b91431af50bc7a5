// Config parsing and SimConfig translation tests: INI syntax (sections,
// comments, inline comments), typed getters with strict conversion, the
// full schema round trip, and typo rejection.

#include <gtest/gtest.h>

#include "cache/policy.hpp"
#include "sim/config_io.hpp"
#include "server/config_io.hpp"
#include "util/config.hpp"

namespace spider::util {
namespace {

TEST(Config, ParsesKeysSectionsAndComments) {
    const Config config = Config::parse_string(R"(
# full-line comment
top = 1
[section]
key = hello world   ; inline comment
other = 2.5         # another inline
; commented = out
[deep]
flag = true
)");
    EXPECT_EQ(config.size(), 4U);
    EXPECT_EQ(config.get_string("top"), "1");
    EXPECT_EQ(config.get_string("section.key"), "hello world");
    EXPECT_DOUBLE_EQ(config.get_double("section.other", 0.0), 2.5);
    EXPECT_TRUE(config.get_bool("deep.flag", false));
    EXPECT_FALSE(config.contains("commented"));
}

TEST(Config, TypedGettersAndDefaults) {
    const Config config = Config::parse_string("a = 7\nb = yes\nc = -1.5\n");
    EXPECT_EQ(config.get_int("a", 0), 7);
    EXPECT_EQ(config.get_int("missing", 42), 42);
    EXPECT_TRUE(config.get_bool("b", false));
    EXPECT_FALSE(config.get_bool("missing", false));
    EXPECT_DOUBLE_EQ(config.get_double("c", 0.0), -1.5);
    EXPECT_EQ(config.get_string("missing", "dflt"), "dflt");
    EXPECT_THROW(config.get_string("missing"), std::out_of_range);
}

TEST(Config, StrictConversionErrors) {
    const Config config = Config::parse_string(
        "x = 12abc\nflag = maybe\nneg = -1\nholes = a,,b\ntail = 1,2,\n"
        "nums = 0.5, 0.7x\n");
    EXPECT_THROW(config.get_int("x", 0), std::invalid_argument);
    EXPECT_THROW(config.get_double("x", 0.0), std::invalid_argument);
    EXPECT_THROW(config.get_bool("flag", false), std::invalid_argument);
    // A count rejects what get_int would let wrap to 2^64 - 1.
    EXPECT_THROW((void)config.get_count("x", 0), std::invalid_argument);
    EXPECT_THROW((void)config.get_count("neg", 0), std::invalid_argument);
    EXPECT_EQ(config.get_int("neg", 0), -1);
    // Lists reject empty items, and number lists unparsable ones.
    EXPECT_THROW((void)config.get_list("holes"), std::invalid_argument);
    EXPECT_THROW((void)config.get_list("tail"), std::invalid_argument);
    EXPECT_THROW((void)config.get_doubles("nums"), std::invalid_argument);
    EXPECT_EQ(config.get_list("nums"),
              (std::vector<std::string>{"0.5", "0.7x"}));
}

TEST(Config, MalformedLinesRejected) {
    EXPECT_THROW(Config::parse_string("just a line\n"), std::invalid_argument);
    EXPECT_THROW(Config::parse_string("[unterminated\n"), std::invalid_argument);
    EXPECT_THROW(Config::parse_string("= value\n"), std::invalid_argument);
}

TEST(Config, MissingFileThrows) {
    EXPECT_THROW(Config::load_file("/no/such/file.ini"), std::invalid_argument);
}

TEST(Config, SetOverrides) {
    Config config = Config::parse_string("a = 1\n");
    config.set("a", "2");
    config.set("b.c", "3");
    EXPECT_EQ(config.get_int("a", 0), 2);
    EXPECT_EQ(config.get_int("b.c", 0), 3);
}

}  // namespace
}  // namespace spider::util

namespace spider::sim {
namespace {

TEST(ConfigIo, StrategyAndModelParsers) {
    EXPECT_EQ(strategy_from_string("spider"), StrategyKind::kSpider);
    EXPECT_EQ(strategy_from_string("SPIDER-IMP"), StrategyKind::kSpiderImp);
    EXPECT_EQ(strategy_from_string("shade"), StrategyKind::kShade);
    EXPECT_EQ(strategy_from_string("baseline"), StrategyKind::kBaselineLru);
    EXPECT_THROW(strategy_from_string("nonsense"), std::invalid_argument);

    EXPECT_EQ(model_from_string("ResNet50"), nn::ModelKind::kResNet50);
    EXPECT_EQ(model_from_string("vgg16"), nn::ModelKind::kVgg16);
    EXPECT_THROW(model_from_string("lenet"), std::invalid_argument);
}

TEST(ConfigIo, FullSchemaTranslation) {
    const util::Config ini = util::Config::parse_string(R"(
[dataset]
preset = cifar100
scale = 0.02
seed = 9
imbalance = 3.0
[model]
name = vgg16
[run]
strategy = shade
epochs = 7
batch_size = 64
cache_fraction = 0.33
num_gpus = 2
record_trace = true
[storage]
latency_ms = 3.25
ssd_enabled = true
ssd_items = 123
[scorer]
lambda = 1.5
neighbor_k = 16
[sampler]
floor = 0.2
[elastic]
r_end = 0.7
[optimizer]
lr = 0.01
)");
    const SimConfig config = sim_config_from(ini);
    EXPECT_EQ(config.dataset.name, "CIFAR-100");
    EXPECT_EQ(config.dataset.num_samples, 1000U);  // 0.02 * 50k
    EXPECT_DOUBLE_EQ(config.dataset.imbalance_factor, 3.0);
    EXPECT_EQ(config.model.name, "Vgg16");
    EXPECT_EQ(config.strategy, StrategyKind::kShade);
    EXPECT_EQ(config.epochs, 7U);
    EXPECT_EQ(config.batch_size, 64U);
    EXPECT_DOUBLE_EQ(config.cache_fraction, 0.33);
    EXPECT_EQ(config.num_gpus, 2U);
    EXPECT_TRUE(config.record_trace);
    EXPECT_NEAR(storage::to_ms(config.remote.latency_per_sample), 3.25, 1e-9);
    EXPECT_TRUE(config.ssd.enabled);
    EXPECT_EQ(config.ssd.capacity_items, 123U);
    EXPECT_DOUBLE_EQ(config.scorer.lambda, 1.5);
    EXPECT_EQ(config.scorer.neighbor_k, 16U);
    EXPECT_DOUBLE_EQ(config.spider_sampler_floor, 0.2);
    EXPECT_DOUBLE_EQ(config.elastic.r_end, 0.7);
    EXPECT_FLOAT_EQ(config.sgd.learning_rate, 0.01F);
}

TEST(ConfigIo, DefaultsWhenEmpty) {
    const SimConfig config = sim_config_from(util::Config{});
    EXPECT_EQ(config.dataset.name, "CIFAR-10");
    EXPECT_EQ(config.strategy, StrategyKind::kSpider);
    EXPECT_EQ(config.epochs, 30U);
    EXPECT_FALSE(config.ssd.enabled);
}

TEST(ConfigIo, UnknownKeysRejected) {
    const util::Config ini =
        util::Config::parse_string("run.stragety = spider\n");  // typo
    EXPECT_THROW(sim_config_from(ini), std::invalid_argument);
}

TEST(ConfigIo, BadPresetRejected) {
    const util::Config ini =
        util::Config::parse_string("dataset.preset = mnist\n");
    EXPECT_THROW(sim_config_from(ini), std::invalid_argument);
}

TEST(ConfigIo, SsdBlockSectionRoundTrips) {
    const util::Config ini = util::Config::parse_string(R"(
[storage]
ssd_enabled = true
ssd_items = 500
[ssd]
path = /tmp/spider_segments
capacity_mb = 256
segment_mb = 8
bloom_bits_per_key = 12
)");
    const SimConfig config = sim_config_from(ini);
    EXPECT_TRUE(config.ssd.enabled);
    EXPECT_EQ(config.ssd.capacity_items, 500U);
    EXPECT_EQ(config.ssd.path, "/tmp/spider_segments");
    EXPECT_EQ(config.ssd.capacity_mb, 256U);
    EXPECT_EQ(config.ssd.segment_mb, 8U);
    EXPECT_EQ(config.ssd.bloom_bits_per_key, 12U);
}

TEST(ConfigIo, SsdBlockDefaultsToResidencyModel) {
    const SimConfig config = sim_config_from(util::Config{});
    EXPECT_TRUE(config.ssd.path.empty());  // no path = no block store
    EXPECT_EQ(config.ssd.capacity_mb, 0U);
    EXPECT_EQ(config.ssd.segment_mb, 4U);
    EXPECT_EQ(config.ssd.bloom_bits_per_key, 10U);
}

TEST(ConfigIo, MalformedSsdBlockConfigRejectedAtParseTime) {
    EXPECT_THROW(
        sim_config_from(util::Config::parse_string("ssd.segment_mb = 0\n")),
        std::invalid_argument);
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "ssd.bloom_bits_per_key = 65\n")),
                 std::invalid_argument);
}

TEST(ConfigIo, ClusterSectionRoundTrips) {
    const util::Config ini = util::Config::parse_string(R"(
[cluster]
nodes = 8
vnodes = 32
node_cache_fraction = 0.25
peer_fetch_enabled = false
peer_cost_ms = 0.8
peer_bytes_per_ms = 2.5e7
hedge_enabled = false
hedge_delay_ms = 1.5
max_attempts = 3
comm_budget_mb = 16.0
peer_transient_prob = 0.05
straggler_node = 5
straggler_spike_prob = 0.4
straggler_spike_mult = 12.0
join_epoch = 4
leave_epoch = 9
)");
    const SimConfig config = sim_config_from(ini);
    EXPECT_EQ(config.cluster.nodes, 8U);
    EXPECT_EQ(config.cluster.vnodes_per_node, 32U);
    EXPECT_DOUBLE_EQ(config.cluster_node_cache_fraction, 0.25);
    EXPECT_FALSE(config.cluster.peer_fetch_enabled);
    EXPECT_DOUBLE_EQ(config.cluster.peer_latency_ms, 0.8);
    EXPECT_DOUBLE_EQ(config.cluster.peer_bytes_per_ms, 2.5e7);
    EXPECT_FALSE(config.cluster.hedge_enabled);
    EXPECT_DOUBLE_EQ(config.cluster.hedge_delay_ms, 1.5);
    EXPECT_EQ(config.cluster.max_attempts, 3U);
    EXPECT_DOUBLE_EQ(config.cluster.comm_budget_mb, 16.0);
    EXPECT_DOUBLE_EQ(config.cluster.peer_transient_prob, 0.05);
    EXPECT_EQ(config.cluster.straggler_node, 5);
    EXPECT_DOUBLE_EQ(config.cluster.straggler_spike_prob, 0.4);
    EXPECT_DOUBLE_EQ(config.cluster.straggler_spike_mult, 12.0);
    EXPECT_EQ(config.cluster_join_epoch, 4U);
    EXPECT_EQ(config.cluster_leave_epoch, 9U);
}

TEST(ConfigIo, ClusterDefaultsKeepSingleNodePath) {
    const SimConfig config = sim_config_from(util::Config{});
    EXPECT_EQ(config.cluster.nodes, 1U);
    EXPECT_TRUE(config.cluster.peer_fetch_enabled);
    EXPECT_EQ(config.cluster.straggler_node, -1);
    EXPECT_EQ(config.cluster_join_epoch, 0U);
}

TEST(ConfigIo, ExcludedModePairsRejectedAtParseTime) {
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "cluster.nodes = 2\nprefetch.enabled = true\n")),
                 std::invalid_argument);
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "restart.epoch = 2\ncluster.nodes = 2\n")),
                 std::invalid_argument);
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "wal.compact_every_epochs = 0\n")),
                 std::invalid_argument);
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "run.strategy = shade\ntuner.enabled = true\n")),
                 std::invalid_argument);
    // The pairs that compose parse.
    EXPECT_NO_THROW(sim_config_from(util::Config::parse_string(
        "cluster.nodes = 2\nfaults.enabled = true\n")));
    EXPECT_NO_THROW(sim_config_from(util::Config::parse_string(
        "restart.epoch = 2\nprefetch.enabled = true\n")));
}

TEST(ConfigIo, ClusterBoundsRejected) {
    EXPECT_THROW(
        sim_config_from(util::Config::parse_string("cluster.nodes = 65\n")),
        std::invalid_argument);
    // The straggler must name a node in the initial set.
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "[cluster]\nnodes = 4\nstraggler_node = 4\n")),
                 std::invalid_argument);
    // And cluster typos are rejected like every other section's.
    EXPECT_THROW(
        sim_config_from(util::Config::parse_string("cluster.node = 4\n")),
        std::invalid_argument);
}

TEST(ConfigIo, WeatherRestartAndWalSectionsRoundTrip) {
    const util::Config ini = util::Config::parse_string(R"(
[faults]
enabled = true
transient_prob = 0.02
[weather]
enabled = true
slot_ms = 300
p_degrade = 0.05
p_recover = 0.25
p_fail = 0.10
p_restore = 0.40
degraded_mult = 6.0
degraded_slowdown = 3.0
[restart]
epoch = 5
[wal]
dir = /tmp/spider_wal
compact_every_epochs = 2
sync_every_append = true
)");
    const SimConfig sim = sim_config_from(ini);
    EXPECT_TRUE(sim.faults.weather.enabled);
    EXPECT_DOUBLE_EQ(sim.faults.weather.slot_ms, 300.0);
    EXPECT_DOUBLE_EQ(sim.faults.weather.p_degrade, 0.05);
    EXPECT_DOUBLE_EQ(sim.faults.weather.p_recover, 0.25);
    EXPECT_DOUBLE_EQ(sim.faults.weather.p_fail, 0.10);
    EXPECT_DOUBLE_EQ(sim.faults.weather.p_restore, 0.40);
    EXPECT_DOUBLE_EQ(sim.faults.weather.degraded_mult, 6.0);
    EXPECT_DOUBLE_EQ(sim.faults.weather.degraded_slowdown, 3.0);
    EXPECT_EQ(sim.restart_epoch, 5U);
    EXPECT_EQ(sim.wal_dir, "/tmp/spider_wal");
    EXPECT_EQ(sim.wal_compact_every_epochs, 2U);
    EXPECT_TRUE(sim.wal_sync_every_append);
}

TEST(ConfigIo, MalformedFaultAndWeatherConfigsRejectedAtParseTime) {
    // Negative probability.
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "faults.transient_prob = -0.2\n")),
                 std::invalid_argument);
    // Recovery faster than healthy makes no sense.
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "faults.brownout_factor = 0.5\n")),
                 std::invalid_argument);
    // Periodic windows that overlap into a permanent outage.
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "faults.outage_duration_ms = 500\n"
                     "faults.outage_period_ms = 200\n")),
                 std::invalid_argument);
    // Weather chain with a degenerate slot width.
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "weather.enabled = true\nweather.slot_ms = 0\n")),
                 std::invalid_argument);
    // Degraded-state exit probabilities summing past 1.
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "weather.p_recover = 0.7\nweather.p_fail = 0.6\n")),
                 std::invalid_argument);
    // WAL compaction cadence of zero epochs.
    EXPECT_THROW(sim_config_from(util::Config::parse_string(
                     "wal.compact_every_epochs = 0\n")),
                 std::invalid_argument);
    // Negative counts, which used to wrap: 2^64 - 1 epochs, a cadence
    // that passes the == 0 check and never compacts, a kill that never
    // fires.
    for (const char* text :
         {"run.epochs = -1\n", "wal.compact_every_epochs = -1\n",
          "restart.epoch = -1\n"}) {
        EXPECT_THROW(sim_config_from(util::Config::parse_string(text)),
                     std::invalid_argument)
            << text;
    }
}

TEST(ConfigIo, ShippedExampleConfigParses) {
    // The checked-in example must always stay valid.
    const SimConfig config =
        sim_config_from(util::Config::load_file(SPIDER_SOURCE_DIR
                                                "/configs/example.ini"));
    EXPECT_EQ(config.strategy, StrategyKind::kSpider);
    EXPECT_EQ(config.epochs, 24U);
    EXPECT_EQ(config.cluster.nodes, 1U);  // example keeps the cluster off
}

}  // namespace
}  // namespace spider::sim

// ---------------------------------------------------------------- [server]

namespace spider::server {
namespace {

TEST(ServerConfigIo, DefaultsWhenEmpty) {
    const ServerConfig config = server_config_from(util::Config{});
    EXPECT_EQ(config.port, 0);
    EXPECT_EQ(config.max_pipeline, 64U);
    EXPECT_EQ(config.cache_items, 4096U);
    EXPECT_EQ(config.cache_shards, 0U);
    EXPECT_TRUE(config.lockfree_reads);
    ASSERT_EQ(config.tenants.size(), 1U);
    EXPECT_DOUBLE_EQ(config.tenants[0].capacity_pct, 100.0);
    EXPECT_DOUBLE_EQ(config.tenants[0].imp_ratio, 0.9);
    EXPECT_TRUE(config.tenants[0].policies.is_default());
}

TEST(ServerConfigIo, SerializeParseRoundTripsExactly) {
    ServerConfig config;
    config.port = 7071;
    config.max_pipeline = 32;
    config.cache_items = 10000;
    config.cache_shards = 4;
    config.lockfree_reads = false;
    config.tenants = {
        TenantSpec{.capacity_pct = 50.0, .imp_ratio = 0.9},
        TenantSpec{.capacity_pct = 30.0,
                   .imp_ratio = 0.8,
                   .policies = {cache::PolicyKind::kLru,
                                cache::PolicyKind::kLfu}},
        TenantSpec{.capacity_pct = 20.0,
                   .imp_ratio = 0.5,
                   .policies = {cache::PolicyKind::kGdsf,
                                cache::PolicyKind::kCost}}};

    const std::string ini = serialize_server_config(config);
    const ServerConfig parsed =
        server_config_from(util::Config::parse_string(ini));
    EXPECT_EQ(parsed.port, config.port);
    EXPECT_EQ(parsed.max_pipeline, config.max_pipeline);
    EXPECT_EQ(parsed.cache_items, config.cache_items);
    EXPECT_EQ(parsed.cache_shards, config.cache_shards);
    EXPECT_EQ(parsed.lockfree_reads, config.lockfree_reads);
    ASSERT_EQ(parsed.tenants.size(), config.tenants.size());
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        EXPECT_DOUBLE_EQ(parsed.tenants[t].capacity_pct,
                         config.tenants[t].capacity_pct);
        EXPECT_DOUBLE_EQ(parsed.tenants[t].imp_ratio,
                         config.tenants[t].imp_ratio);
        EXPECT_EQ(parsed.tenants[t].policies, config.tenants[t].policies);
    }
    // Serializing the parse reproduces the exact same text.
    EXPECT_EQ(serialize_server_config(parsed), ini);
}

TEST(ServerConfigIo, DefaultTenantSplitIsEven) {
    const ServerConfig config = server_config_from(
        util::Config::parse_string("[server]\ntenants = 4\n"));
    ASSERT_EQ(config.tenants.size(), 4U);
    for (const TenantSpec& t : config.tenants) {
        EXPECT_DOUBLE_EQ(t.capacity_pct, 25.0);
        EXPECT_DOUBLE_EQ(t.imp_ratio, 0.9);
        EXPECT_TRUE(t.policies.is_default());
    }
}

TEST(ServerConfigIo, PerTenantPolicyListsParse) {
    const ServerConfig config = server_config_from(util::Config::parse_string(
        "[server]\ntenants = 2\n"
        "imp_policy = semantic, lru\nhom_policy = fifo, gdsf\n"));
    ASSERT_EQ(config.tenants.size(), 2U);
    EXPECT_TRUE(config.tenants[0].policies.is_default());
    EXPECT_EQ(config.tenants[1].policies.importance, cache::PolicyKind::kLru);
    EXPECT_EQ(config.tenants[1].policies.homophily, cache::PolicyKind::kGdsf);
}

TEST(ServerConfigIo, InvalidSectionsRejected) {
    const auto parse = [](const char* text) {
        return server_config_from(util::Config::parse_string(text));
    };
    // List length must equal the tenant count.
    EXPECT_THROW(parse("[server]\ntenants = 2\ncapacity_pct = 100\n"),
                 std::invalid_argument);
    EXPECT_THROW(parse("[server]\ntenants = 2\nimp_ratio = 0.9,0.8,0.7\n"),
                 std::invalid_argument);
    // Percentages must sum within the budget.
    EXPECT_THROW(parse("[server]\ntenants = 2\ncapacity_pct = 60,50\n"),
                 std::invalid_argument);
    // Garbled list entries.
    EXPECT_THROW(parse("[server]\ntenants = 2\ncapacity_pct = 50,abc\n"),
                 std::invalid_argument);
    // Policy lists: length mismatch, unknown name, section-ineligible kind.
    EXPECT_THROW(parse("[server]\ntenants = 2\nimp_policy = lru\n"),
                 std::invalid_argument);
    EXPECT_THROW(parse("[server]\ntenants = 1\nimp_policy = clock\n"),
                 std::invalid_argument);
    EXPECT_THROW(parse("[server]\ntenants = 1\nhom_policy = semantic\n"),
                 std::invalid_argument);
    EXPECT_THROW(parse("[server]\ntenants = 1\nimp_policy = random\n"),
                 std::invalid_argument);
    // Structural bounds.
    EXPECT_THROW(parse("[server]\ntenants = 0\n"), std::invalid_argument);
    EXPECT_THROW(parse("[server]\ntenants = 257\n"), std::invalid_argument);
    EXPECT_THROW(parse("[server]\nmax_pipeline = 0\n"),
                 std::invalid_argument);
    // Out-of-range or negative numbers, which used to wrap.
    EXPECT_THROW(parse("[server]\nport = 70000\n"), std::invalid_argument);
    EXPECT_THROW(parse("[server]\nport = -1\n"), std::invalid_argument);
    EXPECT_THROW(parse("[server]\ncache_items = -5\n"),
                 std::invalid_argument);
}

TEST(ServerConfigIo, ShippedExampleServerSectionParses) {
    // The [server] keys ride in the same INI as the sim schema; both
    // consumers must accept the shipped example.
    const util::Config ini = util::Config::load_file(SPIDER_SOURCE_DIR
                                                     "/configs/example.ini");
    const ServerConfig config = server_config_from(ini);
    EXPECT_EQ(config.port, 7071);
    ASSERT_EQ(config.tenants.size(), 2U);
    EXPECT_DOUBLE_EQ(config.tenants[0].capacity_pct, 60.0);
    EXPECT_DOUBLE_EQ(config.tenants[1].capacity_pct, 40.0);
}

}  // namespace
}  // namespace spider::server

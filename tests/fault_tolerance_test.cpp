// Fault-tolerance suite (DESIGN.md §9): the deterministic fault model,
// the resilient client's retry/hedge/breaker machinery, thread-count
// independence of the injected schedule, and the simulator's degraded
// mode — including the zero-cost-off parity guarantee (a benign fault
// layer reproduces the fault-free run bit for bit).

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <stdexcept>
#include <vector>

#include "data/dataset.hpp"
#include "data/presets.hpp"
#include "sim/simulator.hpp"
#include "storage/fault_model.hpp"
#include "storage/resilient_store.hpp"
#include "util/thread_pool.hpp"

namespace spider {
namespace {

data::SyntheticDataset small_dataset() {
    data::DatasetSpec spec;
    spec.name = "faults";
    spec.num_samples = 512;
    spec.num_classes = 4;
    spec.feature_dim = 8;
    return data::SyntheticDataset{spec};
}

// ------------------------------------------------------------- FaultModel

TEST(FaultModel, DisabledAlwaysSucceedsAtNominalLatency) {
    const storage::SimDuration base = storage::from_ms(4.0);
    storage::FaultModel model{{}, base};
    for (std::uint32_t id = 0; id < 100; ++id) {
        const storage::FaultOutcome out =
            model.evaluate(id, 0, storage::from_ms(1e9));
        EXPECT_TRUE(out.ok());
        EXPECT_EQ(out.latency, base);
    }
    EXPECT_EQ(model.injected_transients(), 0U);
}

TEST(FaultModel, TransientRateTracksConfiguredProbability) {
    storage::FaultModelConfig config;
    config.enabled = true;
    config.transient_failure_prob = 0.2;
    storage::FaultModel model{config, storage::from_ms(4.0)};
    std::size_t failures = 0;
    constexpr std::size_t kDraws = 20000;
    for (std::uint32_t id = 0; id < kDraws; ++id) {
        if (!model.evaluate(id, 0, {}).ok()) ++failures;
    }
    const double rate = static_cast<double>(failures) / kDraws;
    EXPECT_NEAR(rate, 0.2, 0.02);
    EXPECT_EQ(model.injected_transients(), failures);
}

TEST(FaultModel, DrawsArePureFunctionsOfSeedAndCoordinates) {
    storage::FaultModelConfig config;
    config.enabled = true;
    config.transient_failure_prob = 0.3;
    config.latency_spike_prob = 0.2;
    storage::FaultModel a{config, storage::from_ms(4.0)};
    storage::FaultModel b{config, storage::from_ms(4.0)};
    config.seed ^= 0x1234;
    storage::FaultModel c{config, storage::from_ms(4.0)};

    std::size_t reseeded_diffs = 0;
    for (std::uint32_t id = 0; id < 1000; ++id) {
        const auto oa = a.evaluate(id, 1, {}, 3);
        const auto ob = b.evaluate(id, 1, {}, 3);
        EXPECT_EQ(oa.kind, ob.kind);
        EXPECT_EQ(oa.latency, ob.latency);
        const auto oc = c.evaluate(id, 1, {}, 3);
        if (oc.kind != oa.kind || oc.latency != oa.latency) ++reseeded_diffs;
    }
    EXPECT_GT(reseeded_diffs, 0U);  // a new seed is new weather
}

TEST(FaultModel, OutageWindowsFollowVirtualTime) {
    storage::FaultModelConfig config;
    config.enabled = true;
    config.outage_start_ms = 100.0;
    config.outage_duration_ms = 50.0;
    config.outage_period_ms = 200.0;
    config.timeout_ms = 30.0;
    storage::FaultModel model{config, storage::from_ms(4.0)};

    EXPECT_FALSE(model.in_outage(storage::from_ms(50.0)));
    EXPECT_TRUE(model.in_outage(storage::from_ms(120.0)));
    EXPECT_FALSE(model.in_outage(storage::from_ms(180.0)));
    EXPECT_TRUE(model.in_outage(storage::from_ms(320.0)));  // next period

    const auto out = model.evaluate(7, 0, storage::from_ms(120.0));
    EXPECT_EQ(out.kind, storage::FaultKind::kOutage);
    // An unreachable backend burns the full client timeout.
    EXPECT_EQ(out.latency, storage::from_ms(30.0));
    EXPECT_EQ(model.outage_rejections(), 1U);
}

TEST(FaultModel, SpikesBeyondTimeoutAreAbandonedAtThreshold) {
    storage::FaultModelConfig config;
    config.enabled = true;
    config.latency_spike_prob = 1.0;
    config.latency_spike_mult = 100.0;  // >= 50x base, far past the timeout
    config.timeout_ms = 20.0;
    storage::FaultModel model{config, storage::from_ms(4.0)};
    for (std::uint32_t id = 0; id < 50; ++id) {
        const auto out = model.evaluate(id, 0, {});
        EXPECT_EQ(out.kind, storage::FaultKind::kTimeout);
        EXPECT_EQ(out.latency, storage::from_ms(20.0));
    }
    EXPECT_EQ(model.injected_timeouts(), 50U);
}

TEST(FaultModel, BrownoutSlowsTheRecoveryTail) {
    storage::FaultModelConfig config;
    config.enabled = true;
    config.outage_start_ms = 100.0;
    config.outage_duration_ms = 50.0;
    config.brownout_factor = 3.0;
    config.brownout_duration_ms = 40.0;
    storage::FaultModel model{config, storage::from_ms(4.0)};
    EXPECT_DOUBLE_EQ(model.slowdown(storage::from_ms(50.0)), 1.0);
    EXPECT_DOUBLE_EQ(model.slowdown(storage::from_ms(160.0)), 3.0);
    EXPECT_DOUBLE_EQ(model.slowdown(storage::from_ms(200.0)), 1.0);
    const auto out = model.evaluate(3, 0, storage::from_ms(160.0));
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.latency, storage::from_ms(12.0));
}

TEST(FaultModel, ZeroDurationOutageWindowNeverFires) {
    storage::FaultModelConfig config;
    config.enabled = true;
    config.outage_start_ms = 100.0;
    config.outage_duration_ms = 0.0;  // degenerate window
    config.outage_period_ms = 200.0;
    storage::FaultModel model{config, storage::from_ms(4.0)};
    for (double t : {0.0, 100.0, 150.0, 300.0, 1e9}) {
        EXPECT_FALSE(model.in_outage(storage::from_ms(t))) << t;
        EXPECT_TRUE(model.evaluate(1, 0, storage::from_ms(t)).ok()) << t;
    }
    EXPECT_EQ(model.outage_rejections(), 0U);
}

TEST(FaultModel, SingleNonPeriodicOutageWindowFiresExactlyOnce) {
    storage::FaultModelConfig config;
    config.enabled = true;
    config.outage_start_ms = 100.0;
    config.outage_duration_ms = 50.0;
    config.outage_period_ms = 0.0;  // one window, no repetition
    storage::FaultModel model{config, storage::from_ms(4.0)};
    EXPECT_FALSE(model.in_outage(storage::from_ms(99.0)));
    EXPECT_TRUE(model.in_outage(storage::from_ms(100.0)));
    EXPECT_TRUE(model.in_outage(storage::from_ms(149.0)));
    EXPECT_FALSE(model.in_outage(storage::from_ms(150.0)));
    // Where a periodic config would strike again, the single window
    // stays healthy forever.
    EXPECT_FALSE(model.in_outage(storage::from_ms(300.0)));
    EXPECT_FALSE(model.in_outage(storage::from_ms(1e12)));
}

TEST(FaultModel, BrownoutTailOverlappingNextOutageYieldsToTheOutage) {
    storage::FaultModelConfig config;
    config.enabled = true;
    config.outage_start_ms = 0.0;
    config.outage_duration_ms = 40.0;
    config.outage_period_ms = 100.0;
    config.brownout_factor = 2.0;
    // Tail runs 80 ms past each 40 ms window: it would reach 20 ms into
    // the *next* period's outage. The outage check wins there.
    config.brownout_duration_ms = 80.0;
    storage::FaultModel model{config, storage::from_ms(4.0)};
    EXPECT_TRUE(model.in_outage(storage::from_ms(20.0)));
    EXPECT_DOUBLE_EQ(model.slowdown(storage::from_ms(50.0)), 2.0);
    EXPECT_DOUBLE_EQ(model.slowdown(storage::from_ms(99.0)), 2.0);
    // 110 ms = 10 ms into the next period: inside the new outage window,
    // even though the previous brownout tail nominally covers it.
    EXPECT_TRUE(model.in_outage(storage::from_ms(110.0)));
    EXPECT_EQ(model.evaluate(5, 0, storage::from_ms(110.0)).kind,
              storage::FaultKind::kOutage);
    // The slowdown resumes for the rest of the tail after that window.
    EXPECT_DOUBLE_EQ(model.slowdown(storage::from_ms(150.0)), 2.0);
}

TEST(FaultModel, WeatherChainIsDeterministicAcrossThreadCounts) {
    storage::FaultModelConfig config;
    config.enabled = true;
    config.weather.enabled = true;
    config.weather.p_degrade = 0.10;
    config.weather.p_recover = 0.30;
    config.weather.p_fail = 0.15;
    config.weather.p_restore = 0.40;
    const storage::FaultModel reference{config, storage::from_ms(4.0)};
    constexpr std::uint64_t kSlots = 2000;
    std::vector<storage::WeatherState> expected(kSlots);
    for (std::uint64_t s = 0; s < kSlots; ++s) {
        expected[s] = reference.weather_state_at_slot(s);
    }
    // A second instance queried from many threads in scrambled order
    // must reproduce the chain exactly: state is a pure function of
    // (seed, slot), never of query interleaving.
    const storage::FaultModel concurrent{config, storage::from_ms(4.0)};
    std::vector<std::future<bool>> checks;
    for (int t = 0; t < 8; ++t) {
        checks.push_back(std::async(std::launch::async, [&, t] {
            for (std::uint64_t i = 0; i < kSlots; ++i) {
                const std::uint64_t slot =
                    (i * 2654435761ULL + static_cast<std::uint64_t>(t) * 97) %
                    kSlots;
                if (concurrent.weather_state_at_slot(slot) != expected[slot]) {
                    return false;
                }
            }
            return true;
        }));
    }
    for (auto& c : checks) EXPECT_TRUE(c.get());
    // The chain actually moves under these rates.
    std::size_t non_good = 0;
    for (const auto s : expected) {
        if (s != storage::WeatherState::kGood) ++non_good;
    }
    EXPECT_GT(non_good, 0U);
}

TEST(FaultModel, AllGoodWeatherChainIsBitIdenticalToIidModel) {
    storage::FaultModelConfig iid;
    iid.enabled = true;
    iid.transient_failure_prob = 0.2;
    iid.latency_spike_prob = 0.1;
    storage::FaultModelConfig calm = iid;
    calm.weather.enabled = true;  // chain on, but every transition prob 0
    const storage::FaultModel a{iid, storage::from_ms(4.0)};
    const storage::FaultModel b{calm, storage::from_ms(4.0)};
    for (std::uint32_t id = 0; id < 500; ++id) {
        const auto oa = a.evaluate(id, 0, storage::from_ms(id * 3.0));
        const auto ob = b.evaluate(id, 0, storage::from_ms(id * 3.0));
        EXPECT_EQ(oa.kind, ob.kind) << id;
        EXPECT_EQ(oa.latency, ob.latency) << id;
    }
}

TEST(FaultModel, DegradedWeatherScalesRatesAndOutageWeatherRejects) {
    storage::FaultModelConfig config;
    config.enabled = true;
    config.transient_failure_prob = 0.05;
    config.weather.enabled = true;
    config.weather.slot_ms = 100.0;
    config.weather.p_degrade = 1.0;  // slot 1 onward: degraded
    config.weather.degraded_mult = 8.0;
    config.weather.degraded_slowdown = 2.0;
    storage::FaultModel model{config, storage::from_ms(4.0)};
    ASSERT_EQ(model.weather_state_at_slot(0), storage::WeatherState::kGood);
    ASSERT_EQ(model.weather_state_at_slot(5),
              storage::WeatherState::kDegraded);

    std::size_t good_transients = 0;
    std::size_t degraded_transients = 0;
    for (std::uint32_t id = 0; id < 4000; ++id) {
        const auto good = model.evaluate(id, 0, storage::from_ms(10.0));
        if (good.kind == storage::FaultKind::kTransient) ++good_transients;
        if (good.ok()) {
            EXPECT_EQ(good.latency, storage::from_ms(4.0));
        }
        const auto bad = model.evaluate(id, 0, storage::from_ms(510.0));
        if (bad.kind == storage::FaultKind::kTransient) ++degraded_transients;
        if (bad.ok()) {  // degraded successes run degraded_slowdown slower
            EXPECT_EQ(bad.latency, storage::from_ms(8.0));
        }
    }
    // 0.05 vs 0.40 per attempt over 4000 draws.
    EXPECT_GT(degraded_transients, good_transients * 4);

    storage::FaultModelConfig storm = config;
    storm.weather.p_fail = 1.0;  // slot 2 onward: outage
    storage::FaultModel stormy{storm, storage::from_ms(4.0)};
    const auto out = stormy.evaluate(9, 0, storage::from_ms(250.0));
    EXPECT_EQ(out.kind, storage::FaultKind::kOutage);
    EXPECT_EQ(stormy.weather_rejections(), 1U);
    EXPECT_EQ(stormy.outage_rejections(), 0U);  // not a *scheduled* window
    stormy.reset_counters();
    EXPECT_EQ(stormy.weather_rejections(), 0U);
}

TEST(FaultModel, ValidateRejectsMalformedConfigsWithActionableMessages) {
    const auto rejects = [](auto mutate) {
        storage::FaultModelConfig config;
        config.enabled = true;
        mutate(config);
        EXPECT_THROW(storage::validate(config), std::invalid_argument);
    };
    rejects([](auto& c) { c.transient_failure_prob = -0.1; });
    rejects([](auto& c) { c.latency_spike_prob = 1.5; });
    rejects([](auto& c) { c.brownout_factor = 0.5; });
    rejects([](auto& c) { c.outage_duration_ms = -1.0; });
    rejects([](auto& c) {
        c.outage_duration_ms = 300.0;  // longer than the period
        c.outage_period_ms = 200.0;
    });
    rejects([](auto& c) {
        c.weather.enabled = true;
        c.weather.slot_ms = 0.0;
    });
    rejects([](auto& c) { c.weather.p_degrade = 2.0; });
    rejects([](auto& c) {
        c.weather.p_recover = 0.8;  // degraded exits sum past 1
        c.weather.p_fail = 0.5;
    });
    rejects([](auto& c) { c.weather.degraded_mult = 0.5; });
    rejects([](auto& c) { c.weather.degraded_slowdown = 0.0; });
    // A healthy config passes, and the single-window outage with a zero
    // period is legal.
    storage::FaultModelConfig ok;
    ok.enabled = true;
    ok.outage_duration_ms = 300.0;
    ok.outage_period_ms = 0.0;
    EXPECT_NO_THROW(storage::validate(ok));
}

// --------------------------------------------------------- ResilientStore

TEST(ResilientStore, RetriesRecoverTransientFailures) {
    auto dataset = small_dataset();
    storage::RemoteStore remote{dataset, {}};
    storage::FaultModelConfig faults;
    faults.enabled = true;
    faults.transient_failure_prob = 0.3;
    storage::ResiliencePolicy policy;
    policy.max_attempts = 8;
    policy.hedge_enabled = false;
    storage::ResilientStore store{remote, faults, policy};

    constexpr std::uint32_t kFetches = 300;
    std::uint32_t recovered = 0;
    for (std::uint32_t id = 0; id < kFetches; ++id) {
        const storage::FetchResult r = store.fetch(id, {});
        if (r.ok) ++recovered;
        EXPECT_GE(r.attempts, 1U);
    }
    // P(8 straight transients) ~ 1e-4 per id; allow the odd exhausted
    // envelope rather than depend on one seed's luck.
    EXPECT_GE(recovered, kFetches - 2);
    const auto c = store.counters();
    EXPECT_EQ(c.successes, recovered);
    EXPECT_GT(c.retries, 0U);
    // The underlying store sees exactly one fetch per successful envelope,
    // keeping its byte counters meaningful.
    EXPECT_EQ(remote.total_fetches(), recovered);
    // Retried envelopes paid latency + backoff beyond the nominal fetch.
    EXPECT_GT(c.fault_time.count(), 0);
}

TEST(ResilientStore, HedgedDuplicatesRescueLatencySpikes) {
    auto dataset = small_dataset();
    storage::RemoteStore remote{dataset, {}};
    storage::FaultModelConfig faults;
    faults.enabled = true;
    faults.latency_spike_prob = 0.5;
    faults.latency_spike_mult = 10.0;
    storage::ResiliencePolicy policy;
    policy.max_attempts = 1;
    policy.hedge_delay_ms = 1.0;  // fixed: fire on any spiked primary
    storage::ResilientStore store{remote, faults, policy};

    storage::SimDuration hedged_cost{};
    for (std::uint32_t id = 0; id < 400; ++id) {
        const storage::FetchResult r = store.fetch(id, {});
        EXPECT_TRUE(r.ok);
        if (r.hedge_won) hedged_cost += r.cost;
    }
    const auto c = store.counters();
    EXPECT_GT(c.hedges, 0U);
    EXPECT_GT(c.hedge_wins, 0U);
    // A won hedge means the duplicate beat its spiked primary, so the
    // average rescued envelope costs less than an average spike
    // (base * mult * E[U] = 10x base).
    const storage::SimDuration base = remote.fetch_cost(0);
    EXPECT_LT(hedged_cost.count(),
              static_cast<std::int64_t>(c.hedge_wins) * (base * 10).count());
}

TEST(ResilientStore, BreakerTripsDuringOutageAndRecloses) {
    auto dataset = small_dataset();
    storage::RemoteStore remote{dataset, {}};
    storage::FaultModelConfig faults;
    faults.enabled = true;
    faults.outage_start_ms = 0.0;
    faults.outage_duration_ms = 50.0;
    faults.timeout_ms = 10.0;
    storage::ResiliencePolicy policy;
    policy.max_attempts = 1;
    policy.hedge_enabled = false;
    policy.breaker_failure_threshold = 4;
    policy.breaker_cooldown_ms = 100.0;
    storage::ResilientStore store{remote, faults, policy};
    using Breaker = storage::ResilientStore::BreakerState;

    // Batch inside the outage: every envelope fails.
    const storage::SimDuration t0 = storage::from_ms(10.0);
    for (std::uint32_t id = 0; id < 4; ++id) {
        EXPECT_FALSE(store.fetch(id, t0).ok);
    }
    store.on_batch_end(/*failures=*/4, /*successes=*/0, t0);
    EXPECT_EQ(store.counters().breaker_trips, 1U);
    EXPECT_EQ(store.breaker_state(storage::from_ms(11.0)), Breaker::kOpen);

    // Open breaker: instant zero-cost client-side rejection.
    const storage::FetchResult rejected =
        store.fetch(99, storage::from_ms(12.0));
    EXPECT_FALSE(rejected.ok);
    EXPECT_TRUE(rejected.breaker_rejected);
    EXPECT_EQ(rejected.attempts, 0U);
    EXPECT_EQ(rejected.cost.count(), 0);

    // Past the cooldown (and the outage): half-open probe succeeds and
    // closes the breaker.
    const storage::SimDuration t1 = storage::from_ms(120.0);
    EXPECT_EQ(store.breaker_state(t1), Breaker::kHalfOpen);
    EXPECT_TRUE(store.fetch(100, t1).ok);
    store.on_batch_end(/*failures=*/0, /*successes=*/1, t1);
    EXPECT_EQ(store.breaker_state(t1), Breaker::kClosed);
    EXPECT_EQ(store.counters().breaker_trips, 1U);
}

// Satellite 3: the injected fault schedule and every aggregate counter are
// functions of (seed, config) alone — real worker threads cannot perturb
// them.
TEST(ResilientStore, ConcurrentFetchScheduleIndependentOfThreadCount) {
    struct PerId {
        bool ok;
        std::uint32_t attempts;
        bool hedged;
        bool hedge_won;
        std::int64_t cost_ns;
    };
    constexpr std::uint32_t kIds = 400;

    const auto run = [](std::size_t threads) {
        auto dataset = small_dataset();
        storage::RemoteStore remote{dataset, {}};
        storage::FaultModelConfig faults;
        faults.enabled = true;
        faults.transient_failure_prob = 0.2;
        faults.latency_spike_prob = 0.1;
        faults.latency_spike_mult = 6.0;
        faults.timeout_ms = 25.0;
        storage::ResiliencePolicy policy;
        policy.max_attempts = 4;
        policy.hedge_delay_ms = 8.0;  // fixed delay: no histogram feedback
        storage::ResilientStore store{remote, faults, policy};

        std::vector<PerId> results(kIds);
        const auto fetch_range = [&](std::uint32_t lo, std::uint32_t hi) {
            for (std::uint32_t id = lo; id < hi; ++id) {
                const storage::FetchResult r =
                    store.fetch(id, storage::from_ms(5.0));
                results[id] = {r.ok, r.attempts, r.hedged, r.hedge_won,
                               r.cost.count()};
            }
        };
        if (threads <= 1) {
            fetch_range(0, kIds);
        } else {
            util::ThreadPool pool{threads};
            std::vector<std::future<void>> futures;
            const std::uint32_t chunk = kIds / static_cast<std::uint32_t>(threads);
            for (std::size_t t = 0; t < threads; ++t) {
                const auto lo = static_cast<std::uint32_t>(t) * chunk;
                const auto hi = t + 1 == threads
                                    ? kIds
                                    : lo + chunk;
                futures.push_back(
                    pool.submit([&fetch_range, lo, hi] { fetch_range(lo, hi); }));
            }
            for (auto& f : futures) f.get();
        }
        return std::pair{results, store.counters()};
    };

    const auto [serial, serial_counters] = run(1);
    const auto [threaded, threaded_counters] = run(4);
    for (std::uint32_t id = 0; id < kIds; ++id) {
        EXPECT_EQ(serial[id].ok, threaded[id].ok) << id;
        EXPECT_EQ(serial[id].attempts, threaded[id].attempts) << id;
        EXPECT_EQ(serial[id].hedged, threaded[id].hedged) << id;
        EXPECT_EQ(serial[id].hedge_won, threaded[id].hedge_won) << id;
        EXPECT_EQ(serial[id].cost_ns, threaded[id].cost_ns) << id;
    }
    EXPECT_EQ(serial_counters.attempts, threaded_counters.attempts);
    EXPECT_EQ(serial_counters.retries, threaded_counters.retries);
    EXPECT_EQ(serial_counters.hedges, threaded_counters.hedges);
    EXPECT_EQ(serial_counters.hedge_wins, threaded_counters.hedge_wins);
    EXPECT_EQ(serial_counters.successes, threaded_counters.successes);
    EXPECT_EQ(serial_counters.failures, threaded_counters.failures);
    EXPECT_EQ(serial_counters.fault_time.count(),
              threaded_counters.fault_time.count());
}

// --------------------------------------------------- TrainingSimulator §9

sim::SimConfig small_sim(sim::StrategyKind strategy) {
    sim::SimConfig config;
    config.dataset = data::cifar10_like(/*scale=*/0.02, /*seed=*/7);  // 1000
    config.strategy = strategy;
    config.epochs = 4;
    config.batch_size = 64;
    config.cache_fraction = 0.2;
    config.seed = 5;
    return config;
}

void expect_identical_runs(const metrics::RunResult& a,
                           const metrics::RunResult& b) {
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        const metrics::EpochMetrics& ea = a.epochs[i];
        const metrics::EpochMetrics& eb = b.epochs[i];
        EXPECT_EQ(ea.accesses, eb.accesses) << i;
        EXPECT_EQ(ea.hits, eb.hits) << i;
        EXPECT_EQ(ea.misses, eb.misses) << i;
        EXPECT_EQ(ea.importance_hits, eb.importance_hits) << i;
        EXPECT_EQ(ea.homophily_hits, eb.homophily_hits) << i;
        EXPECT_EQ(ea.train_loss, eb.train_loss) << i;
        EXPECT_EQ(ea.test_accuracy, eb.test_accuracy) << i;
        EXPECT_EQ(ea.load_time.count(), eb.load_time.count()) << i;
        EXPECT_EQ(ea.epoch_time.count(), eb.epoch_time.count()) << i;
    }
    EXPECT_EQ(a.total_time.count(), b.total_time.count());
    EXPECT_EQ(a.final_accuracy, b.final_accuracy);
}

// Zero-cost-off: a fault layer that is enabled but injects nothing must
// reproduce the fault-free run bit for bit — the resilient client adds no
// cost, no counter drift, and no RNG perturbation. Single-node and through
// the cluster's remote legs.
TEST(FaultSimulator, BenignFaultLayerReproducesFaultFreeRunBitForBit) {
    sim::SimConfig clustered = small_sim(sim::StrategyKind::kSpider);
    clustered.cluster.nodes = 4;
    for (const sim::SimConfig& clean :
         {small_sim(sim::StrategyKind::kSpider), clustered}) {
        sim::SimConfig benign = clean;
        benign.faults.enabled = true;  // every probability stays zero

        const metrics::RunResult a = sim::TrainingSimulator{clean}.run();
        const metrics::RunResult b = sim::TrainingSimulator{benign}.run();
        expect_identical_runs(a, b);
        for (const metrics::EpochMetrics& e : b.epochs) {
            EXPECT_EQ(e.fetch_retries, 0U);
            EXPECT_EQ(e.fetch_hedges, 0U);
            EXPECT_EQ(e.fetch_timeouts, 0U);
            EXPECT_EQ(e.breaker_trips, 0U);
            EXPECT_EQ(e.fault_substitutions, 0U);
            EXPECT_EQ(e.fault_skips, 0U);
            EXPECT_EQ(e.fault_time.count(), 0);
        }
    }
}

// The acceptance scenario: 2% transient failures plus one outage window.
// Epochs must complete, the substituted fraction must respect its bound,
// and the run must be slower than the healthy one but still train.
TEST(FaultSimulator, DegradedEpochsCompleteWithinSubstituteBound) {
    const sim::SimConfig clean = small_sim(sim::StrategyKind::kSpider);
    sim::SimConfig faulty = clean;
    faulty.faults.enabled = true;
    faulty.faults.transient_failure_prob = 0.02;
    faulty.faults.timeout_ms = 25.0;
    faulty.faults.outage_start_ms = 400.0;
    faulty.faults.outage_duration_ms = 250.0;
    faulty.resilience.max_attempts = 3;
    faulty.resilience.breaker_failure_threshold = 8;
    faulty.resilience.breaker_cooldown_ms = 200.0;
    faulty.resilience.max_substitute_fraction = 0.05;

    const metrics::RunResult healthy = sim::TrainingSimulator{clean}.run();
    const metrics::RunResult degraded = sim::TrainingSimulator{faulty}.run();

    ASSERT_EQ(degraded.epochs.size(), faulty.epochs);
    std::uint64_t retries = 0;
    std::uint64_t trips = 0;
    std::uint64_t substitutions = 0;
    for (const metrics::EpochMetrics& e : degraded.epochs) {
        EXPECT_LE(e.substituted_fraction(),
                  faulty.resilience.max_substitute_fraction + 1e-12);
        EXPECT_GE(e.fault_time.count(), 0);
        retries += e.fetch_retries;
        trips += e.breaker_trips;
        substitutions += e.fault_substitutions;
    }
    EXPECT_GT(retries, 0U);
    EXPECT_GE(trips, 1U);  // the outage window must trip the breaker
    EXPECT_GT(substitutions, 0U);
    EXPECT_GT(degraded.total_fault_time().count(), 0);
    EXPECT_LE(degraded.substituted_fraction(),
              faulty.resilience.max_substitute_fraction);
    // Faults cost virtual time; they must never make the run faster.
    EXPECT_GT(degraded.total_time.count(), healthy.total_time.count());
    // Training still converges to something useful.
    EXPECT_GT(degraded.final_accuracy, 0.15);
}

// Degraded mode composes with real loader threads and the lookahead
// prefetcher (failed speculative fetches propagate per the §8.3 exception
// contract and fall back to demand fetches).
TEST(FaultSimulator, ConcurrentDegradedRunWithPrefetchCompletes) {
    sim::SimConfig config = small_sim(sim::StrategyKind::kSpider);
    config.worker_threads = 4;
    config.prefetch_enabled = true;
    config.faults.enabled = true;
    config.faults.transient_failure_prob = 0.05;
    config.faults.timeout_ms = 25.0;
    config.resilience.max_attempts = 3;
    config.resilience.max_substitute_fraction = 0.05;

    const metrics::RunResult result = sim::TrainingSimulator{config}.run();
    ASSERT_EQ(result.epochs.size(), config.epochs);
    for (const metrics::EpochMetrics& e : result.epochs) {
        EXPECT_LE(e.substituted_fraction(),
                  config.resilience.max_substitute_fraction + 1e-12);
        EXPECT_GT(e.accesses, 0U);
    }
    EXPECT_GT(result.final_accuracy, 0.15);
}

// Every speculative fetch fails (transient_prob = 1, one attempt): the
// consume() rethrow must demote each prefetched id to a demand fetch with
// fresh fault draws — never a silent substitution or skip of a sample the
// prefetcher happened to touch. With demand fetches equally doomed, the
// degradation ladder handles them; the invariant under test is that
// nothing is ever counted as hidden.
TEST(FaultSimulator, FailedSpeculativeFetchFallsBackToDemandPath) {
    for (const bool adaptive : {false, true}) {
        sim::SimConfig config = small_sim(sim::StrategyKind::kSpider);
        config.worker_threads = 4;
        config.prefetch_enabled = true;
        config.prefetch_adaptive = adaptive;
        config.faults.enabled = true;
        config.faults.transient_failure_prob = 1.0;
        config.resilience.max_attempts = 1;
        config.resilience.hedge_enabled = false;
        config.resilience.max_substitute_fraction = 0.10;

        const metrics::RunResult result = sim::TrainingSimulator{config}.run();
        ASSERT_EQ(result.epochs.size(), config.epochs);
        std::uint64_t issued = 0;
        std::uint64_t hidden = 0;
        std::uint64_t ladder = 0;
        for (const metrics::EpochMetrics& e : result.epochs) {
            issued += e.prefetch_issued;
            hidden += e.prefetch_hidden;
            ladder += e.fault_substitutions + e.fault_skips;
            EXPECT_EQ(e.hits + e.misses, e.accesses);
        }
        EXPECT_GT(issued, 0U) << "adaptive=" << adaptive;
        EXPECT_EQ(hidden, 0U) << "adaptive=" << adaptive;
        EXPECT_GT(ladder, 0U) << "adaptive=" << adaptive;
    }
}

}  // namespace
}  // namespace spider

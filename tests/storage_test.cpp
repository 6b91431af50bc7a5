// Storage substrate tests: virtual clock arithmetic and the remote-store
// fetch cost model and counters.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "storage/clock.hpp"
#include "storage/remote_store.hpp"

namespace spider::storage {
namespace {

data::DatasetSpec tiny_spec() {
    data::DatasetSpec spec;
    spec.num_samples = 100;
    spec.num_classes = 4;
    spec.feature_dim = 8;
    spec.bytes_per_sample = 2048;
    spec.test_samples = 20;
    return spec;
}

TEST(VirtualClock, AdvanceAndConversions) {
    VirtualClock clock;
    EXPECT_EQ(clock.now(), SimDuration::zero());
    clock.advance_ms(1500.0);
    EXPECT_NEAR(to_ms(clock.now()), 1500.0, 1e-9);
    EXPECT_NEAR(to_minutes(clock.now()), 0.025, 1e-9);
    clock.advance(from_ms(500.0));
    EXPECT_NEAR(to_ms(clock.now()), 2000.0, 1e-9);
    EXPECT_NEAR(to_hours(from_ms(3600.0 * 1000.0)), 1.0, 1e-12);
}

TEST(VirtualClock, SyncToOnlyMovesForward) {
    VirtualClock clock;
    clock.advance_ms(100.0);
    clock.sync_to(from_ms(50.0));  // in the past: no-op
    EXPECT_NEAR(to_ms(clock.now()), 100.0, 1e-9);
    clock.sync_to(from_ms(250.0));
    EXPECT_NEAR(to_ms(clock.now()), 250.0, 1e-9);
    clock.reset();
    EXPECT_EQ(clock.now(), SimDuration::zero());
}

TEST(RemoteStore, FetchCostIncludesLatencyAndTransfer) {
    const data::SyntheticDataset dataset{tiny_spec()};
    RemoteStoreConfig config;
    config.latency_per_sample = from_ms(2.0);
    config.bytes_per_ms = 1024.0;  // 2048 bytes -> 2 ms transfer
    RemoteStore store{dataset, config};
    EXPECT_NEAR(to_ms(store.fetch_cost(0)), 4.0, 1e-9);
}

TEST(RemoteStore, BatchCostDividesAcrossWorkers) {
    const data::SyntheticDataset dataset{tiny_spec()};
    RemoteStoreConfig config;
    config.latency_per_sample = from_ms(1.0);
    config.bytes_per_ms = 1e12;  // transfer negligible
    config.parallelism = 4;
    RemoteStore store{dataset, config};
    EXPECT_EQ(store.batch_fetch_cost(0), SimDuration::zero());
    // 8 misses over 4 workers = 2 serial rounds.
    EXPECT_NEAR(to_ms(store.batch_fetch_cost(8)), 2.0, 1e-9);
    // 9 misses = 3 rounds (ceiling).
    EXPECT_NEAR(to_ms(store.batch_fetch_cost(9)), 3.0, 1e-9);
}

TEST(RemoteStore, CountersTrackFetches) {
    const data::SyntheticDataset dataset{tiny_spec()};
    RemoteStore store{dataset, RemoteStoreConfig{}};
    EXPECT_EQ(store.total_fetches(), 0U);
    const data::Sample& s = store.fetch(3);
    EXPECT_EQ(s.id, 3U);
    store.fetch(4);
    EXPECT_EQ(store.total_fetches(), 2U);
    EXPECT_EQ(store.total_bytes(), 2U * 2048U);
    store.reset_counters();
    EXPECT_EQ(store.total_fetches(), 0U);
}

TEST(RemoteStore, ConcurrentFetchesAreCounted) {
    const data::SyntheticDataset dataset{tiny_spec()};
    RemoteStore store{dataset, RemoteStoreConfig{}};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&store] {
            for (std::uint32_t i = 0; i < 100; ++i) {
                store.fetch(i % 100);
            }
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(store.total_fetches(), 400U);
}

TEST(RemoteStore, ContentionCountersResetIndependently) {
    const data::SyntheticDataset dataset{tiny_spec()};
    RemoteStore store{dataset, RemoteStoreConfig{}};
    store.set_fetch_slot_cap(1);  // slot accounting engages with a cap
    store.fetch(1);
    store.fetch(2);
    EXPECT_GE(store.peak_in_flight(), 1U);  // the fetches held a slot

    // Per-epoch hygiene: the contention counters reset alone, while the
    // run-lifetime fetch/byte totals keep accumulating.
    store.reset_contention_counters();
    EXPECT_EQ(store.slot_waits(), 0U);
    EXPECT_EQ(store.peak_in_flight(), 0U);
    EXPECT_EQ(store.total_fetches(), 2U);
    EXPECT_EQ(store.total_bytes(), 2U * 2048U);

    store.fetch(3);
    EXPECT_GE(store.peak_in_flight(), 1U);  // tracking resumes
    // And the full reset still clears everything, contention included.
    store.reset_counters();
    EXPECT_EQ(store.total_fetches(), 0U);
    EXPECT_EQ(store.peak_in_flight(), 0U);
}

}  // namespace
}  // namespace spider::storage

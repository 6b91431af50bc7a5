// Residency WAL suite (DESIGN.md §12): on-disk framing round trips, torn
// tails end replay without poisoning the prefix, kill -9 loses exactly the
// unflushed buffer, fold() implements the section semantics (last-writer
// importance, FIFO homophily, LRU ssd), and a listener-streamed cache can
// be rebuilt warm — including across a shard-count change. Under injected
// write faults (short write, ENOSPC, EIO) a failed flush or synced append
// leaves the log at its last good length, and a retry loses nothing. The
// log and snapshot bytes of a seeded run are pinned in a golden file.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/semantic_cache.hpp"
#include "golden_rows.hpp"
#include "storage/ssd_tier.hpp"
#include "storage/wal.hpp"
#include "util/rng.hpp"

namespace spider {
namespace {

using cache::ResidencyOp;
using cache::ResidencyRecord;
using cache::RestoreImage;

class WalTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("spider_wal_test_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    [[nodiscard]] storage::WalConfig config(bool sync = false) const {
        return {.enabled = true, .dir = dir_.string(),
                .sync_every_append = sync};
    }

    std::filesystem::path dir_;
};

ResidencyRecord admit(std::uint32_t id, double score) {
    return {.op = ResidencyOp::kAdmitImportance, .id = id, .score = score};
}

TEST_F(WalTest, DisabledWalIsANoOp) {
    storage::CacheWal wal{storage::WalConfig{}};
    wal.append(admit(1, 0.5));
    wal.flush();
    EXPECT_TRUE(wal.load().empty());
    EXPECT_EQ(wal.appended_records(), 0U);
}

TEST_F(WalTest, AppendFlushLoadRoundTripsAllRecordKinds) {
    storage::CacheWal wal{config()};
    wal.append(admit(3, 0.25));
    wal.append(admit(7, 0.75));
    wal.append({.op = ResidencyOp::kScoreUpdate, .id = 3, .score = 0.9});
    wal.append({.op = ResidencyOp::kAdmitHomophily,
                .id = 11,
                .generation = 42,
                .neighbors = {12, 13, 14}});
    wal.append({.op = ResidencyOp::kSsdInsert, .id = 21});
    wal.flush();

    const RestoreImage image = wal.load();
    ASSERT_EQ(image.importance.size(), 2U);
    // Deterministic order: sorted by id after the last-writer fold.
    EXPECT_EQ(image.importance[0].first, 3U);
    EXPECT_DOUBLE_EQ(image.importance[0].second, 0.9);  // score update won
    EXPECT_EQ(image.importance[1].first, 7U);
    ASSERT_EQ(image.homophily.size(), 1U);
    EXPECT_EQ(image.homophily[0].first, 11U);
    EXPECT_EQ(image.homophily[0].second,
              (std::vector<std::uint32_t>{12, 13, 14}));
    EXPECT_EQ(image.ssd, (std::vector<std::uint32_t>{21}));
    EXPECT_EQ(wal.dropped_records(), 0U);
}

TEST_F(WalTest, KillLosesExactlyTheUnflushedTail) {
    storage::CacheWal wal{config()};
    wal.append(admit(1, 0.1));
    wal.flush();
    wal.append(admit(2, 0.2));  // buffered, never flushed
    wal.drop_unflushed();       // kill -9
    const RestoreImage image = wal.load();
    ASSERT_EQ(image.importance.size(), 1U);
    EXPECT_EQ(image.importance[0].first, 1U);
}

TEST_F(WalTest, SyncEveryAppendSurvivesTheKill) {
    storage::CacheWal wal{config(/*sync=*/true)};
    wal.append(admit(1, 0.1));
    wal.append(admit(2, 0.2));
    wal.drop_unflushed();
    EXPECT_EQ(wal.load().importance.size(), 2U);
}

TEST_F(WalTest, TornTailEndsReplayButKeepsThePrefix) {
    {
        storage::CacheWal wal{config()};
        for (std::uint32_t id = 0; id < 10; ++id) {
            wal.append(admit(id, 0.1 * id));
        }
        wal.flush();
    }
    // Tear the last record: chop a few bytes off the log file, the way an
    // unclean death mid-write leaves it.
    const auto log = dir_ / "cache.wal";
    const auto size = std::filesystem::file_size(log);
    std::filesystem::resize_file(log, size - 5);

    storage::CacheWal wal{config()};
    const RestoreImage image = wal.load();
    EXPECT_EQ(image.importance.size(), 9U);
    EXPECT_EQ(wal.dropped_records(), 1U);
}

TEST_F(WalTest, CorruptChecksumStopsReplayAtTheDamage) {
    {
        storage::CacheWal wal{config()};
        for (std::uint32_t id = 0; id < 10; ++id) {
            wal.append(admit(id, 0.1));
        }
        wal.flush();
    }
    // Flip one payload byte in the middle of the file.
    const auto log = dir_ / "cache.wal";
    std::fstream f{log, std::ios::in | std::ios::out | std::ios::binary};
    const auto size = std::filesystem::file_size(log);
    f.seekp(static_cast<std::streamoff>(size / 2));
    const char bad = '\xFF';
    f.write(&bad, 1);
    f.close();

    storage::CacheWal wal{config()};
    const RestoreImage image = wal.load();
    EXPECT_LT(image.importance.size(), 10U);
    EXPECT_EQ(wal.dropped_records(), 1U);
}

TEST_F(WalTest, CompactReplacesSnapshotAndTruncatesTheLog) {
    storage::CacheWal wal{config()};
    for (std::uint32_t id = 0; id < 5; ++id) wal.append(admit(id, 0.1));
    RestoreImage snapshot;
    snapshot.importance = {{100, 1.0}, {101, 2.0}};
    snapshot.ssd = {200, 201};
    wal.compact(snapshot);
    // Pre-compaction records are gone; the snapshot is the new base, and
    // later appends fold on top of it.
    wal.append(admit(102, 3.0));
    wal.append({.op = ResidencyOp::kEvictImportance, .id = 100});
    wal.flush();
    const RestoreImage image = wal.load();
    ASSERT_EQ(image.importance.size(), 2U);
    EXPECT_EQ(image.importance[0].first, 101U);
    EXPECT_EQ(image.importance[1].first, 102U);
    EXPECT_EQ(image.ssd, (std::vector<std::uint32_t>{200, 201}));
}

TEST_F(WalTest, FoldImplementsSectionSemantics) {
    std::vector<ResidencyRecord> records;
    // Importance: last writer wins, evict removes.
    records.push_back(admit(1, 0.1));
    records.push_back(admit(2, 0.2));
    records.push_back({.op = ResidencyOp::kScoreUpdate, .id = 1, .score = 0.9});
    records.push_back({.op = ResidencyOp::kEvictImportance, .id = 2});
    // Homophily: FIFO order; re-admitting moves the key to the back.
    records.push_back({.op = ResidencyOp::kAdmitHomophily, .id = 10,
                       .neighbors = {11}});
    records.push_back({.op = ResidencyOp::kAdmitHomophily, .id = 20,
                       .neighbors = {21}});
    records.push_back({.op = ResidencyOp::kAdmitHomophily, .id = 10,
                       .neighbors = {12}});
    // Ssd: LRU order; re-insert is a recency touch.
    records.push_back({.op = ResidencyOp::kSsdInsert, .id = 30});
    records.push_back({.op = ResidencyOp::kSsdInsert, .id = 31});
    records.push_back({.op = ResidencyOp::kSsdInsert, .id = 30});
    records.push_back({.op = ResidencyOp::kSsdInsert, .id = 32});
    records.push_back({.op = ResidencyOp::kSsdEvict, .id = 31});

    const RestoreImage image =
        storage::CacheWal::fold(RestoreImage{}, records);
    ASSERT_EQ(image.importance.size(), 1U);
    EXPECT_EQ(image.importance[0].first, 1U);
    EXPECT_DOUBLE_EQ(image.importance[0].second, 0.9);
    ASSERT_EQ(image.homophily.size(), 2U);
    EXPECT_EQ(image.homophily[0].first, 20U);  // 10 moved to the back
    EXPECT_EQ(image.homophily[1].first, 10U);
    EXPECT_EQ(image.homophily[1].second, (std::vector<std::uint32_t>{12}));
    EXPECT_EQ(image.ssd, (std::vector<std::uint32_t>{30, 32}));
}

// ------------------------------------------------- warm restart, end to end

TEST_F(WalTest, ListenerStreamedCacheRebuildsWarmAcrossShardCountChange) {
    storage::CacheWal wal{config()};
    const cache::ResidencyListener listener =
        [&wal](const ResidencyRecord& rec) { wal.append(rec); };

    cache::TwoLayerSemanticCache before{64, 0.5, /*shards=*/1};
    before.set_residency_listener(listener);
    for (std::uint32_t id = 0; id < 200; ++id) {
        before.on_miss_fetched(id, 0.001 * id);
    }
    for (std::uint32_t key = 300; key < 320; ++key) {
        const std::uint32_t nb[] = {key + 1, key + 2};
        before.update_homophily(key, nb);
    }
    wal.flush();
    const std::size_t pre =
        before.importance_size() + before.homophily_size();
    ASSERT_GT(pre, 0U);

    wal.drop_unflushed();  // kill -9 (everything relevant already flushed)
    cache::TwoLayerSemanticCache after{64, 0.5, /*shards=*/4};
    const std::size_t restored = after.restore_from_wal(wal.load());
    EXPECT_GE(restored * 2, pre);  // the chaos-harness recovery bar
    EXPECT_EQ(after.importance_size(), before.importance_size());
    EXPECT_EQ(after.homophily_size(), before.homophily_size());
    // The most important ids survived the restore's capacity filter.
    for (std::uint32_t id = 190; id < 200; ++id) {
        EXPECT_NE(after.lookup(id).kind, cache::HitKind::kMiss) << id;
    }
}

TEST_F(WalTest, SsdRestoreIntoSmallerTierStreamsEvictions) {
    // Regression: restore() must report the evictions it performs while
    // replaying into a smaller tier, or the post-restart WAL silently
    // drifts from true residency and the next restart resurrects ids the
    // tier no longer holds.
    storage::CacheWal wal{config()};
    storage::SsdTier before{storage::SsdTierConfig{.enabled = true,
                                                   .capacity_items = 8}};
    before.set_residency_listener(
        [&wal](const ResidencyRecord& rec) { wal.append(rec); });
    for (std::uint32_t id = 0; id < 12; ++id) before.insert(id);
    wal.flush();

    // Restart into a tier half the size, listener attached BEFORE
    // restore — the simulator's order. Replay must evict 4 ids and
    // stream those evictions back into the same log so the fold
    // converges to the live tier.
    const RestoreImage image = wal.load();
    storage::SsdTier after{storage::SsdTierConfig{.enabled = true,
                                                  .capacity_items = 4}};
    after.set_residency_listener(
        [&wal](const ResidencyRecord& rec) { wal.append(rec); });
    EXPECT_EQ(after.restore(image.ssd), 4U);
    wal.flush();

    // The WAL's fold now matches the live tier exactly; a second
    // restart would not resurrect the evicted ids.
    EXPECT_EQ(wal.load().ssd, after.dump_residency());
    EXPECT_EQ(after.resident_items(), 4U);
}

TEST_F(WalTest, SsdTierRoundTripsThroughListenerAndRestore) {
    storage::CacheWal wal{config()};
    storage::SsdTier before{storage::SsdTierConfig{.enabled = true,
                                                   .capacity_items = 8}};
    before.set_residency_listener(
        [&wal](const ResidencyRecord& rec) { wal.append(rec); });
    for (std::uint32_t id = 0; id < 12; ++id) before.insert(id);  // evicts 0-3
    wal.flush();

    storage::SsdTier after{storage::SsdTierConfig{.enabled = true,
                                                  .capacity_items = 8}};
    const RestoreImage image = wal.load();
    EXPECT_EQ(after.restore(image.ssd), 8U);
    EXPECT_EQ(after.dump_residency(), before.dump_residency());
    // Same recency horizon: the next insert evicts the same victim.
    before.insert(100);
    after.insert(100);
    EXPECT_EQ(after.dump_residency(), before.dump_residency());
}

// ------------------------------------------------------ golden on-disk bytes

// The log and snapshot formats, pinned in data: a seeded stream of every
// ResidencyOp (homophily admits carry 0..8 neighbours, and some other ops
// carry a list too, which the format encodes for any op) is appended,
// flushed at intervals and folded by compact(); a reopened WAL must load
// the same image. Each file's bytes are hashed and compared with
// tests/golden/storage_bytes.txt.
class WalGolden : public WalTest {
protected:
    [[nodiscard]] std::string file_row(const char* when,
                                       const std::string& name) const {
        std::ifstream in{dir_ / name, std::ios::binary};
        const std::string bytes{std::istreambuf_iterator<char>{in}, {}};
        return golden::row_of(
            "wal %s %s bytes=%zu fnv=%016llx", when, name.c_str(),
            bytes.size(),
            static_cast<unsigned long long>(golden::fnv1a(
                golden::kFnvBasis, bytes.data(), bytes.size())));
    }

    static std::string image_row(const char* when, const RestoreImage& image) {
        std::uint64_t h = golden::kFnvBasis;
        for (const auto& [id, score] : image.importance) {
            h = golden::fnv1a(h, &id, sizeof id);
            h = golden::fnv1a(h, &score, sizeof score);
        }
        for (const auto& [key, neighbors] : image.homophily) {
            h = golden::fnv1a(h, &key, sizeof key);
            h = golden::fnv1a(h, neighbors.data(),
                              neighbors.size() * sizeof neighbors[0]);
        }
        h = golden::fnv1a(h, image.ssd.data(),
                          image.ssd.size() * sizeof image.ssd[0]);
        return golden::row_of(
            "wal %s image importance=%zu homophily=%zu ssd=%zu fnv=%016llx",
            when, image.importance.size(), image.homophily.size(),
            image.ssd.size(), static_cast<unsigned long long>(h));
    }
};

TEST_F(WalGolden, EveryOpThenCompactAndReload) {
    util::Rng rng{2027};
    const auto record = [&rng] {
        ResidencyRecord r;
        r.op = static_cast<ResidencyOp>(1 + rng.uniform_index(7));
        r.id = static_cast<std::uint32_t>(rng.uniform_index(500));
        r.score = rng.uniform(-1.0, 4.0);
        r.generation = rng.next() >> 24;
        const bool listed = r.op == ResidencyOp::kAdmitHomophily ||
                            rng.uniform_index(10) == 0;
        const std::uint64_t count = listed ? rng.uniform_index(9) : 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            r.neighbors.push_back(
                static_cast<std::uint32_t>(rng.uniform_index(500)));
        }
        return r;
    };
    std::vector<std::string> rows;
    {
        storage::CacheWal wal{config()};
        for (int i = 0; i < 3000; ++i) {
            wal.append(record());
            if (i % 700 == 699) wal.flush();
        }
        wal.flush();
        rows.push_back(file_row("appended", "cache.wal"));
        const RestoreImage image = wal.load();
        rows.push_back(image_row("appended", image));
        wal.compact(image);
        rows.push_back(file_row("compacted", "cache.snapshot"));
        rows.push_back(file_row("compacted", "cache.wal"));
        for (int i = 0; i < 200; ++i) wal.append(record());
    }  // clean close flushes the tail
    rows.push_back(file_row("closed", "cache.wal"));
    {
        storage::CacheWal synced{config(true)};
        for (int i = 0; i < 50; ++i) synced.append(record());
        synced.drop_unflushed();  // nothing is buffered to lose
        rows.push_back(file_row("synced", "cache.wal"));
    }
    storage::CacheWal reopened{config()};
    rows.push_back(image_row("reopened", reopened.load()));
    rows.push_back(golden::row_of(
        "wal reopened dropped=%llu",
        static_cast<unsigned long long>(reopened.dropped_records())));
    golden::expect_golden("storage_bytes.txt", rows, "CacheWal", "wal");
}

// ------------------------------------------------- injected write faults

class WalFault : public WalTest,
                 public ::testing::WithParamInterface<storage::WriteFaults::Kind> {
};

TEST_P(WalFault, FailedFlushKeepsTheLogAtItsLastGoodLength) {
    storage::WriteFaults faults{.kind = GetParam()};
    const auto log = dir_ / "cache.wal";
    {
        storage::CacheWal wal{config(), &faults};
        for (std::uint32_t id = 0; id < 5; ++id) wal.append(admit(id, 0.1));
        wal.flush();
        const auto good = std::filesystem::file_size(log);
        ASSERT_GT(good, 0U);
        for (std::uint32_t id = 5; id < 10; ++id) wal.append(admit(id, 0.1));
        faults.nth = faults.appends + 1;
        EXPECT_THROW(wal.flush(), std::runtime_error);
        EXPECT_EQ(std::filesystem::file_size(log), good);
        wal.flush();  // the retry
        EXPECT_EQ(std::filesystem::file_size(log), 2 * good);
    }
    storage::CacheWal reopened{config()};
    EXPECT_EQ(reopened.load().importance.size(), 10U);
    EXPECT_EQ(reopened.dropped_records(), 0U);
}

TEST_P(WalFault, FailedSyncedAppendKeepsTheRecordForTheRetry) {
    storage::WriteFaults faults{.kind = GetParam()};
    const auto log = dir_ / "cache.wal";
    {
        storage::CacheWal wal{config(/*sync=*/true), &faults};
        for (std::uint32_t id = 0; id < 3; ++id) wal.append(admit(id, 0.1));
        const auto good = std::filesystem::file_size(log);
        faults.nth = faults.appends + 1;
        EXPECT_THROW(wal.append(admit(3, 0.1)), std::runtime_error);
        EXPECT_EQ(std::filesystem::file_size(log), good);
        wal.flush();  // the retry writes the buffered record
        wal.append(admit(4, 0.1));
        wal.drop_unflushed();  // kill -9: every record already reached the OS
    }
    storage::CacheWal reopened{config()};
    EXPECT_EQ(reopened.load().importance.size(), 5U);
    EXPECT_EQ(reopened.dropped_records(), 0U);
}

TEST_P(WalFault, FailedCompactionKeepsThePreviousSnapshot) {
    storage::WriteFaults faults{.kind = GetParam()};
    storage::CacheWal wal{config(), &faults};
    RestoreImage first;
    first.importance = {{1, 1.0}};
    wal.compact(first);
    RestoreImage second;
    second.importance = {{2, 2.0}, {3, 3.0}};
    faults.nth = faults.appends + 1;
    EXPECT_THROW(wal.compact(second), std::runtime_error);
    EXPECT_EQ(wal.load().importance, first.importance);
    wal.compact(second);  // the retry
    EXPECT_EQ(wal.load().importance, second.importance);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, WalFault,
    ::testing::Values(storage::WriteFaults::Kind::kShortWrite,
                      storage::WriteFaults::Kind::kNoSpace,
                      storage::WriteFaults::Kind::kIo),
    [](const ::testing::TestParamInfo<storage::WriteFaults::Kind>& info) {
        return std::string{storage::to_string(info.param)};
    });

}  // namespace
}  // namespace spider

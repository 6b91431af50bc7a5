// SSD block store suite (DESIGN.md §14): segment-file round trips,
// rotation + reopen of sealed segments, torn-tail and corrupted-CRC
// recovery, bloom FPR against the theoretical bound, whole-segment GC,
// kill -9 payload durability (flushed bytes come back identical), fence
// slices at every stride boundary with their per-hit read cost, and
// flush/seal under injected write faults (short write, ENOSPC, EIO), and
// the segment bytes of a seeded 20k-op run pinned in a golden file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden_rows.hpp"
#include "storage/ssd_block_store.hpp"
#include "util/rng.hpp"

namespace spider::storage {
namespace {

namespace fs = std::filesystem;

class SsdBlockStoreTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("spider_blockstore_test_" + std::to_string(::getpid()) +
                "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    [[nodiscard]] SsdBlockStoreConfig config(
        std::size_t segment_bytes = 4U << 20) const {
        SsdBlockStoreConfig c;
        c.dir = dir_.string();
        c.segment_bytes = segment_bytes;
        return c;
    }

    static std::vector<std::uint8_t> payload_for(std::uint32_t id,
                                                 std::size_t size = 64) {
        std::vector<std::uint8_t> bytes(size);
        std::mt19937 rng{id * 2654435761U + 1};
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
        return bytes;
    }

    /// Bytes of every segment file on disk (0 before the first write).
    [[nodiscard]] std::uint64_t bytes_on_disk() const {
        std::uint64_t n = 0;
        for (const auto& entry : fs::directory_iterator(dir_)) {
            if (entry.path().extension() == ".spb") n += entry.file_size();
        }
        return n;
    }

    [[nodiscard]] std::size_t segment_files() const {
        std::size_t n = 0;
        for (const auto& entry : fs::directory_iterator(dir_)) {
            if (entry.path().extension() == ".spb") ++n;
        }
        return n;
    }

    fs::path dir_;
};

TEST_F(SsdBlockStoreTest, RejectsEmptyDirectory) {
    EXPECT_THROW(SsdBlockStore{SsdBlockStoreConfig{}},
                 std::invalid_argument);
}

TEST_F(SsdBlockStoreTest, RoundTripsPayloadsAndOverwriteWins) {
    SsdBlockStore store{config()};
    for (std::uint32_t id = 0; id < 100; ++id) {
        store.write(id, payload_for(id));
    }
    EXPECT_EQ(store.live_items(), 100U);
    for (std::uint32_t id = 0; id < 100; ++id) {
        const auto got = store.read(id);
        ASSERT_TRUE(got.has_value()) << id;
        EXPECT_EQ(*got, payload_for(id)) << id;
    }
    EXPECT_FALSE(store.read(5000).has_value());

    // Overwrite: the newest version wins even before any flush.
    const auto updated = payload_for(7, 128);
    store.write(7, updated);
    EXPECT_EQ(store.live_items(), 100U);
    EXPECT_EQ(store.read(7).value(), updated);
}

TEST_F(SsdBlockStoreTest, RotationSealsSegmentsAndReopenReadsThemBack) {
    constexpr std::size_t kSegment = 8 * 1024;  // forces many rotations
    {
        SsdBlockStore store{config(kSegment)};
        for (std::uint32_t id = 0; id < 400; ++id) {
            store.write(id, payload_for(id));
        }
        store.flush();
        EXPECT_GE(store.stats().segments_sealed, 3U);
        EXPECT_GT(store.segment_count(), 1U);
        EXPECT_GT(store.sealed_bytes(), 0U);
    }
    // Fresh process: recovery rebuilds the owner map from headers,
    // trailers, and sealed indexes alone.
    SsdBlockStore store{config(kSegment)};
    EXPECT_EQ(store.live_items(), 400U);
    EXPECT_EQ(store.stats().recovered_records, 400U);
    EXPECT_EQ(store.stats().dropped_tail_records, 0U);
    for (std::uint32_t id = 0; id < 400; ++id) {
        const auto got = store.read(id);
        ASSERT_TRUE(got.has_value()) << id;
        EXPECT_EQ(*got, payload_for(id)) << id;
    }
}

TEST_F(SsdBlockStoreTest, TornTailIsTruncatedAndPrefixSurvives) {
    fs::path active;
    {
        SsdBlockStore store{config()};
        for (std::uint32_t id = 0; id < 10; ++id) {
            store.write(id, payload_for(id));
        }
        store.flush();
        for (const auto& entry : fs::directory_iterator(dir_)) {
            active = entry.path();
        }
    }
    // Chop mid-record, the way a crash mid-write leaves the file.
    const auto size = fs::file_size(active);
    fs::resize_file(active, size - 5);

    SsdBlockStore store{config()};
    EXPECT_EQ(store.stats().dropped_tail_records, 1U);
    EXPECT_EQ(store.live_items(), 9U);
    for (std::uint32_t id = 0; id < 9; ++id) {
        EXPECT_EQ(store.read(id).value(), payload_for(id)) << id;
    }
    EXPECT_FALSE(store.read(9).has_value());

    // The store keeps working after the truncated recovery.
    store.write(9, payload_for(9));
    store.flush();
    EXPECT_EQ(store.read(9).value(), payload_for(9));
}

TEST_F(SsdBlockStoreTest, CorruptedRecordCrcEndsTheRecoveryScan) {
    fs::path active;
    std::uint64_t flushed = 0;
    {
        SsdBlockStore store{config()};
        for (std::uint32_t id = 0; id < 10; ++id) {
            store.write(id, payload_for(id));
        }
        store.flush();
        for (const auto& entry : fs::directory_iterator(dir_)) {
            active = entry.path();
            flushed = fs::file_size(active);
        }
    }
    // Flip one byte inside the last record's payload: the frame length
    // is intact but the CRC no longer matches.
    {
        std::fstream f{active, std::ios::in | std::ios::out |
                                   std::ios::binary};
        f.seekp(static_cast<std::streamoff>(flushed - 3));
        char byte = 0;
        f.seekg(static_cast<std::streamoff>(flushed - 3));
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0xFF);
        f.seekp(static_cast<std::streamoff>(flushed - 3));
        f.write(&byte, 1);
    }

    SsdBlockStore store{config()};
    EXPECT_EQ(store.stats().dropped_tail_records, 1U);
    EXPECT_EQ(store.live_items(), 9U);
    for (std::uint32_t id = 0; id < 9; ++id) {
        EXPECT_EQ(store.read(id).value(), payload_for(id)) << id;
    }
    EXPECT_FALSE(store.read(9).has_value());
}

TEST_F(SsdBlockStoreTest, BloomSkipsAbsentIdsWithoutTouchingDisk) {
    SsdBlockStore store{config()};
    for (std::uint32_t id = 0; id < 1000; ++id) {
        store.write(id, payload_for(id, 32));
    }
    store.seal_active();  // bloom is exact after seal
    const std::uint64_t disk_before = store.stats().disk_reads;
    for (std::uint32_t id = 100000; id < 101000; ++id) {
        EXPECT_FALSE(store.read(id).has_value());
    }
    // Bloom-gated: the overwhelming majority of absent probes do zero
    // disk reads (each FP costs at most one index-block read).
    const std::uint64_t fp = store.stats().bloom_false_positives;
    EXPECT_LE(store.stats().disk_reads - disk_before, fp);
    EXPECT_GT(store.stats().bloom_skips, 900U);
}

TEST_F(SsdBlockStoreTest, BloomFalsePositiveRateWithinTwiceTheoretical) {
    constexpr std::size_t kKeys = 4000;
    constexpr std::size_t kProbes = 40000;
    constexpr std::size_t kBitsPerKey = 10;
    BloomFilter bloom{kKeys, kBitsPerKey};
    for (std::uint32_t id = 0; id < kKeys; ++id) bloom.add(id);
    for (std::uint32_t id = 0; id < kKeys; ++id) {
        EXPECT_TRUE(bloom.maybe_contains(id)) << id;  // no false negatives
    }
    std::size_t false_positives = 0;
    for (std::uint32_t id = 1000000; id < 1000000 + kProbes; ++id) {
        if (bloom.maybe_contains(id)) ++false_positives;
    }
    const double fpr =
        static_cast<double>(false_positives) / static_cast<double>(kProbes);
    const double theoretical = BloomFilter::theoretical_fpr(kBitsPerKey);
    EXPECT_GT(theoretical, 0.0);
    EXPECT_LE(fpr, 2.0 * theoretical)
        << "measured " << fpr << " vs theoretical " << theoretical;
}

TEST_F(SsdBlockStoreTest, ZeroBitsPerKeyDisablesTheFilter) {
    BloomFilter bloom{100, 0};
    EXPECT_TRUE(bloom.maybe_contains(42));  // always maybe
    BloomFilter empty{100, 10};
    EXPECT_FALSE(empty.maybe_contains(42));  // nothing added yet
}

TEST_F(SsdBlockStoreTest, GcDeletesFullyStaleSegments) {
    constexpr std::size_t kSegment = 8 * 1024;
    SsdBlockStore store{config(kSegment)};
    for (std::uint32_t id = 0; id < 100; ++id) {
        store.write(id, payload_for(id));
    }
    store.seal_active();
    const std::size_t sealed_before = store.sealed_bytes();
    const std::size_t segments_before = store.segment_count();
    ASSERT_GT(sealed_before, 0U);

    // Overwriting every id makes the old segments fully stale; erase
    // behaves the same way. Whole-segment GC deletes their files.
    for (std::uint32_t id = 0; id < 100; ++id) {
        store.write(id, payload_for(id, 96));
    }
    store.flush();
    EXPECT_GT(store.stats().segments_collected, 0U);
    EXPECT_LT(store.segment_count(), segments_before + 2);
    EXPECT_EQ(segment_files(), store.segment_count());
    // Everything still reads back — from the new copies.
    for (std::uint32_t id = 0; id < 100; ++id) {
        EXPECT_EQ(store.read(id).value(), payload_for(id, 96)) << id;
    }

    // Erase-driven GC: stale-only sealed segments vanish entirely.
    store.seal_active();
    const auto collected_before = store.stats().segments_collected;
    for (std::uint32_t id = 0; id < 100; ++id) store.erase(id);
    EXPECT_GT(store.stats().segments_collected, collected_before);
    EXPECT_EQ(store.live_items(), 0U);
}

TEST_F(SsdBlockStoreTest, KillMinusNineKeepsFlushedPayloadsByteIdentical) {
    SsdBlockStore store{config()};
    for (std::uint32_t id = 0; id < 50; ++id) {
        store.write(id, payload_for(id));
    }
    store.flush();  // durable horizon
    for (std::uint32_t id = 50; id < 80; ++id) {
        store.write(id, payload_for(id));  // page cache only
    }
    store.drop_unflushed();  // kill -9 + restart recovery

    EXPECT_EQ(store.live_items(), 50U);
    for (std::uint32_t id = 0; id < 50; ++id) {
        const auto got = store.read(id);
        ASSERT_TRUE(got.has_value()) << id;
        EXPECT_EQ(*got, payload_for(id)) << id;
    }
    for (std::uint32_t id = 50; id < 80; ++id) {
        EXPECT_FALSE(store.read(id).has_value()) << id;
    }
    // The reborn store accepts new writes on the recovered tail.
    store.write(90, payload_for(90));
    EXPECT_EQ(store.read(90).value(), payload_for(90));
}

TEST_F(SsdBlockStoreTest, ClearRemovesEveryFileAndStartsEmpty) {
    SsdBlockStore store{config(8 * 1024)};
    for (std::uint32_t id = 0; id < 200; ++id) {
        store.write(id, payload_for(id));
    }
    store.flush();
    ASSERT_GT(segment_files(), 0U);
    store.clear();
    EXPECT_EQ(store.live_items(), 0U);
    EXPECT_EQ(store.sealed_bytes(), 0U);
    EXPECT_FALSE(store.read(0).has_value());
    store.write(1, payload_for(1));
    EXPECT_EQ(store.read(1).value(), payload_for(1));
}

TEST_F(SsdBlockStoreTest, ContainsTracksLivenessNotDiskBytes) {
    SsdBlockStore store{config()};
    store.write(1, payload_for(1));
    EXPECT_TRUE(store.contains(1));
    store.erase(1);
    EXPECT_FALSE(store.contains(1));
    // Bytes may still sit in the active segment (LSM tombstone horizon);
    // liveness is the owner map's call, which is what the tier consults.
}

// ------------------------------------------------------------ fence slices

// Header 16 B; a frame is [len][crc][id | payload].
constexpr std::uint64_t kHeaderBytes = 16;
constexpr std::uint64_t kFrameBytes = 8 + 4 + 64;
constexpr std::uint64_t kEntryBytes = 16;
constexpr std::uint64_t kStride = 32;

struct ReadCost {
    std::uint64_t disk_reads = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t false_positives = 0;
};

ReadCost cost_of(SsdBlockStore& store, std::uint32_t id,
                 std::optional<std::vector<std::uint8_t>>& out) {
    const SsdBlockStoreStats before = store.stats();
    out = store.read(id);
    const SsdBlockStoreStats& after = store.stats();
    return {after.disk_reads - before.disk_reads,
            after.bytes_read - before.bytes_read,
            after.bloom_false_positives - before.bloom_false_positives};
}

TEST_F(SsdBlockStoreTest, FenceSlicesCoverEveryStrideBoundary) {
    // Five full strides and a partial one; ids step by 3 so absent ids
    // sit between present ones. With the bloom off every probe reaches
    // the fences, and the empty active segment answers each probe from
    // its in-memory index (one false positive, no I/O).
    constexpr std::uint32_t kCount = 5 * kStride + 7;
    const auto id_at = [](std::uint64_t i) {
        return static_cast<std::uint32_t>(100 + 3 * i);
    };
    SsdBlockStoreConfig c = config();
    c.bloom_bits_per_key = 0;

    const auto check = [&](SsdBlockStore& store) {
        std::optional<std::vector<std::uint8_t>> got;
        for (std::uint64_t first = 0; first < kCount; first += kStride) {
            const std::uint64_t last =
                std::min<std::uint64_t>(first + kStride, kCount) - 1;
            const std::uint64_t slice = (last - first + 1) * kEntryBytes;
            for (const std::uint64_t i : {first, last}) {
                const ReadCost cost = cost_of(store, id_at(i), got);
                ASSERT_TRUE(got.has_value()) << i;
                EXPECT_EQ(*got, payload_for(id_at(i))) << i;
                // A sealed hit: one slice pread plus one record pread.
                EXPECT_EQ(cost.disk_reads, 2U) << i;
                EXPECT_EQ(cost.bytes_read, slice + kFrameBytes) << i;
                EXPECT_LE(cost.bytes_read, kStride * kEntryBytes + kFrameBytes);
                EXPECT_EQ(cost.false_positives, 1U) << i;  // the active one
            }
        }

        // Below the first fence: ruled out without I/O.
        ReadCost cost = cost_of(store, id_at(0) - 1, got);
        EXPECT_FALSE(got.has_value());
        EXPECT_EQ(cost.disk_reads, 0U);
        EXPECT_EQ(cost.bytes_read, 0U);
        EXPECT_EQ(cost.false_positives, 1U);
        // Between two fences: one full slice read, a false positive.
        cost = cost_of(store, id_at(2 * kStride + 5) + 1, got);
        EXPECT_FALSE(got.has_value());
        EXPECT_EQ(cost.disk_reads, 1U);
        EXPECT_EQ(cost.bytes_read, kStride * kEntryBytes);
        EXPECT_EQ(cost.false_positives, 2U);
        // Above the last id: the partial last slice, a false positive.
        cost = cost_of(store, id_at(kCount - 1) + 1, got);
        EXPECT_FALSE(got.has_value());
        EXPECT_EQ(cost.disk_reads, 1U);
        EXPECT_EQ(cost.bytes_read, 7 * kEntryBytes);
        EXPECT_EQ(cost.false_positives, 2U);
    };

    {
        SsdBlockStore store{c};
        for (std::uint32_t i = 0; i < kCount; ++i) {
            store.write(id_at(i), payload_for(id_at(i)));
        }
        store.seal_active();
        check(store);
    }
    // Reopened: the fences are rebuilt from the on-disk index block.
    SsdBlockStore reopened{c};
    EXPECT_EQ(reopened.live_items(), kCount);
    check(reopened);
}

TEST_F(SsdBlockStoreTest, UnsealedDiskHitReadsOnlyItsFrame) {
    SsdBlockStore store{config()};
    store.write(7, payload_for(7));
    std::optional<std::vector<std::uint8_t>> got;
    ReadCost cost = cost_of(store, 7, got);  // still buffered
    EXPECT_EQ(got.value(), payload_for(7));
    EXPECT_EQ(cost.disk_reads, 0U);
    store.flush();
    cost = cost_of(store, 7, got);
    EXPECT_EQ(got.value(), payload_for(7));
    EXPECT_EQ(cost.disk_reads, 1U);
    EXPECT_EQ(cost.bytes_read, kFrameBytes);
}

// ------------------------------------------------------ golden on-disk bytes

// The segment format, pinned in data: a seeded mix of writes (payloads of
// 0..299 bytes), erases, reads, seals and flushes over small segments, so
// rotation and whole-segment GC run many times; then an unflushed tail is
// dropped by a simulated kill -9 and the directory is reopened. Every
// segment file's bytes are hashed, and the reopened store's live ids,
// stats and payloads are compared with tests/golden/storage_bytes.txt.
class SsdBlockStoreGolden : public SsdBlockStoreTest {
protected:
    /// One row per segment file, in name order: size and FNV-1a of bytes.
    void add_file_rows(std::vector<std::string>& rows,
                       const char* when) const {
        std::vector<fs::path> files;
        for (const auto& entry : fs::directory_iterator(dir_)) {
            files.push_back(entry.path());
        }
        std::sort(files.begin(), files.end());
        for (const auto& path : files) {
            std::ifstream in{path, std::ios::binary};
            const std::string bytes{std::istreambuf_iterator<char>{in}, {}};
            rows.push_back(golden::row_of(
                "ssd %s %s bytes=%zu fnv=%016llx", when,
                path.filename().string().c_str(), bytes.size(),
                static_cast<unsigned long long>(golden::fnv1a(
                    golden::kFnvBasis, bytes.data(), bytes.size()))));
        }
    }

    static std::string stats_row(const char* when,
                                 const SsdBlockStore& store) {
        const SsdBlockStoreStats& s = store.stats();
        return golden::row_of(
                   "ssd %s writes=%llu reads=%llu hits=%llu skips=%llu "
                   "fp=%llu disk_reads=%llu",
                   when, static_cast<unsigned long long>(s.writes),
                   static_cast<unsigned long long>(s.reads),
                   static_cast<unsigned long long>(s.read_hits),
                   static_cast<unsigned long long>(s.bloom_skips),
                   static_cast<unsigned long long>(s.bloom_false_positives),
                   static_cast<unsigned long long>(s.disk_reads)) +
               golden::row_of(
                   " bytes_read=%llu sealed=%llu collected=%llu "
                   "recovered=%llu dropped=%llu",
                   static_cast<unsigned long long>(s.bytes_read),
                   static_cast<unsigned long long>(s.segments_sealed),
                   static_cast<unsigned long long>(s.segments_collected),
                   static_cast<unsigned long long>(s.recovered_records),
                   static_cast<unsigned long long>(s.dropped_tail_records)) +
               golden::row_of(" live=%zu used=%zu sealed_bytes=%zu "
                              "segments=%zu",
                              store.live_items(), store.bytes_used(),
                              store.sealed_bytes(), store.segment_count());
    }
};

TEST_F(SsdBlockStoreGolden, SeededOpsThenKillAndReopen) {
    constexpr std::size_t kSegmentBytes = 16U << 10;
    constexpr std::uint32_t kIdSpace = 700;
    std::vector<std::string> rows;
    std::uint64_t read_hash = golden::kFnvBasis;
    const auto hash_read = [&read_hash](std::uint32_t id,
                                        const auto& bytes) {
        read_hash = golden::fnv1a(read_hash, &id, sizeof id);
        if (!bytes) return;
        read_hash = golden::fnv1a(read_hash, bytes->data(), bytes->size());
    };
    {
        SsdBlockStore store{config(kSegmentBytes)};
        util::Rng rng{2026};
        for (std::uint32_t op = 0; op < 20'000; ++op) {
            const auto id =
                static_cast<std::uint32_t>(rng.uniform_index(kIdSpace));
            const std::uint64_t roll = rng.uniform_index(100);
            if (roll < 55) {
                store.write(id, payload_for(id ^ (op << 10),
                                            rng.uniform_index(300)));
            } else if (roll < 75) {
                store.erase(id);
            } else if (roll < 98) {
                hash_read(id, store.read(id));
            } else if (roll < 99) {
                store.seal_active();
            } else {
                store.flush();
            }
        }
        rows.push_back(stats_row("ops", store));
        rows.push_back(golden::row_of(
            "ssd ops read_hash=%016llx",
            static_cast<unsigned long long>(read_hash)));
        store.flush();
        add_file_rows(rows, "flushed");
        // An unflushed tail that the simulated kill -9 discards.
        for (std::uint32_t id = 0; id < 40; ++id) {
            store.write(id, payload_for(id + 100'000, 50));
        }
        store.drop_unflushed();
        rows.push_back(stats_row("dropped", store));
    }
    SsdBlockStore reopened{config(kSegmentBytes)};
    add_file_rows(rows, "reopened");
    const std::vector<std::uint32_t> ids = reopened.live_ids();
    rows.push_back(golden::row_of(
        "ssd reopened live_ids=%zu fnv=%016llx", ids.size(),
        static_cast<unsigned long long>(golden::fnv1a(
            golden::kFnvBasis, ids.data(), ids.size() * sizeof ids[0]))));
    read_hash = golden::kFnvBasis;
    for (std::uint32_t id = 0; id < kIdSpace; ++id) {
        hash_read(id, reopened.read(id));
    }
    rows.push_back(golden::row_of(
        "ssd reopened read_hash=%016llx",
        static_cast<unsigned long long>(read_hash)));
    rows.push_back(stats_row("reopened", reopened));
    golden::expect_golden("storage_bytes.txt", rows, "SsdBlockStore", "ssd");
}

// ----------------------------------------------------- injected write faults

class SsdBlockStoreFault
    : public SsdBlockStoreTest,
      public ::testing::WithParamInterface<WriteFaults::Kind> {};

TEST_P(SsdBlockStoreFault, FailedFlushKeepsTheTailAndARetryRecoversAll) {
    WriteFaults faults{.kind = GetParam()};
    {
        SsdBlockStore store{config(), &faults};
        for (std::uint32_t id = 0; id < 20; ++id) {
            store.write(id, payload_for(id));
        }
        store.flush();
        const std::uint64_t good = bytes_on_disk();
        EXPECT_EQ(good, kHeaderBytes + 20 * kFrameBytes);
        for (std::uint32_t id = 20; id < 40; ++id) {
            store.write(id, payload_for(id));
        }
        faults.nth = faults.appends + 1;
        EXPECT_THROW(store.flush(), std::runtime_error);
        EXPECT_EQ(bytes_on_disk(), good);
        // The tail stays buffered and readable.
        EXPECT_EQ(store.read(30).value(), payload_for(30));
        store.flush();  // the retry
        EXPECT_EQ(bytes_on_disk(), good + 20 * kFrameBytes);
    }
    SsdBlockStore reopened{config()};
    EXPECT_EQ(reopened.stats().dropped_tail_records, 0U);
    EXPECT_EQ(reopened.live_items(), 40U);
    for (std::uint32_t id = 0; id < 40; ++id) {
        EXPECT_EQ(reopened.read(id).value(), payload_for(id)) << id;
    }
}

TEST_P(SsdBlockStoreFault, FailedSealLeavesTheSegmentUnsealedAndARetrySeals) {
    // Sealing appends twice: the buffered records, then the index block
    // and trailer. Fail each in turn.
    for (const std::uint64_t failing : {1U, 2U}) {
        SCOPED_TRACE(failing == 1 ? "records fail" : "index block fails");
        fs::remove_all(dir_);
        WriteFaults faults{.kind = GetParam()};
        {
            SsdBlockStore store{config(), &faults};
            for (std::uint32_t id = 0; id < 50; ++id) {
                store.write(id, payload_for(id));
            }
            faults.nth = faults.appends + failing;
            EXPECT_THROW(store.seal_active(), std::runtime_error);
            EXPECT_EQ(store.stats().segments_sealed, 0U);
            EXPECT_EQ(bytes_on_disk(),
                      failing == 1 ? 0U : kHeaderBytes + 50 * kFrameBytes);
            for (std::uint32_t id = 0; id < 50; ++id) {
                EXPECT_EQ(store.read(id).value(), payload_for(id)) << id;
            }
            store.seal_active();  // the retry
            EXPECT_EQ(store.stats().segments_sealed, 1U);
        }
        SsdBlockStore reopened{config()};
        EXPECT_EQ(reopened.stats().dropped_tail_records, 0U);
        EXPECT_EQ(reopened.stats().recovered_records, 50U);
        EXPECT_GT(reopened.sealed_bytes(), 0U);  // reopened as sealed
        for (std::uint32_t id = 0; id < 50; ++id) {
            EXPECT_EQ(reopened.read(id).value(), payload_for(id)) << id;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SsdBlockStoreFault,
    ::testing::Values(WriteFaults::Kind::kShortWrite,
                      WriteFaults::Kind::kNoSpace, WriteFaults::Kind::kIo),
    [](const ::testing::TestParamInfo<WriteFaults::Kind>& info) {
        return std::string{to_string(info.param)};
    });

}  // namespace
}  // namespace spider::storage

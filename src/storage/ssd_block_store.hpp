#pragma once

// On-disk sample store for the SSD tier: append-only segment files in an
// LSM/sstable style (DESIGN.md §14).
//
// Each segment file `seg-<seq>.spb` is
//
//     [header: magic | version | seq]
//     [record]*            each framed [u32 len][u32 crc][u32 id | bytes]
//     [sorted id index]    one checksum32-framed blob, written at seal
//     [trailer: u32 index_len | u32 index_crc | u32 seal magic]
//
// reusing the WAL's checksum32 framing discipline (wire_format.hpp), so a
// torn tail on the active segment is detected the same way a torn WAL
// tail is: the recovery scan keeps the valid prefix and drops the rest.
//
// Read path: segments are probed newest -> oldest. A per-segment bloom
// filter (double hashing off SplitMix64, k ≈ 0.69 * bits_per_key) gates
// every probe, so lookups for absent ids touch no disk at all. Each
// segment holds one open storage::File from its first write (or from
// open) until it is collected, cleared or reopened, and reads it with
// pread. A sealed segment keeps its fences in RAM: the id of every 32nd
// entry of its sorted on-disk index. On a bloom pass the fences name the
// one index slice (at most 32 × 16 bytes) that can hold the id; that
// slice is pread and binary searched, then the record itself is pread.
// Both preads count in `disk_reads` and their bytes in `bytes_read`, so
// the bench can show the bloom and the fences eliminating them. An id
// below the first fence costs no read. RAM holds only the bloom, the
// fences and the index location of a sealed segment (LSM behavior: index
// and records stay on disk); the active segment keeps its full index
// because it is still being built.
//
// Write path mirrors CacheWal: appends are framed in place into a buffer
// in memory (the page-cache analogy) that the next active segment takes
// over at rotation, flush() persists, drop_unflushed() simulates kill -9 by
// discarding the buffered tail and re-running recovery on what disk
// actually holds. Overwrites go to the active segment; the older version
// becomes stale. GC is whole-segment: when every record in a sealed
// segment is stale (overwritten or erased), the file is deleted.
//
// Durability: flush() and sealing put bytes in the OS page cache. They
// survive kill -9 (what drop_unflushed() models) but not power loss; no
// fsync is issued. A write that fails part-way (short write, ENOSPC,
// EIO) is cut back by File::append, so a failed flush() or seal throws
// with the buffered tail and every offset unchanged, and a retry appends
// the same bytes at the same place.
//
// Thread safety: none — the owning SsdTier serializes access under its
// own mutex.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/file.hpp"
#include "util/id_map.hpp"

namespace spider::storage {

/// Plain (unblocked) Bloom filter over u32 sample ids: one bit array, k
/// probes by Kirsch–Mitzenmacher double hashing off the SplitMix64
/// finalizer, k = round(ln 2 * bits_per_key). bits_per_key == 0 disables the filter (always
/// maybe). An empty filter rejects everything.
class BloomFilter {
public:
    BloomFilter() = default;
    BloomFilter(std::size_t expected_keys, std::size_t bits_per_key);

    void add(std::uint32_t id);
    [[nodiscard]] bool maybe_contains(std::uint32_t id) const;
    [[nodiscard]] std::size_t bit_count() const { return nbits_; }
    [[nodiscard]] int hash_count() const { return k_; }

    /// Expected false-positive rate at `bits_per_key`: (1 - e^{-k/b})^k,
    /// the standard bound the FPR test checks against (≤ 2x).
    [[nodiscard]] static double theoretical_fpr(std::size_t bits_per_key);

private:
    std::vector<std::uint64_t> bits_;
    std::size_t nbits_ = 0;
    int k_ = 1;
    bool disabled_ = false;
};

struct SsdBlockStoreConfig {
    std::string dir;
    /// Soft byte budget; enforcement (via LRU eviction until whole
    /// segments free up) is the owning SsdTier's job. 0 = unbounded.
    std::size_t capacity_bytes = 0;
    /// Segment rotation threshold. Small segments GC promptly; large ones
    /// amortize index/bloom overhead.
    std::size_t segment_bytes = 4U << 20;
    /// Bloom sizing; 10 bits/key ≈ 0.8% theoretical FPR. 0 disables.
    std::size_t bloom_bits_per_key = 10;
};

struct SsdBlockStoreStats {
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;            ///< read() calls
    std::uint64_t read_hits = 0;        ///< read() calls returning bytes
    std::uint64_t bloom_skips = 0;      ///< segment probes skipped by bloom
    std::uint64_t bloom_false_positives = 0;  ///< bloom passed, index miss
    std::uint64_t disk_reads = 0;       ///< index-slice + record preads
    std::uint64_t bytes_read = 0;       ///< bytes those preads returned
    std::uint64_t segments_sealed = 0;
    std::uint64_t segments_collected = 0;     ///< whole-segment GC deletes
    std::uint64_t recovered_records = 0;      ///< live records seen at open
    std::uint64_t dropped_tail_records = 0;   ///< torn/corrupt frames cut
};

class SsdBlockStore {
public:
    /// `faults` injects write failures into every segment file (tests
    /// only; see WriteFaults) and must outlive the store.
    explicit SsdBlockStore(SsdBlockStoreConfig config,
                           WriteFaults* faults = nullptr);
    ~SsdBlockStore();

    SsdBlockStore(const SsdBlockStore&) = delete;
    SsdBlockStore& operator=(const SsdBlockStore&) = delete;

    /// Latest payload for `id` wins regardless of which segment holds it.
    void write(std::uint32_t id, std::span<const std::uint8_t> payload);

    /// Newest live version of `id`, or nullopt when absent / CRC-corrupt.
    /// May resurrect an erased id whose bytes still sit in a segment —
    /// callers (the SsdTier LRU) own liveness; see erase().
    [[nodiscard]] std::optional<std::vector<std::uint8_t>> read(
        std::uint32_t id);

    /// Marks `id` stale for GC accounting. Bytes stay on disk until the
    /// whole segment is stale, exactly like an LSM tombstone horizon.
    void erase(std::uint32_t id);

    /// Exact liveness check against the owner map (no bloom, no disk).
    [[nodiscard]] bool contains(std::uint32_t id) const;

    /// Persist the buffered tail of the active segment. On a write error
    /// it throws and keeps the tail buffered; a later flush() retries.
    void flush();

    /// Simulated kill -9: discard the unflushed tail, then recover from
    /// what disk actually holds (same scan as construction).
    void drop_unflushed();

    /// Seal the active segment now (write index + trailer, rotate).
    /// Normally rotation happens when a segment fills; tests and callers
    /// that want bloom-exact sealed segments use this directly.
    void seal_active();

    /// Delete every segment and start empty — the fresh-run reset,
    /// mirroring CacheWal::compact({}).
    void clear();

    [[nodiscard]] std::size_t live_items() const { return owner_.size(); }
    [[nodiscard]] std::vector<std::uint32_t> live_ids() const;
    /// Total on-disk + buffered bytes across all segments.
    [[nodiscard]] std::size_t bytes_used() const { return total_bytes_; }
    /// Bytes held by sealed segments — the portion GC can ever reclaim.
    [[nodiscard]] std::size_t sealed_bytes() const { return sealed_bytes_; }
    [[nodiscard]] std::size_t segment_count() const {
        return segments_.size();
    }
    [[nodiscard]] const SsdBlockStoreStats& stats() const { return stats_; }
    [[nodiscard]] const SsdBlockStoreConfig& config() const {
        return config_;
    }

private:
    struct RecordRef {
        std::uint64_t offset = 0;  ///< frame start (logical file offset)
        std::uint32_t frame_len = 0;
    };

    using RecordIndex = util::IdMap<RecordRef>;

    struct Segment {
        std::uint64_t seq = 0;
        std::string path;
        /// Open from the first write (or from open_dir) until the segment
        /// is collected, cleared or reopened.
        File file;
        bool sealed = false;
        /// Bytes durably on disk (valid prefix; excludes pending buffer).
        std::uint64_t file_bytes = 0;
        /// Total accounted bytes: file_bytes + pending.size().
        std::uint64_t total_bytes = 0;
        /// Buffered unflushed appends (active segment only). Records are
        /// framed straight into it; at rotation the next active segment
        /// takes over its storage.
        std::string pending;
        /// id -> newest record in this segment. Active segments only;
        /// sealed segments hand it on to the next active segment and rely
        /// on the on-disk index.
        RecordIndex index;
        /// On-disk index block location and entry count (sealed segments).
        std::uint64_t index_offset = 0;
        std::uint32_t index_count = 0;
        /// Id of every kFenceStride-th index entry (sealed segments).
        std::vector<std::uint32_t> fences;
        /// How many ids in this segment the owner map still points at.
        std::size_t live = 0;
        BloomFilter bloom;
    };

    [[nodiscard]] std::string segment_path(std::uint64_t seq) const;
    Segment& active_locked();
    /// All-or-nothing append; file_bytes moves only on success.
    void append_locked(Segment& seg, std::string_view bytes);
    void write_pending_locked(Segment& seg);
    /// One counted pread: exactly `len` bytes at `offset`, or nullopt.
    [[nodiscard]] std::optional<std::string> pread_locked(
        const Segment& seg, std::uint64_t offset, std::size_t len);
    void open_dir();
    /// Starts segment `seq`, reusing the storage of `pending` and `index`
    /// (the previous active segment's, emptied by its seal).
    void start_segment(std::uint64_t seq, std::string pending = {},
                       RecordIndex index = {});
    /// Seals the active segment and starts the next one.
    void rotate_locked();
    /// Scan an unsealed segment file, truncating a torn/corrupt tail.
    void recover_unsealed(Segment& seg);
    void seal_locked(Segment& seg);
    void maybe_collect(std::uint64_t seq);
    void account_owner(std::uint32_t id, std::uint64_t new_seq);
    [[nodiscard]] std::optional<std::vector<std::uint8_t>> read_from(
        Segment& seg, std::uint32_t id);

    SsdBlockStoreConfig config_;
    /// seq -> segment, ordered so rbegin() is newest.
    std::map<std::uint64_t, Segment> segments_;
    /// id -> seq of the segment holding its live version.
    util::IdMap<std::uint64_t> owner_;
    std::size_t total_bytes_ = 0;
    std::size_t sealed_bytes_ = 0;
    SsdBlockStoreStats stats_;
    WriteFaults* faults_ = nullptr;
};

}  // namespace spider::storage

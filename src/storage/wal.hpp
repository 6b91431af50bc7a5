#pragma once

// Append-only write-ahead log + compacted snapshot for cache residency
// (DESIGN.md §12, ROADMAP "crash-safe warm restarts"). The cache layers
// stream `cache::ResidencyRecord`s into `append()`; at stable points
// (epoch boundaries in the simulator) the owner folds the live state
// into `compact()`, which atomically replaces the snapshot and truncates
// the log. After a kill -9, `load()` replays snapshot + surviving log
// tail into a `cache::RestoreImage`.
//
// On-disk framing (both files, little-endian):
//
//   [u32 payload_len][u32 checksum][payload]
//   payload = u8 op | u32 id | f64 score | u64 generation
//             | u32 neighbor_count | neighbor_count * u32
//
// The checksum is a SplitMix64 avalanche over the payload folded to 32
// bits. A torn or corrupt record ends replay at that point — everything
// before the tear is recovered, everything after is discarded (counted
// in `dropped_records()`), which is exactly the contract an append-only
// log can honor after an unclean death. The snapshot is written to a
// temp file and renamed into place so a crash mid-compaction leaves the
// previous snapshot intact.
//
// Disk access goes through storage::File: the log stays open for the
// handle's life, and every append is all-or-nothing, so a write that
// fails part-way (short write, ENOSPC, EIO) leaves the log at its last
// good length and the records buffered for a retry.
//
// Durability: flush() and sync_every_append put records in the OS page
// cache. They survive kill -9 (what drop_unflushed() models) but not
// power loss; no fsync is issued.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "cache/residency_log.hpp"
#include "storage/file.hpp"

namespace spider::storage {

struct WalConfig {
    /// Off (default) = every call is a no-op and load() returns empty.
    bool enabled = false;
    /// Directory holding `cache.wal` and `cache.snapshot`; created on
    /// first use. Required when enabled.
    std::string dir;
    /// Write each record to the OS page cache as it is appended (slower,
    /// a kill -9 loses nothing before the tear). Off = write only at
    /// flush and compaction, so a crash can lose the buffered tail — the
    /// realistic default the warm-restart bench uses. Neither setting
    /// survives power loss: no fsync is issued.
    bool sync_every_append = false;
};

class CacheWal {
public:
    /// `faults` injects write failures into the log and snapshot files
    /// (tests only; see WriteFaults) and must outlive the WAL.
    explicit CacheWal(WalConfig config, WriteFaults* faults = nullptr);
    ~CacheWal();

    CacheWal(const CacheWal&) = delete;
    CacheWal& operator=(const CacheWal&) = delete;

    [[nodiscard]] const WalConfig& config() const { return config_; }
    [[nodiscard]] bool enabled() const { return config_.enabled; }

    /// Appends one record to the log. Thread-safe (internal mutex); safe
    /// to call from cache listeners holding shard locks — the WAL never
    /// calls back into the cache, so the shard -> wal lock order is
    /// acyclic. With sync_every_append a write error throws and the
    /// record stays buffered; the next append() or flush() retries it.
    void append(const cache::ResidencyRecord& record);

    /// Folds `image` into a fresh snapshot (tmp file + rename) and
    /// truncates the log. Called at stable points; also flushes.
    void compact(const cache::RestoreImage& image);

    /// Replays snapshot + log into the folded residency image. Stops at
    /// the first corrupt/torn record of either file. Thread-safe.
    [[nodiscard]] cache::RestoreImage load();

    /// Forces buffered appends to the OS page cache. On a write error it
    /// throws and keeps them buffered; a later flush() retries.
    void flush();

    /// Crash simulation: discards the buffered unflushed tail, exactly
    /// what a kill -9 does to writes the OS never saw. The chaos harness
    /// and the warm-restart simulator call this instead of flush() when
    /// killing a node.
    void drop_unflushed();

    /// Records appended through this handle's lifetime.
    [[nodiscard]] std::uint64_t appended_records() const;
    /// Corrupt/torn records discarded by the most recent load().
    [[nodiscard]] std::uint64_t dropped_records() const;

    /// Pure fold: applies `records` on top of `base` (exposed for tests
    /// and for owners that maintain an image incrementally).
    [[nodiscard]] static cache::RestoreImage fold(
        cache::RestoreImage base,
        const std::vector<cache::ResidencyRecord>& records);

    [[nodiscard]] std::string wal_path() const;
    [[nodiscard]] std::string snapshot_path() const;

private:
    /// Parses every intact record of `bytes`, appending to `out`; returns
    /// the number of trailing corrupt/torn tails discarded (0 or 1 — a
    /// tear ends parsing).
    static std::uint64_t parse_records(const std::string& bytes,
                                       std::vector<cache::ResidencyRecord>& out);
    void write_pending_locked();

    WalConfig config_;
    WriteFaults* faults_ = nullptr;
    mutable std::mutex mu_;
    File log_;  ///< cache.wal, open while enabled
    /// Buffered unflushed tail of the log (simulates the page cache a
    /// kill -9 would lose when sync_every_append is off).
    std::string pending_;
    std::uint64_t appended_ = 0;
    std::uint64_t dropped_ = 0;
};

}  // namespace spider::storage

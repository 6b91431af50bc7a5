#pragma once

// Local-SSD storage tier: the middle layer of the memory -> SSD -> remote
// hierarchy that DNN training clusters actually deploy (CoorDL caches on
// local SSD; the paper's Spot-VM discussion is exactly about losing this
// tier). A miss in the in-memory cache checks the SSD before paying the
// remote fetch; remote fetches are written back to the SSD (LRU within
// the budget). Costs live on the virtual clock like everything else.
//
// Two modes share one API:
//  - Residency model (config.path empty): ids move through the in-memory
//    LRU and latency is charged virtually — the historical behavior.
//  - Block mode (config.path set): the tier delegates payload bytes to an
//    on-disk SsdBlockStore (DESIGN.md §14). The LRU stays the
//    recency/eviction index; the block store owns the bytes, and
//    eviction additionally enforces the byte budget by walking LRU
//    victims until whole-segment GC frees enough.
//
// Thread safety: the tier sits on the cache server's miss path, where the
// event loop and any direct library users may touch it from different
// threads, so fetch/insert/counters are internally serialized by one
// mutex (an LRU update is a few index writes in a flat table — a sharded
// scheme would buy nothing at SSD latencies). batch_read_cost is pure
// configuration.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cache/basic_policies.hpp"
#include "cache/residency_log.hpp"
#include "storage/clock.hpp"
#include "storage/ssd_block_store.hpp"

namespace spider::storage {

struct SsdTierConfig {
    bool enabled = false;
    /// Capacity in items (0 = unbounded, the CoorDL append-only model).
    std::size_t capacity_items = 0;
    /// Virtual read latency per sample (NVMe-class: ~0.1 ms vs ~ms remote).
    SimDuration read_latency = from_ms(0.08);
    /// Block mode: directory for segment files. Empty = residency model.
    std::string path;
    /// Block mode byte budget (0 = unbounded). Enforced by evicting LRU
    /// victims until whole-segment GC brings usage back under budget.
    std::size_t capacity_mb = 0;
    /// Segment rotation threshold for the block store.
    std::size_t segment_mb = 4;
    /// Bloom sizing for the block store (0 disables the filters).
    std::size_t bloom_bits_per_key = 10;
};

class SsdTier {
public:
    explicit SsdTier(SsdTierConfig config);

    [[nodiscard]] bool enabled() const { return config_.enabled; }
    [[nodiscard]] const SsdTierConfig& config() const { return config_; }
    [[nodiscard]] std::size_t resident_items() const {
        const std::lock_guard lock{mu_};
        return lru_.size();
    }

    /// Read path: returns true when `id` was served from the SSD (and
    /// bumps its recency). Counter semantics are uniform: every fetch()
    /// counts exactly one hit or one miss, including on a disabled tier
    /// (a consult that cannot be served is a miss — hit-ratio math stays
    /// consistent across `enabled` flips). Thread-safe.
    bool fetch(std::uint32_t id);

    /// Read path returning the stored payload. Residency-model hits
    /// return an empty vector (there are no bytes to return); block-mode
    /// hits return the bytes written at insert time. A resident id whose
    /// payload was lost (torn tail past the last flush) is dropped from
    /// the LRU, streamed as kSsdEvict, and counted as a miss.
    /// Thread-safe.
    std::optional<std::vector<std::uint8_t>> fetch_payload(std::uint32_t id);

    /// Write-back after a remote fetch (residency only). Thread-safe.
    void insert(std::uint32_t id);

    /// Write-back with payload bytes; block mode persists them. In the
    /// residency model the bytes are ignored. Thread-safe.
    void insert(std::uint32_t id, std::span<const std::uint8_t> payload);

    [[nodiscard]] std::uint64_t hits() const {
        const std::lock_guard lock{mu_};
        return hits_;
    }
    [[nodiscard]] std::uint64_t misses() const {
        const std::lock_guard lock{mu_};
        return misses_;
    }

    /// Virtual time for a batch of `count` SSD reads (reads are parallel
    /// across `parallelism` queue depths like remote fetches).
    [[nodiscard]] SimDuration batch_read_cost(std::size_t count,
                                              std::size_t parallelism) const;

    /// Zeroes hits/misses — mirrors RemoteStore::reset_contention_counters
    /// so per-epoch CSV attribution is correct across epochs. Thread-safe.
    void reset_counters();

    // ---- Block mode (DESIGN.md §14). All no-ops in the residency model.

    [[nodiscard]] bool block_mode() const { return block_ != nullptr; }
    /// Stats straight from the block store (zeroed struct in the
    /// residency model). Thread-safe.
    [[nodiscard]] SsdBlockStoreStats block_stats() const;
    [[nodiscard]] std::size_t bytes_used() const;
    /// Persist the buffered segment tail.
    void flush();
    /// Simulated kill -9: the buffered tail vanishes, disk keeps only
    /// flushed bytes. The next tier constructed on the same path recovers
    /// exactly what survived.
    void drop_unflushed();
    /// Fresh-run reset: delete every segment file (mirrors
    /// CacheWal::compact({}) wiping the previous process's leftovers).
    void clear_store();

    // ---- Crash-safe warm restart (DESIGN.md §12).

    /// Streams kSsdInsert/kSsdEvict records for write-back admissions and
    /// their evictions (fetch-path recency touches are not streamed; the
    /// periodic compaction snapshot reconciles recency drift). Called
    /// under the tier mutex — the listener must not call back in. Set
    /// before concurrent use.
    void set_residency_listener(cache::ResidencyListener listener) {
        const std::lock_guard lock{mu_};
        residency_listener_ = std::move(listener);
    }

    /// Resident ids, least-recently-used first — the `ssd` leg of a
    /// RestoreImage for WAL compaction. Thread-safe.
    [[nodiscard]] std::vector<std::uint32_t> dump_residency() const;

    /// Re-admits `ids` in order (LRU-first, as dump_residency emits), so
    /// the rebuilt tier has the same contents and recency horizon up to
    /// its capacity. Returns how many ids are resident afterwards.
    ///
    /// Ids that do NOT end up resident — evicted by a smaller capacity,
    /// or (block mode) whose payload did not survive the crash — are
    /// streamed to the residency listener as kSsdEvict, so the WAL
    /// converges back to actual residency instead of drifting until the
    /// next compaction. Attach the listener BEFORE calling restore; with
    /// no listener attached the caller must guarantee the image fits
    /// (fresh tier, equal-or-larger capacity). In block mode, payloads
    /// still on disk but absent from `ids` are erased afterwards, so
    /// store contents and residency agree. Call on a fresh tier before
    /// concurrent use; no-op when disabled.
    std::size_t restore(const std::vector<std::uint32_t>& ids);

private:
    void notify_evict_locked(std::uint32_t id);
    void enforce_byte_budget_locked();

    SsdTierConfig config_;
    mutable std::mutex mu_;
    cache::LruCache lru_;
    std::unique_ptr<SsdBlockStore> block_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    cache::ResidencyListener residency_listener_;
};

}  // namespace spider::storage

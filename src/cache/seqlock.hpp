#pragma once

// Seqlock-protected residency view (DESIGN.md §8.4): the lock-free read
// path of the sharded TwoLayerSemanticCache.
//
// Each shard owns a ShardResidencyView — a compact open-addressed hash
// table mapping id -> {section flags, importance score, newest surrogate
// key} — kept in exact sync with the shard's Importance section, Homophily
// section, and neighbor-index slice by every writer, *under the existing
// shard mutex*. Readers never take that mutex: they validate an even/odd
// version counter (the seqlock) around a wait-free table probe and retry
// when a concurrent write section tore the snapshot. After a bounded
// number of torn reads (kMaxReadAttempts) the caller falls back to the
// locked path, so progress is guaranteed even under a writer storm.
//
// Memory-model notes (ThreadSanitizer-clean by construction):
//  * All shared words are std::atomic accessed with acquire/release — no
//    standalone fences, which TSan models imprecisely. On x86 these
//    orderings compile to plain loads/stores; the seqlock costs two
//    uncontended atomic loads per read.
//  * The reader orderings give: seq load (acquire) <= slot loads (acquire)
//    <= validation load, so a validated even-and-unchanged counter proves
//    no write section overlapped the probe.
//  * Writers only ever run under the shard mutex, so write sections never
//    nest or race each other; the RMW increments are for reader ordering,
//    not writer mutual exclusion.
//  * Tables grow by pointer swap and the old allocations are retired, not
//    freed, until the view dies: a reader still scanning a superseded
//    table reads stale-but-allocated memory and its validation fails.
//    Growth doubles, so retired memory is bounded by ~2x the final table.
//    The per-epoch elastic rebuild reuses the current allocation in place
//    (readers that observe the wipe retry), so repartitions allocate
//    nothing once the table has reached steady-state size.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace spider::cache {

/// Even/odd version counter. Writers (externally serialized) wrap each
/// mutation burst in write_begin()/write_end(); readers snapshot with
/// read_begin() and accept the data they read only if read_valid() holds.
class Seqlock {
public:
    [[nodiscard]] std::uint64_t read_begin() const {
        return seq_.load(std::memory_order_acquire);
    }
    /// True when `begin` was even (no write in progress) and no write
    /// section started since — i.e. every relaxed/acquire data load made
    /// between read_begin() and this call saw a consistent snapshot.
    [[nodiscard]] bool read_valid(std::uint64_t begin) const {
        return (begin & 1U) == 0U &&
               seq_.load(std::memory_order_acquire) == begin;
    }
    void write_begin() { seq_.fetch_add(1, std::memory_order_acq_rel); }
    void write_end() { seq_.fetch_add(1, std::memory_order_acq_rel); }

private:
    std::atomic<std::uint64_t> seq_{0};
};

/// Read-optimized residency table of one TwoLayerSemanticCache shard.
/// Writer methods require the owning shard's mutex; try_probe() requires
/// nothing.
class ShardResidencyView {
public:
    /// Section-membership flags of an id within its shard.
    static constexpr std::uint32_t kImportance = 1U;  // Case 1 resident
    static constexpr std::uint32_t kHomKey = 2U;      // Case 3 self-serve
    static constexpr std::uint32_t kSurrogate = 4U;   // Case 3 via surrogate

    struct Probe {
        std::uint32_t flags = 0;
        /// Newest resident homophily key listing this id as a neighbor.
        /// Meaningful only when flags & kSurrogate.
        std::uint32_t surrogate = 0;
        /// Importance score. Meaningful only when flags & kImportance.
        double score = 0.0;
    };

    /// Torn-read retry bound: after this many invalidated probes the
    /// caller must fall back to the locked path (a writer is rebuilding).
    static constexpr int kMaxReadAttempts = 64;

    explicit ShardResidencyView(std::size_t expected_entries) {
        tables_.push_back(
            std::make_unique<Table>(table_capacity_for(expected_entries)));
        table_.store(tables_.back().get(), std::memory_order_release);
    }

    ShardResidencyView(const ShardResidencyView&) = delete;
    ShardResidencyView& operator=(const ShardResidencyView&) = delete;

    // ------------------------------------------------------- reader side

    /// Wait-free residency probe. Returns the id's flags/score/surrogate
    /// (flags == 0 for a non-resident id), or nullopt when every attempt
    /// within the retry bound was torn by concurrent write sections.
    [[nodiscard]] std::optional<Probe> try_probe(std::uint32_t id) const {
        for (int attempt = 0; attempt < kMaxReadAttempts; ++attempt) {
            const std::uint64_t begin = seq_.read_begin();
            if (begin & 1U) {  // write section in progress
                relax();
                continue;
            }
            const Table* table = table_.load(std::memory_order_acquire);
            Probe out;
            const std::size_t mask = table->mask();
            std::size_t i = slot_index(id, mask);
            for (std::size_t n = 0; n <= mask; ++n, i = (i + 1) & mask) {
                const std::uint64_t word =
                    table->slots[i].key.load(std::memory_order_acquire);
                if (word == kEmptyWord) break;
                if (static_cast<std::uint32_t>(word >> 32) != id) continue;
                out.flags = static_cast<std::uint32_t>(word);
                out.surrogate = static_cast<std::uint32_t>(
                    table->slots[i].surrogate.load(
                        std::memory_order_acquire));
                out.score = std::bit_cast<double>(
                    table->slots[i].score_bits.load(
                        std::memory_order_acquire));
                break;
            }
            if (seq_.read_valid(begin)) return out;
        }
        return std::nullopt;
    }

    // ------------------------------------------------------- writer side
    // Every mutator below must run inside a WriteSection, which must run
    // under the owning shard's mutex.

    /// RAII write section: bumps the version to odd on entry (readers
    /// start retrying) and back to even on exit (snapshots validate
    /// again). Group all view mutations of one cache operation under a
    /// single section so readers retry at most once per operation.
    class WriteSection {
    public:
        explicit WriteSection(ShardResidencyView& view) : view_{view} {
            view_.seq_.write_begin();
        }
        ~WriteSection() { view_.seq_.write_end(); }
        WriteSection(const WriteSection&) = delete;
        WriteSection& operator=(const WriteSection&) = delete;

    private:
        ShardResidencyView& view_;
    };

    void set_importance(std::uint32_t id, double score) {
        Slot& slot = upsert(id);
        slot.score_bits.store(std::bit_cast<std::uint64_t>(score),
                              std::memory_order_release);
        or_flags(slot, id, kImportance);
    }
    void clear_importance(std::uint32_t id) { clear_flags(id, kImportance); }

    void set_hom_key(std::uint32_t id) { or_flags(upsert(id), id, kHomKey); }
    void clear_hom_key(std::uint32_t id) { clear_flags(id, kHomKey); }

    void set_surrogate(std::uint32_t id, std::uint32_t key) {
        Slot& slot = upsert(id);
        slot.surrogate.store(key, std::memory_order_release);
        or_flags(slot, id, kSurrogate);
    }
    void clear_surrogate(std::uint32_t id) { clear_flags(id, kSurrogate); }

    /// Wipes the table in place (allocation reused; concurrent readers see
    /// torn slots and retry). Prelude to a full rebuild after an elastic
    /// repartition or a section-policy switch.
    void clear() {
        Table& table = *tables_.back();
        for (Slot& slot : table.slots) {
            slot.key.store(kEmptyWord, std::memory_order_release);
        }
        table.used = 0;
        live_ = 0;
    }

    /// All live entries (flags != 0). Caller must hold the shard mutex so
    /// no write section is possible; used by the frozen-state oracle.
    [[nodiscard]] std::vector<std::pair<std::uint32_t, Probe>> entries()
        const {
        std::vector<std::pair<std::uint32_t, Probe>> out;
        const Table* table = table_.load(std::memory_order_acquire);
        for (const Slot& slot : table->slots) {
            const std::uint64_t word =
                slot.key.load(std::memory_order_acquire);
            if (word == kEmptyWord) continue;
            const auto flags = static_cast<std::uint32_t>(word);
            if (flags == 0) continue;  // tombstone
            Probe probe;
            probe.flags = flags;
            probe.surrogate = static_cast<std::uint32_t>(
                slot.surrogate.load(std::memory_order_acquire));
            probe.score = std::bit_cast<double>(
                slot.score_bits.load(std::memory_order_acquire));
            out.emplace_back(static_cast<std::uint32_t>(word >> 32), probe);
        }
        return out;
    }

    [[nodiscard]] std::size_t live_entries() const { return live_; }

private:
    struct Slot {
        /// [id:32 | flags:32]. kEmptyWord = never used (probe chains end
        /// here); a valid id with flags == 0 is a tombstone (chains
        /// continue through it, probes report non-resident).
        std::atomic<std::uint64_t> key{kEmptyWord};
        std::atomic<std::uint64_t> surrogate{0};
        std::atomic<std::uint64_t> score_bits{0};
    };
    struct Table {
        explicit Table(std::size_t capacity) : slots(capacity) {}
        std::vector<Slot> slots;
        /// Occupied slots including tombstones (writer-only bookkeeping).
        std::size_t used = 0;
        [[nodiscard]] std::size_t mask() const { return slots.size() - 1; }
    };

    /// Real entries never collide with this: flags occupy 3 bits.
    static constexpr std::uint64_t kEmptyWord = ~0ULL;

    static void relax() {
#if defined(__x86_64__) || defined(_M_X64)
        _mm_pause();
#endif
    }

    [[nodiscard]] static std::size_t table_capacity_for(
        std::size_t entries) {
        return std::bit_ceil(std::max<std::size_t>(2 * entries + 8, 16));
    }

    [[nodiscard]] static std::size_t slot_index(std::uint32_t id,
                                                std::size_t mask) {
        // Fibonacci mix: dense small ids spread over the whole table.
        return static_cast<std::size_t>(
                   (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL) >>
                   32) &
               mask;
    }

    [[nodiscard]] Slot* find(std::uint32_t id) {
        Table& table = *tables_.back();
        const std::size_t mask = table.mask();
        std::size_t i = slot_index(id, mask);
        for (std::size_t n = 0; n <= mask; ++n, i = (i + 1) & mask) {
            const std::uint64_t word =
                table.slots[i].key.load(std::memory_order_relaxed);
            if (word == kEmptyWord) return nullptr;
            if (static_cast<std::uint32_t>(word >> 32) == id) {
                return &table.slots[i];
            }
        }
        return nullptr;
    }

    [[nodiscard]] Slot& upsert(std::uint32_t id) {
        Table* table = tables_.back().get();
        if (4 * (table->used + 1) > 3 * table->slots.size()) {
            grow();
            table = tables_.back().get();
        }
        const std::size_t mask = table->mask();
        std::size_t i = slot_index(id, mask);
        Slot* tombstone = nullptr;
        for (std::size_t n = 0; n <= mask; ++n, i = (i + 1) & mask) {
            Slot& slot = table->slots[i];
            const std::uint64_t word =
                slot.key.load(std::memory_order_relaxed);
            if (word == kEmptyWord) {
                if (tombstone != nullptr) {
                    reset_slot(*tombstone, id);
                    return *tombstone;
                }
                ++table->used;
                reset_slot(slot, id);
                return slot;
            }
            if (static_cast<std::uint32_t>(word >> 32) == id) return slot;
            if (static_cast<std::uint32_t>(word) == 0 &&
                tombstone == nullptr) {
                tombstone = &slot;
            }
        }
        // Unreachable: the load-factor bound guarantees a free slot.
        grow();
        return upsert(id);
    }

    static void reset_slot(Slot& slot, std::uint32_t id) {
        slot.key.store(static_cast<std::uint64_t>(id) << 32,
                       std::memory_order_release);
        slot.surrogate.store(0, std::memory_order_release);
        slot.score_bits.store(0, std::memory_order_release);
    }

    void or_flags(Slot& slot, std::uint32_t id, std::uint32_t bits) {
        const std::uint64_t word = slot.key.load(std::memory_order_relaxed);
        const auto flags = static_cast<std::uint32_t>(word);
        if (flags == 0) ++live_;
        slot.key.store((static_cast<std::uint64_t>(id) << 32) |
                           (flags | bits),
                       std::memory_order_release);
    }

    void clear_flags(std::uint32_t id, std::uint32_t bits) {
        Slot* slot = find(id);
        if (slot == nullptr) return;
        const std::uint64_t word = slot->key.load(std::memory_order_relaxed);
        const auto flags = static_cast<std::uint32_t>(word);
        const std::uint32_t next = flags & ~bits;
        if (flags != 0 && next == 0) --live_;  // becomes a tombstone
        slot->key.store((word & ~0xFFFFFFFFULL) | next,
                        std::memory_order_release);
    }

    /// Doubles capacity: live entries rehash into a fresh table, the
    /// pointer swaps, the old allocation is retired (never freed) so
    /// in-flight readers stay memory-safe.
    void grow() {
        const Table& old = *tables_.back();
        auto grown =
            std::make_unique<Table>(std::max<std::size_t>(2 * old.slots.size(),
                                                          16));
        for (const Slot& slot : old.slots) {
            const std::uint64_t word =
                slot.key.load(std::memory_order_relaxed);
            if (word == kEmptyWord ||
                static_cast<std::uint32_t>(word) == 0) {
                continue;
            }
            const auto id = static_cast<std::uint32_t>(word >> 32);
            const std::size_t mask = grown->mask();
            std::size_t i = slot_index(id, mask);
            while (grown->slots[i].key.load(std::memory_order_relaxed) !=
                   kEmptyWord) {
                i = (i + 1) & mask;
            }
            Slot& fresh = grown->slots[i];
            fresh.key.store(word, std::memory_order_release);
            fresh.surrogate.store(
                slot.surrogate.load(std::memory_order_relaxed),
                std::memory_order_release);
            fresh.score_bits.store(
                slot.score_bits.load(std::memory_order_relaxed),
                std::memory_order_release);
            ++grown->used;
        }
        table_.store(grown.get(), std::memory_order_release);
        tables_.push_back(std::move(grown));
    }

    Seqlock seq_;
    std::atomic<Table*> table_{nullptr};
    /// Current table (back) plus retired predecessors, kept allocated for
    /// the lifetime of the view (see header comment).
    std::vector<std::unique_ptr<Table>> tables_;
    /// Entries with flags != 0 (writer-only bookkeeping).
    std::size_t live_ = 0;
};

}  // namespace spider::cache

#pragma once

// Seqlock-protected residency view (DESIGN.md §8.4): the lock-free read
// path of the sharded TwoLayerSemanticCache.
//
// Each shard owns a ShardResidencyView — a compact open-addressed hash
// table of two words per slot, {id | section flags, newest surrogate key}
// — kept in exact sync with the shard's Importance section, Homophily
// section, and neighbor-index slice by every writer, *under the existing
// shard mutex*. Writers update it incrementally: an id's slot appears
// with its first flag and leaves, by backward-shift deletion, with its
// last, so every slot holds a resident and the table is sized by live
// entries. Readers never take that mutex: they validate an even/odd
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
//  * Backward shift moves entries, but only inside a write section: a
//    reader that raced a move fails validation and probes again.
//  * Tables grow by pointer swap and the old allocations are retired, not
//    freed, until the view dies: a reader still scanning a superseded
//    table reads stale-but-allocated memory and its validation fails.
//    Growth doubles and happens only when live entries pass 3/4 of the
//    slots, so retired memory stays below the final table.

#include <algorithm>
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
    };

    /// Torn-read retry bound: after this many invalidated probes the
    /// caller must fall back to the locked path (a writer is busy).
    static constexpr int kMaxReadAttempts = 64;

    explicit ShardResidencyView(std::size_t expected_entries) {
        tables_.push_back(
            std::make_unique<Table>(table_capacity_for(expected_entries)));
        table_.store(tables_.back().get(), std::memory_order_release);
    }

    ShardResidencyView(const ShardResidencyView&) = delete;
    ShardResidencyView& operator=(const ShardResidencyView&) = delete;

    // ------------------------------------------------------- reader side

    /// Wait-free residency probe. Returns the id's flags and surrogate
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
                if (id_of(word) != id) continue;
                out.flags = static_cast<std::uint32_t>(word);
                out.surrogate = table->slots[i].surrogate.load(
                    std::memory_order_acquire);
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

    void set_importance(std::uint32_t id) { or_flags(id, kImportance); }
    void clear_importance(std::uint32_t id) { clear_flags(id, kImportance); }

    void set_hom_key(std::uint32_t id) { or_flags(id, kHomKey); }
    void clear_hom_key(std::uint32_t id) { clear_flags(id, kHomKey); }

    void set_surrogate(std::uint32_t id, std::uint32_t key) {
        or_flags(id, kSurrogate).surrogate.store(key,
                                                 std::memory_order_release);
    }
    void clear_surrogate(std::uint32_t id) { clear_flags(id, kSurrogate); }

    /// Every entry. Caller must hold the shard mutex so no write section
    /// is possible; used by the frozen-state oracle.
    [[nodiscard]] std::vector<std::pair<std::uint32_t, Probe>> entries()
        const {
        std::vector<std::pair<std::uint32_t, Probe>> out;
        for (const Slot& slot : current().slots) {
            const std::uint64_t word =
                slot.key.load(std::memory_order_relaxed);
            if (word == kEmptyWord) continue;
            out.emplace_back(
                id_of(word),
                Probe{static_cast<std::uint32_t>(word),
                      slot.surrogate.load(std::memory_order_relaxed)});
        }
        return out;
    }

    /// Slots of the current table. Caller must hold the shard mutex.
    [[nodiscard]] std::size_t slot_count() const {
        return current().slots.size();
    }

private:
    struct Slot {
        /// [id:32 | flags:32], or kEmptyWord. Flags are never 0.
        std::atomic<std::uint64_t> key{kEmptyWord};
        std::atomic<std::uint32_t> surrogate{0};
    };
    struct Table {
        explicit Table(std::size_t capacity) : slots(capacity) {}
        std::vector<Slot> slots;
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

    [[nodiscard]] static std::uint32_t id_of(std::uint64_t word) {
        return static_cast<std::uint32_t>(word >> 32);
    }

    [[nodiscard]] const Table& current() const { return *tables_.back(); }
    [[nodiscard]] Table& current() { return *tables_.back(); }

    /// Sets `bits` on id's slot, inserting the slot if the id is absent.
    Slot& or_flags(std::uint32_t id, std::uint32_t bits) {
        if (4 * (live_ + 1) > 3 * current().slots.size()) grow();
        Table& table = current();
        const std::size_t mask = table.mask();
        std::size_t i = slot_index(id, mask);
        // The load bound leaves an empty slot, which ends every run.
        for (;; i = (i + 1) & mask) {
            const std::uint64_t word =
                table.slots[i].key.load(std::memory_order_relaxed);
            if (word == kEmptyWord) {
                ++live_;
                table.slots[i].key.store(
                    (static_cast<std::uint64_t>(id) << 32) | bits,
                    std::memory_order_release);
                return table.slots[i];
            }
            if (id_of(word) == id) {
                table.slots[i].key.store(word | bits,
                                         std::memory_order_release);
                return table.slots[i];
            }
        }
    }

    /// Clears `bits` on id's slot; the slot leaves with its last flag.
    void clear_flags(std::uint32_t id, std::uint32_t bits) {
        Table& table = current();
        const std::size_t mask = table.mask();
        std::size_t i = slot_index(id, mask);
        std::uint64_t word = 0;
        for (;; i = (i + 1) & mask) {
            word = table.slots[i].key.load(std::memory_order_relaxed);
            if (word == kEmptyWord) return;
            if (id_of(word) == id) break;
        }
        word &= ~static_cast<std::uint64_t>(bits);
        if (static_cast<std::uint32_t>(word) != 0) {
            table.slots[i].key.store(word, std::memory_order_release);
            return;
        }
        // Backward shift: pull later entries of the run into the hole
        // unless that would move one before its home slot.
        std::size_t hole = i;
        for (std::size_t b = (hole + 1) & mask;; b = (b + 1) & mask) {
            const std::uint64_t next =
                table.slots[b].key.load(std::memory_order_relaxed);
            if (next == kEmptyWord) break;
            if (((b - slot_index(id_of(next), mask)) & mask) >=
                ((b - hole) & mask)) {
                table.slots[hole].surrogate.store(
                    table.slots[b].surrogate.load(std::memory_order_relaxed),
                    std::memory_order_release);
                table.slots[hole].key.store(next, std::memory_order_release);
                hole = b;
            }
        }
        table.slots[hole].key.store(kEmptyWord, std::memory_order_release);
        --live_;
    }

    /// Doubles capacity: entries rehash into a fresh table, the pointer
    /// swaps, the old allocation is retired (never freed) so in-flight
    /// readers stay memory-safe.
    void grow() {
        const Table& old = current();
        auto grown = std::make_unique<Table>(2 * old.slots.size());
        const std::size_t mask = grown->mask();
        for (const Slot& slot : old.slots) {
            const std::uint64_t word =
                slot.key.load(std::memory_order_relaxed);
            if (word == kEmptyWord) continue;
            std::size_t i = slot_index(id_of(word), mask);
            while (grown->slots[i].key.load(std::memory_order_relaxed) !=
                   kEmptyWord) {
                i = (i + 1) & mask;
            }
            grown->slots[i].key.store(word, std::memory_order_relaxed);
            grown->slots[i].surrogate.store(
                slot.surrogate.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        }
        table_.store(grown.get(), std::memory_order_release);
        tables_.push_back(std::move(grown));
    }

    Seqlock seq_;
    std::atomic<Table*> table_{nullptr};
    /// Current table (back) plus retired predecessors, kept allocated for
    /// the lifetime of the view (see header comment).
    std::vector<std::unique_ptr<Table>> tables_;
    /// Occupied slots (writer-only bookkeeping).
    std::size_t live_ = 0;
};

}  // namespace spider::cache

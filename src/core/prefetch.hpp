#pragma once

// Lookahead miss prefetcher (DESIGN.md §8.3). The graph-IS sampler fixes
// the whole epoch's request order up front, so the ids of batch k+1 are
// known while batch k computes. The PrefetchPipeline exploits that: it
// probes the cache for the next batch's ids, predicts the misses, and
// issues them to remote storage on a background pool — overlapping Stage 1
// I/O with the current batch's Stage 2/3 compute, exactly the window the
// storage server would otherwise sit idle in (Quiver's substitutable-
// sample lookahead, adapted to SpiderCache's exact-order sampler).
//
// Guarantees:
//   - bounded in-flight window: at most `max_in_flight` fetches are ever
//     outstanding, so lookahead cannot swamp the storage server;
//   - dedup: an id already in flight (or fetched and not yet consumed) is
//     never issued twice, even when consecutive batches overlap;
//   - demand-side consume(): returns true when the id's fetch was issued
//     by the prefetcher — completed entries are free, in-progress ones are
//     waited for (still cheaper than a cold fetch, the round trip is
//     already partially paid);
//   - exception safety: a fetch callback that throws does not kill the
//     pool thread, leak its window slot, or strand a waiting consumer —
//     the exception is captured per id and rethrown to whoever touches
//     that id next (consume) or to drain() if nobody does.
//
// The pipeline only ever *reads* the cache (via the probe callback) and
// never admits — admission stays on the demand path (Algorithm 1 line 10),
// so enabling prefetch cannot change hit/miss/eviction decisions.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "util/thread_pool.hpp"

namespace spider::core {

class PrefetchPipeline {
public:
    /// Returns true when `id` is already resident (skip the prefetch).
    using ProbeFn = std::function<bool(std::uint32_t)>;
    /// Performs the actual fetch (RemoteStore::fetch + any side effects).
    /// Called from background pool threads; must be thread-safe.
    using FetchFn = std::function<void(std::uint32_t)>;

    struct Config {
        /// Background fetch threads (the data-loader worker analogue).
        std::size_t threads = 2;
        /// Bounded in-flight window: prefetch() drops ids beyond this many
        /// outstanding (issued but unconsumed) fetches.
        std::size_t max_in_flight = 256;
    };

    struct Stats {
        std::uint64_t requested = 0;      ///< ids offered to prefetch()
        std::uint64_t issued = 0;         ///< fetches actually dispatched
        std::uint64_t skipped_cached = 0; ///< probe reported resident
        std::uint64_t skipped_in_flight = 0;  ///< deduped, already issued
        std::uint64_t skipped_window = 0; ///< dropped, window full
        std::uint64_t completed = 0;      ///< background fetches finished
        std::uint64_t hidden = 0;         ///< consumed after completion
        std::uint64_t waited = 0;         ///< consumed while still in flight
        std::uint64_t failed = 0;         ///< fetch callback threw
    };

    PrefetchPipeline(ProbeFn probe, FetchFn fetch, Config config);
    ~PrefetchPipeline();

    PrefetchPipeline(const PrefetchPipeline&) = delete;
    PrefetchPipeline& operator=(const PrefetchPipeline&) = delete;

    /// Probes and issues the predicted misses among `ids`, newest batch
    /// first-come-first-served under the in-flight window. Returns the
    /// number of fetches dispatched.
    std::size_t prefetch(std::span<const std::uint32_t> ids);

    /// Resizes the in-flight window at runtime (the adaptive depth
    /// controller calls this once per step). Shrinking never cancels
    /// already-issued fetches — occupancy drains naturally and new issues
    /// respect the smaller bound. Clamped to >= 1.
    void set_max_in_flight(std::size_t max_in_flight);

    [[nodiscard]] std::size_t max_in_flight() const;

    /// Demand side: true when `id` was prefetched, so the caller must not
    /// fetch it again. Blocks until the background fetch completes when it
    /// is still in flight. Consumes the entry either way. If the fetch
    /// callback threw for `id`, that exception is rethrown here (the entry
    /// is consumed first, so the caller can fall back to a demand fetch).
    /// When several consumers wait on one fetch, exactly one claims its
    /// outcome (true, or the rethrow); the others get false.
    bool consume(std::uint32_t id);

    /// True when `id` is currently issued-and-unconsumed (either state).
    [[nodiscard]] bool pending(std::uint32_t id) const;

    /// Drops completed-but-unconsumed entries (mispredicted lookahead) and
    /// unclaimed failures, freeing their window slots. Returns how many
    /// were discarded. Never throws.
    std::size_t discard_ready();

    /// Drops the single completed-but-unconsumed (or failed) entry for
    /// `id`, if any, freeing its window slot. A still-in-flight fetch is
    /// left to finish (never cancelled). The adaptive simulator calls this
    /// for ids whose batch has passed without consuming them — e.g. the
    /// id became cache-resident between issue and demand — so a stale
    /// entry cannot pin a window slot forever. Never throws.
    bool discard(std::uint32_t id);

    /// Blocks until every issued fetch has completed. Rethrows the first
    /// unclaimed fetch-callback exception (clearing all of them), so
    /// background failures can never pass silently.
    void drain();

    [[nodiscard]] Stats stats() const;

private:
    void on_fetched(std::uint32_t id);

    ProbeFn probe_;
    FetchFn fetch_;
    Config config_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::unordered_set<std::uint32_t> in_flight_;  ///< issued, not finished
    std::unordered_set<std::uint32_t> ready_;      ///< finished, unconsumed
    /// Fetch-callback exceptions by id, unclaimed. Not counted against the
    /// in-flight window (the slot is released on failure).
    std::unordered_map<std::uint32_t, std::exception_ptr> failed_;
    Stats stats_;
    util::ThreadPool pool_;  ///< last member: drains before sets destruct
};

/// How many prefetches the storage path can absorb inside an idle span of
/// `idle_ms` when one fetch costs `per_fetch_ms` and `fetch_slots` run in
/// parallel. The multiply happens in floating point *before* the single
/// floor: eight slots each 90% through a fetch round still amount to
/// seven whole fetches, where truncating the per-slot quotient first
/// (the pre-fix simulator) collapsed the budget to zero whenever
/// per_fetch_ms > idle_ms. A non-positive per_fetch_ms means fetches are
/// free: the budget is unbounded (SIZE_MAX — callers min() it with their
/// candidate count anyway).
[[nodiscard]] std::size_t idle_fetch_budget(double idle_ms,
                                            double per_fetch_ms,
                                            std::size_t fetch_slots);

/// Adaptive lookahead-depth controller (DESIGN.md §8.3): sizes the
/// prefetch window each step from an EWMA of the observed storage-idle
/// span and the measured per-fetch cost. When storage sits idle the EWMA
/// (and so the window) grows toward the span's full fetch capacity; when
/// prefetch starts competing with demand fetches the next step's load
/// stage lengthens, the idle span shrinks, and the window backs off —
/// a closed feedback loop with no extra signal needed. Deterministic:
/// the window is a pure function of the observation sequence.
class AdaptivePrefetchController {
public:
    struct Config {
        /// Window clamp (min >= 1; max is SimConfig::prefetch_window_max).
        std::size_t min_window = 1;
        std::size_t max_window = 1024;
        /// EWMA smoothing factor in (0, 1]: weight of the newest idle-span
        /// observation. 1.0 tracks instantaneously (no smoothing).
        double alpha = 0.25;
    };

    explicit AdaptivePrefetchController(Config config);

    /// One observation per step: the step's storage-idle span and the
    /// current per-fetch cost / slot count. Returns the new window.
    std::size_t update(double idle_ms, double per_fetch_ms,
                       std::size_t fetch_slots);

    [[nodiscard]] std::size_t window() const { return window_; }
    [[nodiscard]] double ewma_idle_ms() const { return ewma_idle_ms_; }

private:
    Config config_;
    bool seeded_ = false;
    double ewma_idle_ms_ = 0.0;
    std::size_t window_;
};

}  // namespace spider::core

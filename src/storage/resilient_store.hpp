#pragma once

// Fault-tolerant client for RemoteStore: the layer a production data
// plane puts between the loader workers and an unreliable storage backend
// (DESIGN.md §9). Three mechanisms, all on the virtual clock:
//
//   retry    — bounded attempts with exponential backoff + deterministic
//              jitter; transient failures and timeouts are retried,
//              outage rejections too (the breaker is what stops those)
//   hedge    — when an attempt is still outstanding after a p99-based
//              delay, a duplicate request is issued and the first
//              completion wins (the classic tail-at-scale trick; rescues
//              latency spikes and timeouts without waiting out a retry)
//   breaker  — a circuit breaker over consecutive-failure streaks trips
//              during outages so callers fail fast into the degraded
//              path instead of burning timeouts against a dead backend;
//              after a cooldown it half-opens and probes
//
// Breaker state and the auto hedge delay advance only at batch
// boundaries (`on_batch_end`, main thread), and every fault draw is a
// pure hash — so the fault-tolerance behaviour is identical whether the
// batch's fetches ran on 1 worker thread or 8.

#include <array>
#include <atomic>
#include <cstdint>

#include "storage/fault_model.hpp"
#include "storage/remote_store.hpp"

namespace spider::storage {

struct ResiliencePolicy {
    /// Total tries per fetch (1 initial + N-1 retries). Capped at 16.
    std::size_t max_attempts = 4;
    /// Exponential backoff before retry k: base * mult^(k-1), capped,
    /// with +/- jitter fraction drawn deterministically per (id, attempt).
    double backoff_base_ms = 2.0;
    double backoff_mult = 2.0;
    double backoff_max_ms = 64.0;
    double backoff_jitter = 0.5;

    /// Hedged requests: issue a duplicate when the primary is still
    /// outstanding after the hedge delay.
    bool hedge_enabled = true;
    /// Fixed hedge delay; 0 = auto, the observed `hedge_quantile` attempt
    /// latency (refreshed per batch from a lock-free histogram).
    double hedge_delay_ms = 0.0;
    double hedge_quantile = 0.99;

    /// Circuit breaker: trips after this many consecutive failed fetches
    /// with no intervening success (counted at batch granularity), then
    /// rejects instantly for `breaker_cooldown_ms` of virtual time before
    /// half-opening. 0 disables the breaker.
    std::size_t breaker_failure_threshold = 16;
    double breaker_cooldown_ms = 400.0;

    /// Degraded-mode bound consumed by the training simulator: at most
    /// this fraction of an epoch's accesses may be served by a cache
    /// surrogate after a failed fetch (the rest are skipped + refilled).
    double max_substitute_fraction = 0.05;
};

/// Outcome of one resilient fetch (the whole retry/hedge envelope).
struct FetchResult {
    bool ok = false;
    /// Rejected instantly by an open circuit breaker (no attempts made).
    bool breaker_rejected = false;
    std::uint32_t attempts = 0;
    bool hedged = false;
    bool hedge_won = false;
    /// Total virtual time of the envelope (attempt latencies + backoff
    /// waits; hedges overlap their primary).
    SimDuration cost{};
    FaultKind last_fault = FaultKind::kNone;
};

class ResilientStore {
public:
    enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

    /// Aggregate counters (monotone; snapshot-diff them for per-epoch
    /// reporting). All updates are commutative atomic adds, so totals do
    /// not depend on worker interleaving.
    struct Counters {
        std::uint64_t fetches = 0;      ///< resilient fetch envelopes
        std::uint64_t attempts = 0;     ///< individual tries (incl. first)
        std::uint64_t retries = 0;      ///< attempts beyond the first
        std::uint64_t hedges = 0;       ///< duplicate requests issued
        std::uint64_t hedge_wins = 0;   ///< duplicates that completed first
        std::uint64_t successes = 0;
        std::uint64_t failures = 0;     ///< exhausted envelopes + fast fails
        std::uint64_t breaker_fast_fails = 0;
        std::uint64_t breaker_trips = 0;
        /// Virtual time beyond the nominal cost of the successful fetches
        /// (spikes, timeouts, backoff, failed envelopes).
        SimDuration fault_time{};
    };

    ResilientStore(RemoteStore& remote, FaultModelConfig fault_config,
                   ResiliencePolicy policy);

    /// Fetches `id` through the fault model at virtual time `now`,
    /// retrying/hedging per policy. On success the underlying
    /// RemoteStore::fetch runs exactly once (so its byte/fetch counters
    /// keep their healthy-backend meaning). `context` seeds an
    /// independent fault-draw stream (use distinct values for demand vs.
    /// speculative callers). Thread-safe.
    FetchResult fetch(std::uint32_t id, SimDuration now,
                      std::uint32_t context = 0);

    /// Batch barrier (main thread): advances the breaker state machine
    /// with the batch's failure/success totals and refreshes the auto
    /// hedge delay from the latency histogram.
    void on_batch_end(std::uint64_t failures, std::uint64_t successes,
                      SimDuration now);

    [[nodiscard]] BreakerState breaker_state(SimDuration now) const;
    /// Effective hedge delay right now (zero = hedging inactive).
    [[nodiscard]] SimDuration hedge_delay() const {
        return SimDuration{hedge_delay_ns_.load(std::memory_order_relaxed)};
    }

    [[nodiscard]] Counters counters() const;
    /// Cost of one fault-free fetch (the backend's nominal fetch cost).
    [[nodiscard]] SimDuration nominal_cost() const { return base_cost_; }
    [[nodiscard]] const FaultModel& fault_model() const { return faults_; }
    [[nodiscard]] const ResiliencePolicy& policy() const { return policy_; }

private:
    static constexpr std::size_t kHistogramBuckets = 48;

    [[nodiscard]] SimDuration backoff_before(std::uint32_t id,
                                             std::uint32_t attempt) const;
    void record_latency(SimDuration latency);
    [[nodiscard]] double histogram_quantile_ms(double q) const;

    RemoteStore& remote_;
    FaultModel faults_;
    ResiliencePolicy policy_;
    SimDuration base_cost_;

    // Hedge-delay estimation: log-scale latency histogram filled by the
    // workers (atomic adds), reduced to a quantile at batch boundaries.
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> latency_histo_{};
    std::atomic<std::uint64_t> latency_samples_{0};
    std::atomic<std::int64_t> hedge_delay_ns_{0};

    // Breaker. State/reopen are atomics because workers read them while
    // fetching; mutation happens only in on_batch_end (main thread).
    std::atomic<std::uint8_t> breaker_{
        static_cast<std::uint8_t>(BreakerState::kClosed)};
    std::atomic<std::int64_t> breaker_reopen_ns_{0};
    std::uint64_t failure_streak_ = 0;  // main thread only

    mutable std::atomic<std::uint64_t> fetches_{0};
    mutable std::atomic<std::uint64_t> attempts_{0};
    mutable std::atomic<std::uint64_t> retries_{0};
    mutable std::atomic<std::uint64_t> hedges_{0};
    mutable std::atomic<std::uint64_t> hedge_wins_{0};
    mutable std::atomic<std::uint64_t> successes_{0};
    mutable std::atomic<std::uint64_t> failures_{0};
    mutable std::atomic<std::uint64_t> breaker_fast_fails_{0};
    mutable std::atomic<std::uint64_t> breaker_trips_{0};
    mutable std::atomic<std::int64_t> fault_time_ns_{0};
};

}  // namespace spider::storage

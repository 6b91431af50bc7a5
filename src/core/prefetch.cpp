#include "core/prefetch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace spider::core {

PrefetchPipeline::PrefetchPipeline(ProbeFn probe, FetchFn fetch, Config config)
    : probe_{std::move(probe)},
      fetch_{std::move(fetch)},
      config_{config},
      pool_{std::max<std::size_t>(config.threads, 1)} {
    if (!probe_ || !fetch_) {
        throw std::invalid_argument{
            "PrefetchPipeline: probe and fetch callbacks are required"};
    }
    if (config_.max_in_flight == 0) config_.max_in_flight = 1;
}

PrefetchPipeline::~PrefetchPipeline() = default;

std::size_t PrefetchPipeline::prefetch(std::span<const std::uint32_t> ids) {
    std::size_t issued = 0;
    for (std::uint32_t id : ids) {
        {
            const std::lock_guard lock{mu_};
            ++stats_.requested;
            if (in_flight_.contains(id) || ready_.contains(id)) {
                ++stats_.skipped_in_flight;
                continue;
            }
            if (in_flight_.size() + ready_.size() >= config_.max_in_flight) {
                ++stats_.skipped_window;
                continue;
            }
        }
        // Probe outside our own lock: the cache has its own (sharded)
        // locking, and probe callbacks may be arbitrarily slow.
        if (probe_(id)) {
            const std::lock_guard lock{mu_};
            ++stats_.skipped_cached;
            continue;
        }
        {
            const std::lock_guard lock{mu_};
            // Re-check: a concurrent prefetch() may have raced us here.
            if (in_flight_.contains(id) || ready_.contains(id)) {
                ++stats_.skipped_in_flight;
                continue;
            }
            // Re-issuing an id whose earlier fetch threw supersedes the
            // stale failure; the new attempt's outcome is what counts.
            failed_.erase(id);
            in_flight_.insert(id);
            ++stats_.issued;
        }
        ++issued;
        pool_.submit([this, id] { on_fetched(id); });
    }
    return issued;
}

void PrefetchPipeline::on_fetched(std::uint32_t id) {
    // A throwing fetch must not kill the pool thread (its exception would
    // sit unread in a dropped future), must release the window slot, and
    // must wake any consumer blocked on this id. Capture and hand the
    // exception to the demand side instead.
    std::exception_ptr error;
    try {
        fetch_(id);
    } catch (...) {
        error = std::current_exception();
    }
    {
        const std::lock_guard lock{mu_};
        in_flight_.erase(id);
        if (error) {
            failed_.emplace(id, error);
            ++stats_.failed;
        } else {
            ready_.insert(id);
            ++stats_.completed;
        }
    }
    cv_.notify_all();
}

bool PrefetchPipeline::consume(std::uint32_t id) {
    std::unique_lock lock{mu_};
    if (ready_.erase(id) > 0) {
        ++stats_.hidden;
        return true;
    }
    if (const auto it = failed_.find(id); it != failed_.end()) {
        const std::exception_ptr error = it->second;
        failed_.erase(it);
        std::rethrow_exception(error);
    }
    if (!in_flight_.contains(id)) return false;
    ++stats_.waited;
    cv_.wait(lock, [this, id] { return !in_flight_.contains(id); });
    if (const auto it = failed_.find(id); it != failed_.end()) {
        const std::exception_ptr error = it->second;
        failed_.erase(it);
        std::rethrow_exception(error);
    }
    // Another consumer woken by the same fetch may have claimed it first
    // (the sampler draws with replacement): only the claimer gets true.
    return ready_.erase(id) > 0;
}

std::size_t PrefetchPipeline::discard_ready() {
    const std::lock_guard lock{mu_};
    const std::size_t dropped = ready_.size() + failed_.size();
    ready_.clear();
    failed_.clear();
    return dropped;
}

bool PrefetchPipeline::discard(std::uint32_t id) {
    const std::lock_guard lock{mu_};
    return ready_.erase(id) + failed_.erase(id) > 0;
}

bool PrefetchPipeline::pending(std::uint32_t id) const {
    const std::lock_guard lock{mu_};
    return in_flight_.contains(id) || ready_.contains(id);
}

void PrefetchPipeline::drain() {
    std::unique_lock lock{mu_};
    cv_.wait(lock, [this] { return in_flight_.empty(); });
    if (!failed_.empty()) {
        const std::exception_ptr error = failed_.begin()->second;
        failed_.clear();
        std::rethrow_exception(error);
    }
}

PrefetchPipeline::Stats PrefetchPipeline::stats() const {
    const std::lock_guard lock{mu_};
    return stats_;
}

void PrefetchPipeline::set_max_in_flight(std::size_t max_in_flight) {
    const std::lock_guard lock{mu_};
    config_.max_in_flight = std::max<std::size_t>(max_in_flight, 1);
}

std::size_t PrefetchPipeline::max_in_flight() const {
    const std::lock_guard lock{mu_};
    return config_.max_in_flight;
}

std::size_t idle_fetch_budget(double idle_ms, double per_fetch_ms,
                              std::size_t fetch_slots) {
    if (per_fetch_ms <= 0.0) return std::numeric_limits<std::size_t>::max();
    if (idle_ms <= 0.0 || fetch_slots == 0) return 0;
    const double capacity =
        static_cast<double>(fetch_slots) * (idle_ms / per_fetch_ms);
    // Guard the double -> size_t cast against overflow for pathological
    // inputs (idle spans of years): anything past 2^53 is "unbounded".
    if (capacity >= 9.0e15) return std::numeric_limits<std::size_t>::max();
    return static_cast<std::size_t>(std::floor(capacity));
}

AdaptivePrefetchController::AdaptivePrefetchController(Config config)
    : config_{config}, window_{std::max<std::size_t>(config.min_window, 1)} {
    if (config_.alpha <= 0.0 || config_.alpha > 1.0) {
        throw std::invalid_argument{
            "AdaptivePrefetchController: alpha in (0, 1]"};
    }
    config_.min_window = std::max<std::size_t>(config_.min_window, 1);
    config_.max_window =
        std::max<std::size_t>(config_.max_window, config_.min_window);
    window_ = config_.min_window;
}

std::size_t AdaptivePrefetchController::update(double idle_ms,
                                               double per_fetch_ms,
                                               std::size_t fetch_slots) {
    const double observed = std::max(idle_ms, 0.0);
    ewma_idle_ms_ = seeded_ ? config_.alpha * observed +
                                  (1.0 - config_.alpha) * ewma_idle_ms_
                            : observed;
    seeded_ = true;
    const std::size_t capacity =
        idle_fetch_budget(ewma_idle_ms_, per_fetch_ms, fetch_slots);
    window_ = std::clamp(capacity, config_.min_window, config_.max_window);
    return window_;
}

}  // namespace spider::core

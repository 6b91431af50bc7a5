#pragma once

// In-memory span recorder for the traced runs. The benchmark opens a span
// around each call it makes into a library layer; spans nest through a
// per-log stack, so every span knows its parent and the step it ran in.
// Nothing is written while the run is measured: spans stay in memory and
// write_tsv() dumps them once the run has ended.
//
// A disabled log records nothing and reads no clock, which is how the
// untraced replay runs the very same code: the difference between the two
// wall times is the tracing overhead.
//
// One SpanLog belongs to one thread. Multi-threaded workloads give each
// thread its own log and merge the results afterwards.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Every span the benchmark records. The text before the first '.' of a
/// name is the layer (src/ module) the call goes into; "bench" spans are
/// the benchmark's own loop.
enum class SpanName : std::uint8_t {
    kStep,              // bench.step: one training or loader step
    kCacheAccess,       // cache.access: frontend access(), admission included
    kSsdFetch,          // storage.ssd_fetch: SSD tier read path
    kSsdInsert,         // storage.ssd_insert: SSD write-back
    kSsdFlush,          // storage.ssd_flush: epoch-end segment flush
    kRemoteFetch,       // storage.remote_fetch: remote store fetch
    kWalAppend,         // storage.wal_append: residency record append
    kWalCompact,        // storage.wal_compact: epoch-end snapshot
    kGather,            // data.gather: batch assembly with augmentation
    kForward,           // nn.forward
    kBackward,          // nn.backward: backward pass + optimizer step
    kEvaluate,          // nn.evaluate: test-split accuracy
    kObserveBatch,      // core.observe_batch: HNSW upserts + rescoring
    kEpochOrder,        // core.epoch_order: graph-IS sampling
    kEndEpoch,          // core.end_epoch: elastic repartition
    kGetFlush,          // server.get_flush: pipelined GET_DATA round trip
    kPutFlush,          // server.put_flush: PUT_SCORE/PUT_NEIGHBORS round trip
    kMissFetch,         // server.miss_fetch: the server's miss hook
    kPayloadRead,       // server.payload_read: the server's payload hook
    kCount,
};

[[nodiscard]] std::string_view to_string(SpanName name);
/// Layer of a span name: the prefix before the first '.'.
[[nodiscard]] std::string_view layer_of(SpanName name);

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFU;

struct Span {
    SpanName name = SpanName::kStep;
    /// Index of the enclosing span in the same log, or kNoParent.
    std::uint32_t parent = kNoParent;
    /// Step id shared by all spans of one step; 0 outside any step.
    std::uint64_t step = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanLog {
public:
    explicit SpanLog(bool enabled) : enabled_{enabled} {}

    /// Closes its span when destroyed. Inert when the log is disabled.
    class Scope {
    public:
        Scope(SpanLog* log, std::uint32_t index) : log_{log}, index_{index} {}
        ~Scope() {
            if (log_ != nullptr) log_->close(index_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        Scope(Scope&&) = delete;
        Scope& operator=(Scope&&) = delete;

    private:
        SpanLog* log_;
        std::uint32_t index_;
    };

    [[nodiscard]] Scope scope(SpanName name) {
        if (!enabled_) return Scope{nullptr, 0};
        return Scope{this, open(name)};
    }

    /// Starts a new step: spans opened until end_step() carry its id.
    void begin_step() { step_ = ++last_step_; }
    void end_step() { step_ = 0; }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

private:
    static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }
    std::uint32_t open(SpanName name);
    void close(std::uint32_t index) {
        spans_[index].end_ns = now_ns();
        open_.pop_back();
    }

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;  // stack of open span indices
    std::uint64_t step_ = 0;
    std::uint64_t last_step_ = 0;
};

/// Self time of every span of one log: its duration minus the union of its
/// children's intervals (clipped to the parent, so overlapping or
/// overhanging children are not counted twice).
[[nodiscard]] std::vector<std::int64_t> self_times(std::span<const Span> spans);

/// Per-name aggregates over one or more logs.
struct SpanTotals {
    struct PerName {
        std::vector<double> durations_ns;
        std::int64_t self_in_steps_ns = 0;  // self time inside bench.step spans
    };
    std::array<PerName, static_cast<std::size_t>(SpanName::kCount)> by_name;
    std::int64_t step_ns = 0;  // summed bench.step durations

    void add(std::span<const Span> spans);

    [[nodiscard]] const PerName& of(SpanName name) const {
        return by_name[static_cast<std::size_t>(name)];
    }
    /// Share of the summed step time spent in `layer`'s own code (self
    /// time of its spans opened inside steps). 0 without steps.
    [[nodiscard]] double step_share(std::string_view layer) const;
};

/// Writes one row per span: log, index, name, parent, step, start_ns,
/// end_ns, self_ns; at most `max_per_log` rows per log (the first ones).
/// Returns false when the file cannot be written.
bool write_tsv(const std::string& path,
               std::span<const std::vector<Span>* const> logs,
               std::size_t max_per_log = SIZE_MAX);

}  // namespace perfbench

#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

constexpr std::array<std::string_view, static_cast<std::size_t>(SpanName::kCount)>
    kNames = {
        "bench.step",         "cache.access",       "storage.ssd_fetch",
        "storage.ssd_insert", "storage.ssd_flush",  "storage.remote_fetch",
        "storage.wal_append", "storage.wal_compact", "data.gather",
        "nn.forward",         "nn.backward",        "nn.evaluate",
        "core.observe_batch", "core.epoch_order",   "core.end_epoch",
        "server.get_flush",   "server.put_flush",   "server.miss_fetch",
        "server.payload_read",
};

}  // namespace

std::string_view to_string(SpanName name) {
    return kNames[static_cast<std::size_t>(name)];
}

std::string_view layer_of(SpanName name) {
    const std::string_view full = to_string(name);
    return full.substr(0, full.find('.'));
}

std::uint32_t SpanLog::open(SpanName name) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{
        .name = name,
        .parent = open_.empty() ? kNoParent : open_.back(),
        .step = step_,
        .start_ns = now_ns(),
        .end_ns = 0,
    });
    open_.push_back(index);
    return index;
}

std::vector<std::int64_t> self_times(std::span<const Span> spans) {
    // Children grouped by parent, each group as (start, end) intervals.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent != kNoParent && s.parent < spans.size()) {
            children[s.parent].emplace_back(s.start_ns, s.end_ns);
        }
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t lo = spans[i].start_ns;
        const std::int64_t hi = spans[i].end_ns;
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = lo;  // end of the union merged so far
        for (auto [start, end] : kids) {
            start = std::max(start, reach);
            end = std::min(end, hi);
            if (end > start) {
                covered += end - start;
                reach = end;
            }
        }
        self[i] = (hi - lo) - covered;
    }
    return self;
}

void SpanTotals::add(std::span<const Span> spans) {
    const std::vector<std::int64_t> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        PerName& slot = by_name[static_cast<std::size_t>(s.name)];
        slot.durations_ns.push_back(static_cast<double>(s.duration_ns()));
        if (s.step != 0) slot.self_in_steps_ns += self[i];
        if (s.name == SpanName::kStep) step_ns += s.duration_ns();
    }
}

double SpanTotals::step_share(std::string_view layer) const {
    if (step_ns <= 0) return 0.0;
    std::int64_t self = 0;
    for (std::size_t i = 0; i < by_name.size(); ++i) {
        if (layer_of(static_cast<SpanName>(i)) == layer) {
            self += by_name[i].self_in_steps_ns;
        }
    }
    return static_cast<double>(self) / static_cast<double>(step_ns);
}

bool write_tsv(const std::string& path,
               std::span<const std::vector<Span>* const> logs,
               std::size_t max_per_log) {
    std::ofstream out{path};
    if (!out) return false;
    out << "log\tindex\tname\tparent\tstep\tstart_ns\tend_ns\tself_ns\n";
    for (std::size_t l = 0; l < logs.size(); ++l) {
        const std::vector<Span>& spans = *logs[l];
        const std::vector<std::int64_t> self = self_times(spans);
        for (std::size_t i = 0; i < std::min(spans.size(), max_per_log); ++i) {
            const Span& s = spans[i];
            out << l << '\t' << i << '\t' << to_string(s.name) << '\t';
            if (s.parent == kNoParent) {
                out << '-';
            } else {
                out << s.parent;
            }
            out << '\t' << s.step << '\t' << s.start_ns << '\t' << s.end_ns
                << '\t' << self[i] << '\n';
        }
    }
    return static_cast<bool>(out);
}

}  // namespace perfbench

#pragma once

// Residency-view oracle shared by the cache suites: a shard's seqlock
// view (DESIGN.md §8.4) must be exactly the projection of the shard's
// sections and neighbor-index slice, taken under freeze().

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cache/semantic_cache.hpp"

namespace spider::cache::oracle {

using ViewEntries =
    std::vector<std::pair<std::uint32_t, ShardResidencyView::Probe>>;

/// The view `shard` implies, by id: kImportance for each importance
/// resident, kHomKey for each homophily key, and kSurrogate with the newest
/// listed key for each non-empty neighbor-index entry.
inline ViewEntries projected_view(
    const TwoLayerSemanticCache::FrozenShard& shard) {
    std::map<std::uint32_t, ShardResidencyView::Probe> view;
    for (const auto& entry : shard.importance) {
        view[entry.first].flags |= ShardResidencyView::kImportance;
    }
    for (const std::uint32_t key : shard.homophily_keys) {
        view[key].flags |= ShardResidencyView::kHomKey;
    }
    for (const auto& [neighbor, keys] : shard.neighbor_index) {
        if (keys.empty()) continue;
        auto& probe = view[neighbor];
        probe.flags |= ShardResidencyView::kSurrogate;
        probe.surrogate = keys.back();
    }
    return {view.begin(), view.end()};
}

/// Empty when the shard's view equals projected_view(); otherwise the
/// first entry where they differ. A surrogate counts only under
/// kSurrogate.
inline std::string view_mismatch(
    const TwoLayerSemanticCache::FrozenShard& shard) {
    ViewEntries actual = shard.view;
    std::sort(actual.begin(), actual.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& entry : actual) {
        if (!(entry.second.flags & ShardResidencyView::kSurrogate)) {
            entry.second.surrogate = 0;
        }
    }
    const ViewEntries expected = projected_view(shard);
    const auto render = [](const ViewEntries& entries, std::size_t i) {
        if (i >= entries.size()) return std::string{"<end>"};
        const auto& [id, probe] = entries[i];
        return "id " + std::to_string(id) + " flags " +
               std::to_string(probe.flags) + " surrogate " +
               std::to_string(probe.surrogate);
    };
    for (std::size_t i = 0; i < std::max(actual.size(), expected.size());
         ++i) {
        const std::string want = render(expected, i);
        const std::string got = render(actual, i);
        if (want != got) {
            return "view entry " + std::to_string(i) + ": want " + want +
                   ", got " + got;
        }
    }
    return {};
}

}  // namespace spider::cache::oracle

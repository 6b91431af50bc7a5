#include "cache/importance_cache.hpp"

#include <cmath>
#include <stdexcept>

namespace spider::cache {

namespace {

// No victim order can hold a NaN: the policy would lose the entry and a
// shrink would spin on it.
void require_ordered(double score, const char* where) {
    if (std::isnan(score)) {
        throw std::invalid_argument{std::string{"ImportanceCache::"} + where +
                                    ": score is NaN"};
    }
}

}  // namespace

ImportanceCache::ImportanceCache(std::size_t capacity, PolicyKind kind)
    : capacity_{capacity}, kind_{kind} {
    if (!importance_policy_ok(kind_)) {
        throw std::invalid_argument{"ImportanceCache: policy '" +
                                    to_string(kind_) +
                                    "' not eligible for the importance section"};
    }
    policy_ = make_section_policy(kind_, capacity_);
}

bool ImportanceCache::contains(std::uint32_t id) const {
    return scores_.contains(id);
}

std::optional<double> ImportanceCache::min_score() const {
    std::optional<double> min;
    scores_.for_each([&min](std::uint32_t, double score) {
        if (!min || score < *min) min = score;
    });
    return min;
}

std::optional<double> ImportanceCache::score_of(std::uint32_t id) const {
    const double* score = scores_.find(id);
    if (score == nullptr) return std::nullopt;
    return *score;
}

ImportanceCache::AdmitResult ImportanceCache::admit_scored(std::uint32_t id,
                                                           double score) {
    require_ordered(score, "admit_scored");
    AdmitResult result;
    if (capacity_ == 0 || scores_.contains(id)) return result;
    policy_->note_score(id, score);
    result.evicted = policy_->admit(id);
    // A section policy evicts only when it admits; without a victim, a
    // rejection leaves the policy's size at the section's.
    if (!result.evicted && policy_->size() == scores_.size()) return result;
    if (result.evicted) scores_.erase(*result.evicted);
    scores_.try_emplace(id, score);
    result.admitted = true;
    return result;
}

bool ImportanceCache::update_score(std::uint32_t id, double score) {
    require_ordered(score, "update_score");
    double* resident = scores_.find(id);
    if (resident == nullptr) return false;
    *resident = score;
    policy_->touch(id);
    policy_->note_score(id, score);
    return true;
}

bool ImportanceCache::erase(std::uint32_t id) {
    if (!scores_.erase(id)) return false;
    policy_->erase(id);
    return true;
}

std::optional<std::uint32_t> ImportanceCache::evict_victim() {
    const auto victim = policy_->peek_victim();
    if (victim) erase(*victim);
    return victim;
}

void ImportanceCache::set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (scores_.size() > capacity_) evict_victim();
    policy_->set_capacity(capacity_);
}

}  // namespace spider::cache

#include "cache/importance_cache.hpp"

#include <stdexcept>

namespace spider::cache {

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
    AdmitResult result;
    if (capacity_ == 0 || scores_.contains(id)) return result;
    policy_->note_score(id, score);
    result.evicted = policy_->admit(id);
    if (!policy_->contains(id)) return result;  // policy rejected
    if (result.evicted) scores_.erase(*result.evicted);
    scores_.try_emplace(id, score);
    result.admitted = true;
    return result;
}

bool ImportanceCache::update_score(std::uint32_t id, double score) {
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

void ImportanceCache::set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (scores_.size() > capacity_) erase(*policy_->peek_victim());
    policy_->set_capacity(capacity_);
}

}  // namespace spider::cache

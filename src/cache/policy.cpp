#include "cache/policy.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "cache/basic_policies.hpp"

namespace spider::cache {

PolicyKind policy_from_string(const std::string& name) {
    std::string n = name;
    std::transform(n.begin(), n.end(), n.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    if (n == "semantic" || n == "spider") return PolicyKind::kSemantic;
    if (n == "lru") return PolicyKind::kLru;
    if (n == "lfu") return PolicyKind::kLfu;
    if (n == "fifo") return PolicyKind::kFifo;
    if (n == "gdsf") return PolicyKind::kGdsf;
    if (n == "cost" || n == "cost-aware" || n == "costaware") {
        return PolicyKind::kCost;
    }
    if (n == "random") return PolicyKind::kRandom;
    if (n == "static" || n == "minio") return PolicyKind::kStatic;
    throw std::invalid_argument{"unknown cache policy '" + name + "'"};
}

std::string to_string(PolicyKind kind) {
    switch (kind) {
        case PolicyKind::kSemantic: return "semantic";
        case PolicyKind::kLru: return "lru";
        case PolicyKind::kLfu: return "lfu";
        case PolicyKind::kFifo: return "fifo";
        case PolicyKind::kGdsf: return "gdsf";
        case PolicyKind::kCost: return "cost";
        case PolicyKind::kRandom: return "random";
        case PolicyKind::kStatic: return "static";
    }
    return "unknown";
}

bool importance_policy_ok(PolicyKind kind) {
    switch (kind) {
        case PolicyKind::kSemantic:
        case PolicyKind::kLru:
        case PolicyKind::kLfu:
        case PolicyKind::kFifo:
        case PolicyKind::kGdsf:
        case PolicyKind::kCost:
            return true;
        case PolicyKind::kRandom:
        case PolicyKind::kStatic:
            return false;
    }
    return false;
}

bool homophily_policy_ok(PolicyKind kind) {
    // kSemantic is score-ordered admission — the homophily section has no
    // score stream, so it stays out; random/static as for importance.
    return kind != PolicyKind::kSemantic && importance_policy_ok(kind);
}

void validate(const SectionPolicies& policies) {
    if (!importance_policy_ok(policies.importance)) {
        throw std::invalid_argument{
            "importance section policy '" + to_string(policies.importance) +
            "' not eligible (use semantic|lru|lfu|fifo|gdsf|cost)"};
    }
    if (!homophily_policy_ok(policies.homophily)) {
        throw std::invalid_argument{
            "homophily section policy '" + to_string(policies.homophily) +
            "' not eligible (use fifo|lru|lfu|gdsf|cost)"};
    }
}

std::unique_ptr<EvictionCache> make_section_policy(PolicyKind kind,
                                                   std::size_t capacity) {
    switch (kind) {
        case PolicyKind::kLru: return std::make_unique<LruCache>(capacity);
        case PolicyKind::kLfu: return std::make_unique<LfuCache>(capacity);
        case PolicyKind::kFifo: return std::make_unique<FifoCache>(capacity);
        case PolicyKind::kGdsf: return std::make_unique<GdsfCache>(capacity);
        case PolicyKind::kCost:
            return std::make_unique<CostAwareCache>(capacity);
        case PolicyKind::kSemantic:
            return std::make_unique<SemanticCache>(capacity);
        case PolicyKind::kRandom:
        case PolicyKind::kStatic:
            break;
    }
    throw std::invalid_argument{"make_section_policy: '" + to_string(kind) +
                                "' is not a section policy"};
}

}  // namespace spider::cache

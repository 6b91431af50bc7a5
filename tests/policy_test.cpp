// Policy-seam tests (PR 9, DESIGN.md §13): name parsing and section
// eligibility, the RandomCache single-stream regression, per-policy
// shrink-order audits, a 20k-op parity trace pitting every EvictionCache
// against an independent oracle model, and the policy-backed modes of the
// semantic-cache sections (including live set_section_policies switches).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "cache/basic_policies.hpp"
#include "cache/homophily_cache.hpp"
#include "cache/importance_cache.hpp"
#include "cache/policy.hpp"
#include "cache/semantic_cache.hpp"
#include "util/rng.hpp"

namespace spider::cache {
namespace {

// ------------------------------------------------------------ name parsing

TEST(PolicyKindNames, ParseAndRoundTrip) {
    const PolicyKind kinds[] = {
        PolicyKind::kSemantic, PolicyKind::kLru,  PolicyKind::kLfu,
        PolicyKind::kFifo,     PolicyKind::kGdsf, PolicyKind::kCost,
        PolicyKind::kRandom,   PolicyKind::kStatic};
    for (const PolicyKind kind : kinds) {
        EXPECT_EQ(policy_from_string(to_string(kind)), kind);
    }
    EXPECT_EQ(policy_from_string("LRU"), PolicyKind::kLru);
    EXPECT_EQ(policy_from_string("GdSf"), PolicyKind::kGdsf);
    EXPECT_THROW(policy_from_string("clock"), std::invalid_argument);
    EXPECT_THROW(policy_from_string(""), std::invalid_argument);
}

TEST(PolicyKindNames, SectionEligibility) {
    EXPECT_TRUE(importance_policy_ok(PolicyKind::kSemantic));
    EXPECT_TRUE(importance_policy_ok(PolicyKind::kGdsf));
    EXPECT_FALSE(importance_policy_ok(PolicyKind::kRandom));
    EXPECT_FALSE(importance_policy_ok(PolicyKind::kStatic));
    EXPECT_TRUE(homophily_policy_ok(PolicyKind::kFifo));
    EXPECT_TRUE(homophily_policy_ok(PolicyKind::kCost));
    EXPECT_FALSE(homophily_policy_ok(PolicyKind::kSemantic));
    EXPECT_FALSE(homophily_policy_ok(PolicyKind::kRandom));

    EXPECT_NO_THROW(validate(SectionPolicies{}));
    EXPECT_THROW(validate(SectionPolicies{PolicyKind::kRandom,
                                          PolicyKind::kFifo}),
                 std::invalid_argument);
    EXPECT_THROW(validate(SectionPolicies{PolicyKind::kSemantic,
                                          PolicyKind::kSemantic}),
                 std::invalid_argument);
}

TEST(PolicyKindNames, MakeSectionPolicy) {
    const PolicyKind ok[] = {PolicyKind::kSemantic, PolicyKind::kLru,
                             PolicyKind::kLfu,      PolicyKind::kFifo,
                             PolicyKind::kGdsf,     PolicyKind::kCost};
    for (const PolicyKind kind : ok) {
        const std::unique_ptr<EvictionCache> policy =
            make_section_policy(kind, 4);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->capacity(), 4U);
        EXPECT_EQ(policy->size(), 0U);
    }
    EXPECT_EQ(make_section_policy(PolicyKind::kSemantic, 4)->name(),
              "Semantic");
    EXPECT_THROW(make_section_policy(PolicyKind::kRandom, 4),
                 std::invalid_argument);
    EXPECT_THROW(make_section_policy(PolicyKind::kStatic, 4),
                 std::invalid_argument);
}

// --------------------------------------- RandomCache single-stream pinning

// The PR 9 bugfix: RandomCache used to draw replacement victims and
// random_resident() surrogates from two different generators, so a fixed
// seed did not pin the interleaved sequence. A mirror of the documented
// algorithm (swap-remove + one shared stream) must now predict every draw.
TEST(RandomCachePolicy, FixedSeedPinsInterleavedSequence) {
    constexpr std::uint64_t kSeed = 7;
    RandomCache cache{3, util::Rng{kSeed}};

    util::Rng mirror{kSeed};
    std::vector<std::uint32_t> items;
    const auto mirror_remove = [&](std::size_t slot) {
        const std::uint32_t victim = items[slot];
        items[slot] = items.back();
        items.pop_back();
        return victim;
    };

    for (std::uint32_t id = 0; id < 3; ++id) {
        EXPECT_EQ(cache.admit(id), std::nullopt);  // filling draws nothing
        items.push_back(id);
    }
    for (std::uint32_t id = 3; id < 40; ++id) {
        // peek_victim previews the next draw without consuming it.
        util::Rng preview = mirror;
        const std::uint32_t peeked =
            items[preview.uniform_index(items.size())];
        EXPECT_EQ(cache.peek_victim(), peeked);

        const std::uint32_t expected =
            mirror_remove(mirror.uniform_index(items.size()));
        EXPECT_EQ(cache.admit(id), expected);
        items.push_back(id);

        if (id % 3 == 0) {  // surrogate draws ride the same stream
            EXPECT_EQ(cache.random_resident(),
                      items[mirror.uniform_index(items.size())]);
        }
    }
    // Two caches with the same seed replay identically.
    RandomCache a{3, util::Rng{kSeed}};
    RandomCache b{3, util::Rng{kSeed}};
    for (std::uint32_t id = 0; id < 60; ++id) {
        EXPECT_EQ(a.admit(id), b.admit(id));
        EXPECT_EQ(a.random_resident(), b.random_resident());
    }
}

// --------------------------------------------------- shrink-order audits

// Drain a cache one capacity step at a time, checking that each shrink
// removes exactly the id peek_victim() announced — i.e. shrink follows the
// policy's victim order, never some ad-hoc one.
void expect_shrink_follows_victim_order(
    EvictionCache& cache, const std::vector<std::uint32_t>& expected_order) {
    for (const std::uint32_t expected : expected_order) {
        ASSERT_GT(cache.size(), 0U);
        EXPECT_EQ(cache.peek_victim(), expected);
        cache.set_capacity(cache.size() - 1);
        EXPECT_FALSE(cache.contains(expected));
    }
}

TEST(ShrinkOrder, LruEvictsLeastRecentFirst) {
    LruCache cache{4};
    for (std::uint32_t id = 1; id <= 4; ++id) cache.admit(id);
    EXPECT_TRUE(cache.touch(1));  // 1 becomes most recent
    expect_shrink_follows_victim_order(cache, {2, 3, 4, 1});
}

TEST(ShrinkOrder, LfuEvictsColdestFirst) {
    LfuCache cache{4};
    for (std::uint32_t id = 1; id <= 4; ++id) cache.admit(id);
    cache.touch(2);
    cache.touch(2);
    cache.touch(3);
    // freq: 1->1 (stamp oldest), 4->1, 3->2, 2->3.
    expect_shrink_follows_victim_order(cache, {1, 4, 3, 2});
}

TEST(ShrinkOrder, FifoEvictsOldestFirst) {
    FifoCache cache{4};
    for (std::uint32_t id = 1; id <= 4; ++id) cache.admit(id);
    cache.touch(1);  // FIFO ignores touches
    expect_shrink_follows_victim_order(cache, {1, 2, 3, 4});
}

TEST(ShrinkOrder, StaticEvictsNewestFirstKeepingStableSet) {
    // MinIO "never replaces" still must give capacity back on an elastic
    // shrink; the documented order is LIFO so the earliest-admitted stable
    // set (the source of its steady hit ratio) survives.
    StaticCache cache{4};
    for (std::uint32_t id = 1; id <= 4; ++id) cache.admit(id);
    EXPECT_EQ(cache.admit(9), std::nullopt);  // full: rejected, not replaced
    EXPECT_FALSE(cache.contains(9));
    expect_shrink_follows_victim_order(cache, {4, 3, 2});
    EXPECT_TRUE(cache.contains(1));
}

TEST(ShrinkOrder, RandomShrinkDrawsFromTheSingleStream) {
    RandomCache cache{6, util::Rng{11}};
    for (std::uint32_t id = 0; id < 6; ++id) cache.admit(id);
    // peek previews the next stream draw; shrink must consume exactly it.
    while (cache.size() > 1) {
        const std::optional<std::uint32_t> peeked = cache.peek_victim();
        ASSERT_TRUE(peeked.has_value());
        cache.set_capacity(cache.size() - 1);
        EXPECT_FALSE(cache.contains(*peeked));
    }
}

TEST(ShrinkOrder, GdsfEvictsLowestPriorityFirst) {
    GdsfCache cache{3};
    cache.note_score(1, 0.2);
    cache.admit(1);
    cache.note_score(2, 5.0);
    cache.admit(2);
    cache.note_score(3, 1.0);
    cache.admit(3);
    // priorities: 1 -> 0.2, 3 -> 1.0, 2 -> 5.0 (clock still 0).
    expect_shrink_follows_victim_order(cache, {1, 3, 2});
}

TEST(ShrinkOrder, CostAwareEvictsLowestScoreFirst) {
    CostAwareCache cache{3};
    cache.note_score(1, 0.9);
    cache.admit(1);
    cache.note_score(2, 0.1);
    cache.admit(2);
    cache.note_score(3, 0.5);
    cache.admit(3);
    expect_shrink_follows_victim_order(cache, {2, 3, 1});
}

TEST(ShrinkOrder, SemanticEvictsLowestScoreThenLowestId) {
    SemanticCache cache{4};
    const std::pair<std::uint32_t, double> admits[] = {
        {7, 0.5}, {3, 0.5}, {9, 0.1}, {1, 0.9}};
    for (const auto& [id, score] : admits) {
        cache.note_score(id, score);
        ASSERT_EQ(cache.admit(id), std::nullopt);
    }
    cache.touch(9);  // touches carry no signal
    // (0.1, 9), then the 0.5 tie on the lower id, then (0.9, 1).
    expect_shrink_follows_victim_order(cache, {9, 3, 7, 1});
}

TEST(SemanticCachePolicy, FullCacheAdmitsOnlyAboveTheMinimum) {
    SemanticCache cache{2};
    cache.note_score(5, 0.4);
    EXPECT_EQ(cache.admit(5), std::nullopt);
    cache.note_score(2, 0.4);
    EXPECT_EQ(cache.admit(2), std::nullopt);  // free space: no gate
    ASSERT_EQ(cache.size(), 2U);
    // Equal scores: the lower id is the victim.
    EXPECT_EQ(cache.peek_victim(), 2U);

    // Case 2: a score at or below the minimum is rejected, nothing moves.
    cache.note_score(8, 0.4);
    EXPECT_EQ(cache.admit(8), std::nullopt);
    cache.note_score(8, 0.1);
    EXPECT_EQ(cache.admit(8), std::nullopt);
    EXPECT_FALSE(cache.contains(8));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_TRUE(cache.contains(5));
    // Without a noted score a full cache rejects too.
    EXPECT_EQ(cache.admit(8), std::nullopt);
    EXPECT_FALSE(cache.contains(8));

    // Case 4: a higher score evicts the minimum, ties broken on the id.
    cache.note_score(8, 0.6);
    EXPECT_EQ(cache.admit(8), 2U);
    EXPECT_TRUE(cache.contains(8));
    EXPECT_EQ(cache.peek_victim(), 5U);

    // A resident's re-noted score re-keys it: 5 outranks 8 now.
    cache.note_score(5, 0.7);
    EXPECT_EQ(cache.peek_victim(), 8U);
    cache.note_score(4, 0.65);
    EXPECT_EQ(cache.admit(4), 8U);
    EXPECT_EQ(cache.peek_victim(), 4U);
}

TEST(ShrinkOrder, GrowNeverEvicts) {
    LruCache lru{2};
    lru.admit(1);
    lru.admit(2);
    lru.set_capacity(10);
    EXPECT_EQ(lru.size(), 2U);
    EXPECT_EQ(lru.capacity(), 10U);
    EXPECT_TRUE(lru.contains(1));
    EXPECT_TRUE(lru.contains(2));
}

// ------------------------------------------------------ oracle parity trace

// Independent reference models: same contract as EvictionCache, written
// with flat vectors and linear scans instead of the production containers,
// so a bookkeeping bug in either side breaks the 20k-op trace.
class Oracle {
public:
    virtual ~Oracle() = default;
    [[nodiscard]] virtual std::size_t size() const = 0;
    [[nodiscard]] virtual bool contains(std::uint32_t id) const = 0;
    virtual bool touch(std::uint32_t id) = 0;
    virtual std::optional<std::uint32_t> admit(std::uint32_t id) = 0;
    virtual void set_capacity(std::size_t capacity) = 0;
    virtual void note_score(std::uint32_t id, double score) {}
    [[nodiscard]] virtual std::optional<std::uint32_t> peek_victim()
        const = 0;
    virtual bool erase(std::uint32_t id) = 0;
};

class OracleLru final : public Oracle {
public:
    explicit OracleLru(std::size_t capacity) : capacity_{capacity} {}
    [[nodiscard]] std::size_t size() const override { return order_.size(); }
    [[nodiscard]] bool contains(std::uint32_t id) const override {
        return std::find(order_.begin(), order_.end(), id) != order_.end();
    }
    bool touch(std::uint32_t id) override {
        const auto it = std::find(order_.begin(), order_.end(), id);
        if (it == order_.end()) return false;
        order_.erase(it);
        order_.push_back(id);  // back = most recent
        return true;
    }
    std::optional<std::uint32_t> admit(std::uint32_t id) override {
        if (capacity_ == 0 || contains(id)) return std::nullopt;
        std::optional<std::uint32_t> evicted;
        if (order_.size() >= capacity_) {
            evicted = order_.front();
            order_.pop_front();
        }
        order_.push_back(id);
        return evicted;
    }
    void set_capacity(std::size_t capacity) override {
        capacity_ = capacity;
        while (order_.size() > capacity_) order_.pop_front();
    }
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override {
        if (order_.empty()) return std::nullopt;
        return order_.front();
    }
    bool erase(std::uint32_t id) override {
        const auto it = std::find(order_.begin(), order_.end(), id);
        if (it == order_.end()) return false;
        order_.erase(it);
        return true;
    }

private:
    std::size_t capacity_;
    std::deque<std::uint32_t> order_;  // front = least recent
};

class OracleFifo final : public Oracle {
public:
    explicit OracleFifo(std::size_t capacity) : capacity_{capacity} {}
    [[nodiscard]] std::size_t size() const override { return order_.size(); }
    [[nodiscard]] bool contains(std::uint32_t id) const override {
        return std::find(order_.begin(), order_.end(), id) != order_.end();
    }
    bool touch(std::uint32_t id) override { return contains(id); }
    std::optional<std::uint32_t> admit(std::uint32_t id) override {
        if (capacity_ == 0 || contains(id)) return std::nullopt;
        std::optional<std::uint32_t> evicted;
        if (order_.size() >= capacity_) {
            evicted = order_.front();
            order_.pop_front();
        }
        order_.push_back(id);
        return evicted;
    }
    void set_capacity(std::size_t capacity) override {
        capacity_ = capacity;
        while (order_.size() > capacity_) order_.pop_front();
    }
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override {
        if (order_.empty()) return std::nullopt;
        return order_.front();
    }
    bool erase(std::uint32_t id) override {
        const auto it = std::find(order_.begin(), order_.end(), id);
        if (it == order_.end()) return false;
        order_.erase(it);
        return true;
    }

private:
    std::size_t capacity_;
    std::deque<std::uint32_t> order_;  // front = oldest
};

// Shared scaffolding for the (key, stamp)-ordered models: LFU orders by
// (frequency, stamp), GDSF by (priority, stamp), cost-aware by
// (cost, stamp); victim = lexicographic minimum.
struct RankedEntry {
    std::uint32_t id;
    std::uint64_t frequency;
    double cost;
    double priority;
    std::uint64_t stamp;
};

class OracleLfu final : public Oracle {
public:
    explicit OracleLfu(std::size_t capacity) : capacity_{capacity} {}
    [[nodiscard]] std::size_t size() const override {
        return entries_.size();
    }
    [[nodiscard]] bool contains(std::uint32_t id) const override {
        return find(id) != entries_.end();
    }
    bool touch(std::uint32_t id) override {
        const auto it = find(id);
        if (it == entries_.end()) return false;
        ++it->frequency;
        it->stamp = ++counter_;
        return true;
    }
    std::optional<std::uint32_t> admit(std::uint32_t id) override {
        if (capacity_ == 0 || contains(id)) return std::nullopt;
        std::optional<std::uint32_t> evicted;
        if (entries_.size() >= capacity_) evicted = evict_min();
        entries_.push_back({id, 1, 0.0, 0.0, ++counter_});
        return evicted;
    }
    void set_capacity(std::size_t capacity) override {
        capacity_ = capacity;
        while (entries_.size() > capacity_) evict_min();
    }
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override {
        const auto it = min_it();
        if (it == entries_.end()) return std::nullopt;
        return it->id;
    }
    bool erase(std::uint32_t id) override {
        const auto it = find(id);
        if (it == entries_.end()) return false;
        entries_.erase(it);
        return true;
    }

private:
    std::vector<RankedEntry>::iterator find(std::uint32_t id) {
        return std::find_if(entries_.begin(), entries_.end(),
                            [id](const RankedEntry& e) { return e.id == id; });
    }
    [[nodiscard]] std::vector<RankedEntry>::const_iterator find(
        std::uint32_t id) const {
        return std::find_if(entries_.begin(), entries_.end(),
                            [id](const RankedEntry& e) { return e.id == id; });
    }
    [[nodiscard]] std::vector<RankedEntry>::const_iterator min_it() const {
        return std::min_element(
            entries_.begin(), entries_.end(),
            [](const RankedEntry& a, const RankedEntry& b) {
                return std::pair{a.frequency, a.stamp} <
                       std::pair{b.frequency, b.stamp};
            });
    }
    std::optional<std::uint32_t> evict_min() {
        const auto it = min_it();
        if (it == entries_.end()) return std::nullopt;
        const std::uint32_t victim = it->id;
        entries_.erase(entries_.begin() + (it - entries_.begin()));
        return victim;
    }

    std::size_t capacity_;
    std::uint64_t counter_ = 0;
    std::vector<RankedEntry> entries_;
};

class OracleGdsf final : public Oracle {
public:
    explicit OracleGdsf(std::size_t capacity) : capacity_{capacity} {}
    [[nodiscard]] std::size_t size() const override {
        return entries_.size();
    }
    [[nodiscard]] bool contains(std::uint32_t id) const override {
        return find(id) != entries_.end();
    }
    bool touch(std::uint32_t id) override {
        const auto it = find(id);
        if (it == entries_.end()) return false;
        ++it->frequency;
        it->priority = clock_ + static_cast<double>(it->frequency) * it->cost;
        it->stamp = ++counter_;
        return true;
    }
    std::optional<std::uint32_t> admit(std::uint32_t id) override {
        if (capacity_ == 0 || contains(id)) return std::nullopt;
        std::optional<std::uint32_t> evicted;
        if (entries_.size() >= capacity_) evicted = evict_min();
        const double cost =
            (pending_valid_ && pending_id_ == id) ? pending_cost_ : 1.0;
        pending_valid_ = false;
        entries_.push_back({id, 1, cost, clock_ + cost, ++counter_});
        return evicted;
    }
    void set_capacity(std::size_t capacity) override {
        capacity_ = capacity;
        while (entries_.size() > capacity_) evict_min();
    }
    void note_score(std::uint32_t id, double score) override {
        const double cost = std::max(score, 0.0);
        const auto it = find(id);
        if (it == entries_.end()) {
            pending_id_ = id;
            pending_cost_ = cost;
            pending_valid_ = true;
            return;
        }
        it->cost = cost;
        it->priority = clock_ + static_cast<double>(it->frequency) * cost;
        it->stamp = ++counter_;
    }
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override {
        const auto it = min_it();
        if (it == entries_.end()) return std::nullopt;
        return it->id;
    }
    bool erase(std::uint32_t id) override {
        const auto it = find(id);
        if (it == entries_.end()) return false;
        entries_.erase(entries_.begin() + (it - entries_.begin()));
        return true;
    }

private:
    std::vector<RankedEntry>::iterator find(std::uint32_t id) {
        return std::find_if(entries_.begin(), entries_.end(),
                            [id](const RankedEntry& e) { return e.id == id; });
    }
    [[nodiscard]] std::vector<RankedEntry>::const_iterator find(
        std::uint32_t id) const {
        return std::find_if(entries_.begin(), entries_.end(),
                            [id](const RankedEntry& e) { return e.id == id; });
    }
    [[nodiscard]] std::vector<RankedEntry>::const_iterator min_it() const {
        return std::min_element(
            entries_.begin(), entries_.end(),
            [](const RankedEntry& a, const RankedEntry& b) {
                return std::pair{a.priority, a.stamp} <
                       std::pair{b.priority, b.stamp};
            });
    }
    std::optional<std::uint32_t> evict_min() {
        const auto it = min_it();
        if (it == entries_.end()) return std::nullopt;
        const std::uint32_t victim = it->id;
        clock_ = std::max(clock_, it->priority);
        entries_.erase(entries_.begin() + (it - entries_.begin()));
        return victim;
    }

    std::size_t capacity_;
    double clock_ = 0.0;
    std::uint64_t counter_ = 0;
    std::uint32_t pending_id_ = 0;
    double pending_cost_ = 1.0;
    bool pending_valid_ = false;
    std::vector<RankedEntry> entries_;
};

class OracleCost final : public Oracle {
public:
    explicit OracleCost(std::size_t capacity) : capacity_{capacity} {}
    [[nodiscard]] std::size_t size() const override {
        return entries_.size();
    }
    [[nodiscard]] bool contains(std::uint32_t id) const override {
        return find(id) != entries_.end();
    }
    bool touch(std::uint32_t id) override {
        const auto it = find(id);
        if (it == entries_.end()) return false;
        it->stamp = ++counter_;  // recency bump within the cost bucket
        return true;
    }
    std::optional<std::uint32_t> admit(std::uint32_t id) override {
        if (capacity_ == 0 || contains(id)) return std::nullopt;
        std::optional<std::uint32_t> evicted;
        if (entries_.size() >= capacity_) evicted = evict_min();
        const double cost =
            (pending_valid_ && pending_id_ == id) ? pending_cost_ : 1.0;
        pending_valid_ = false;
        entries_.push_back({id, 0, cost, 0.0, ++counter_});
        return evicted;
    }
    void set_capacity(std::size_t capacity) override {
        capacity_ = capacity;
        while (entries_.size() > capacity_) evict_min();
    }
    void note_score(std::uint32_t id, double score) override {
        const double cost = std::max(score, 0.0);
        const auto it = find(id);
        if (it == entries_.end()) {
            pending_id_ = id;
            pending_cost_ = cost;
            pending_valid_ = true;
            return;
        }
        it->cost = cost;
        it->stamp = ++counter_;
    }
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override {
        const auto it = min_it();
        if (it == entries_.end()) return std::nullopt;
        return it->id;
    }
    bool erase(std::uint32_t id) override {
        const auto it = find(id);
        if (it == entries_.end()) return false;
        entries_.erase(entries_.begin() + (it - entries_.begin()));
        return true;
    }

private:
    std::vector<RankedEntry>::iterator find(std::uint32_t id) {
        return std::find_if(entries_.begin(), entries_.end(),
                            [id](const RankedEntry& e) { return e.id == id; });
    }
    [[nodiscard]] std::vector<RankedEntry>::const_iterator find(
        std::uint32_t id) const {
        return std::find_if(entries_.begin(), entries_.end(),
                            [id](const RankedEntry& e) { return e.id == id; });
    }
    [[nodiscard]] std::vector<RankedEntry>::const_iterator min_it() const {
        return std::min_element(
            entries_.begin(), entries_.end(),
            [](const RankedEntry& a, const RankedEntry& b) {
                return std::pair{a.cost, a.stamp} < std::pair{b.cost, b.stamp};
            });
    }
    std::optional<std::uint32_t> evict_min() {
        const auto it = min_it();
        if (it == entries_.end()) return std::nullopt;
        const std::uint32_t victim = it->id;
        entries_.erase(entries_.begin() + (it - entries_.begin()));
        return victim;
    }

    std::size_t capacity_;
    std::uint64_t counter_ = 0;
    std::uint32_t pending_id_ = 0;
    double pending_cost_ = 1.0;
    bool pending_valid_ = false;
    std::vector<RankedEntry> entries_;
};

// The paper's score gate: victim = lowest (score, id); an id admitted
// without a noted score scores -infinity; a full cache admits only a score
// strictly above the victim's. Written without the (score, id) pair key the
// production policy orders on: two explicit comparisons instead.
class OracleSemantic final : public Oracle {
public:
    explicit OracleSemantic(std::size_t capacity) : capacity_{capacity} {}
    [[nodiscard]] std::size_t size() const override {
        return entries_.size();
    }
    [[nodiscard]] bool contains(std::uint32_t id) const override {
        return index_of(id) != kAbsent;
    }
    bool touch(std::uint32_t id) override { return contains(id); }
    std::optional<std::uint32_t> admit(std::uint32_t id) override {
        if (capacity_ == 0 || contains(id)) return std::nullopt;
        double score = -std::numeric_limits<double>::infinity();
        if (pending_valid_ && pending_id_ == id) score = pending_score_;
        pending_valid_ = false;
        std::optional<std::uint32_t> evicted;
        if (entries_.size() >= capacity_) {
            if (!(score > entries_[min_index()].score)) return std::nullopt;
            evicted = remove_at(min_index());
        }
        entries_.push_back({id, score});
        return evicted;
    }
    void set_capacity(std::size_t capacity) override {
        capacity_ = capacity;
        while (entries_.size() > capacity_) remove_at(min_index());
    }
    void note_score(std::uint32_t id, double score) override {
        const std::size_t i = index_of(id);
        if (i != kAbsent) {
            entries_[i].score = score;
            return;
        }
        pending_id_ = id;
        pending_score_ = score;
        pending_valid_ = true;
    }
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override {
        if (entries_.empty()) return std::nullopt;
        return entries_[min_index()].id;
    }
    bool erase(std::uint32_t id) override {
        const std::size_t i = index_of(id);
        if (i == kAbsent) return false;
        remove_at(i);
        return true;
    }

private:
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    struct Scored {
        std::uint32_t id;
        double score;
    };

    [[nodiscard]] std::size_t index_of(std::uint32_t id) const {
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].id == id) return i;
        }
        return kAbsent;
    }
    /// Index of the victim; the entries must not be empty.
    [[nodiscard]] std::size_t min_index() const {
        std::size_t best = 0;
        for (std::size_t i = 1; i < entries_.size(); ++i) {
            const Scored& e = entries_[i];
            const Scored& b = entries_[best];
            if (e.score < b.score || (e.score == b.score && e.id < b.id)) {
                best = i;
            }
        }
        return best;
    }
    std::uint32_t remove_at(std::size_t i) {
        const std::uint32_t id = entries_[i].id;
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return id;
    }

    std::size_t capacity_;
    std::uint32_t pending_id_ = 0;
    double pending_score_ = 0.0;
    bool pending_valid_ = false;
    std::vector<Scored> entries_;
};

class OracleStatic final : public Oracle {
public:
    explicit OracleStatic(std::size_t capacity) : capacity_{capacity} {}
    [[nodiscard]] std::size_t size() const override { return items_.size(); }
    [[nodiscard]] bool contains(std::uint32_t id) const override {
        return std::find(items_.begin(), items_.end(), id) != items_.end();
    }
    bool touch(std::uint32_t id) override { return contains(id); }
    std::optional<std::uint32_t> admit(std::uint32_t id) override {
        if (items_.size() >= capacity_ || contains(id)) return std::nullopt;
        items_.push_back(id);
        return std::nullopt;
    }
    void set_capacity(std::size_t capacity) override {
        capacity_ = capacity;
        while (items_.size() > capacity_) items_.pop_back();
    }
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override {
        if (items_.empty()) return std::nullopt;
        return items_.back();
    }
    bool erase(std::uint32_t id) override {
        const auto it = std::find(items_.begin(), items_.end(), id);
        if (it == items_.end()) return false;
        // Mirror the production swap-remove so admission order (and with
        // it the LIFO shrink order) matches after interior erases.
        *it = items_.back();
        items_.pop_back();
        return true;
    }

private:
    std::size_t capacity_;
    std::vector<std::uint32_t> items_;
};

// Random: the oracle re-runs the documented algorithm against a mirrored
// rng stream, so it checks the single-stream fix under the full op mix.
class OracleRandom final : public Oracle {
public:
    OracleRandom(std::size_t capacity, util::Rng rng)
        : capacity_{capacity}, rng_{rng} {}
    [[nodiscard]] std::size_t size() const override { return items_.size(); }
    [[nodiscard]] bool contains(std::uint32_t id) const override {
        return std::find(items_.begin(), items_.end(), id) != items_.end();
    }
    bool touch(std::uint32_t id) override { return contains(id); }
    std::optional<std::uint32_t> admit(std::uint32_t id) override {
        if (capacity_ == 0 || contains(id)) return std::nullopt;
        std::optional<std::uint32_t> evicted;
        if (items_.size() >= capacity_) {
            evicted = remove_slot(rng_.uniform_index(items_.size()));
        }
        items_.push_back(id);
        return evicted;
    }
    void set_capacity(std::size_t capacity) override {
        capacity_ = capacity;
        while (items_.size() > capacity_) {
            remove_slot(rng_.uniform_index(items_.size()));
        }
    }
    [[nodiscard]] std::optional<std::uint32_t> peek_victim() const override {
        if (items_.empty()) return std::nullopt;
        util::Rng preview = rng_;
        return items_[preview.uniform_index(items_.size())];
    }
    bool erase(std::uint32_t id) override {
        const auto it = std::find(items_.begin(), items_.end(), id);
        if (it == items_.end()) return false;
        remove_slot(static_cast<std::size_t>(it - items_.begin()));
        return true;
    }

private:
    std::uint32_t remove_slot(std::size_t slot) {
        const std::uint32_t victim = items_[slot];
        items_[slot] = items_.back();
        items_.pop_back();
        return victim;
    }

    std::size_t capacity_;
    util::Rng rng_;
    std::vector<std::uint32_t> items_;
};

// 20k deterministic operations — touches (including admit-after-touch
// sequences), admissions, score notes, erases, and interleaved
// set_capacity grow/shrink — applied identically to the production cache
// and its oracle, with full-state agreement checked throughout. By default
// ids come from a space of 160 and capacity moves between 4 and 48 items.
struct TraceShape {
    std::uint32_t id_space = 160;
    std::size_t min_capacity = 4;
    std::size_t max_capacity = 48;
};

// Thousands of residents over 20k ids: the policy's containers grow, and
// erases, re-keys and shrinks work deep inside a crowded victim order.
constexpr TraceShape kCrowded{
    .id_space = 20'000, .min_capacity = 1024, .max_capacity = 8192};

void run_parity_trace(EvictionCache& cache, Oracle& oracle,
                      std::uint64_t seed, TraceShape shape = {}) {
    constexpr std::size_t kOps = 20'000;
    util::Rng rng{seed};
    for (std::size_t op = 0; op < kOps; ++op) {
        const auto id =
            static_cast<std::uint32_t>(rng.uniform_index(shape.id_space));
        const std::uint64_t roll = rng.uniform_index(100);
        if (roll < 40) {
            EXPECT_EQ(cache.touch(id), oracle.touch(id)) << "op " << op;
        } else if (roll < 70) {
            EXPECT_EQ(cache.admit(id), oracle.admit(id)) << "op " << op;
        } else if (roll < 82) {
            const double score = rng.uniform(0.0, 4.0);
            cache.note_score(id, score);
            oracle.note_score(id, score);
        } else if (roll < 94) {
            EXPECT_EQ(cache.erase(id), oracle.erase(id)) << "op " << op;
        } else {
            const auto capacity = static_cast<std::size_t>(
                shape.min_capacity +
                rng.uniform_index(shape.max_capacity - shape.min_capacity + 1));
            cache.set_capacity(capacity);
            oracle.set_capacity(capacity);
            EXPECT_EQ(cache.capacity(), capacity);
        }
        ASSERT_EQ(cache.size(), oracle.size()) << "op " << op;
        EXPECT_EQ(cache.peek_victim(), oracle.peek_victim()) << "op " << op;
        const auto probe =
            static_cast<std::uint32_t>(rng.uniform_index(shape.id_space));
        EXPECT_EQ(cache.contains(probe), oracle.contains(probe))
            << "op " << op;
    }
}

TEST(PolicyParity, LruMatchesOracleOver20kOps) {
    LruCache cache{24};
    OracleLru oracle{24};
    run_parity_trace(cache, oracle, 101);
}

TEST(PolicyParity, LfuMatchesOracleOver20kOps) {
    {
        LfuCache cache{24};
        OracleLfu oracle{24};
        run_parity_trace(cache, oracle, 202);
    }
    LfuCache cache{4096};
    OracleLfu oracle{4096};
    run_parity_trace(cache, oracle, 203, kCrowded);
}

TEST(PolicyParity, FifoMatchesOracleOver20kOps) {
    {
        FifoCache cache{24};
        OracleFifo oracle{24};
        run_parity_trace(cache, oracle, 303);
    }
    FifoCache cache{4096};
    OracleFifo oracle{4096};
    run_parity_trace(cache, oracle, 304, kCrowded);
}

TEST(PolicyParity, GdsfMatchesOracleOver20kOps) {
    {
        GdsfCache cache{24};
        OracleGdsf oracle{24};
        run_parity_trace(cache, oracle, 404);
    }
    GdsfCache cache{4096};
    OracleGdsf oracle{4096};
    run_parity_trace(cache, oracle, 405, kCrowded);
}

TEST(PolicyParity, CostAwareMatchesOracleOver20kOps) {
    {
        CostAwareCache cache{24};
        OracleCost oracle{24};
        run_parity_trace(cache, oracle, 505);
    }
    CostAwareCache cache{4096};
    OracleCost oracle{4096};
    run_parity_trace(cache, oracle, 506, kCrowded);
}

TEST(PolicyParity, SemanticMatchesOracleOver20kOps) {
    {
        SemanticCache cache{24};
        OracleSemantic oracle{24};
        run_parity_trace(cache, oracle, 808);
    }
    SemanticCache cache{4096};
    OracleSemantic oracle{4096};
    run_parity_trace(cache, oracle, 809, kCrowded);
}

TEST(PolicyParity, StaticMatchesOracleOver20kOps) {
    StaticCache cache{24};
    OracleStatic oracle{24};
    run_parity_trace(cache, oracle, 606);
}

TEST(PolicyParity, RandomMatchesOracleOver20kOps) {
    RandomCache cache{24, util::Rng{77}};
    OracleRandom oracle{24, util::Rng{77}};
    run_parity_trace(cache, oracle, 707);
}

// ------------------------------------------- policy-backed section modes

TEST(ImportanceCachePolicyMode, LruAlwaysAdmitsAndEvictsByRecency) {
    ImportanceCache imp{2, PolicyKind::kLru};
    EXPECT_EQ(imp.policy(), PolicyKind::kLru);
    EXPECT_TRUE(imp.admit_scored(1, 0.9).admitted);
    EXPECT_TRUE(imp.admit_scored(2, 0.8).admitted);
    // Under kSemantic a 0.1 would be rejected (below the resident min);
    // a delegated LRU always admits, evicting its own victim.
    const auto r = imp.admit_scored(3, 0.1);
    EXPECT_TRUE(r.admitted);
    EXPECT_EQ(r.evicted, 1U);
    // The write-path score refresh is the access signal: touching 2 makes
    // 3 the LRU victim.
    EXPECT_TRUE(imp.update_score(2, 0.85));
    const auto r2 = imp.admit_scored(4, 0.2);
    EXPECT_TRUE(r2.admitted);
    EXPECT_EQ(r2.evicted, 3U);
    EXPECT_TRUE(imp.contains(2));
    EXPECT_EQ(imp.score_of(4), 0.2);
}

TEST(ImportanceCachePolicyMode, ShrinkFollowsDelegatedOrder) {
    ImportanceCache imp{3, PolicyKind::kFifo};
    imp.admit_scored(1, 0.5);
    imp.admit_scored(2, 0.1);  // lowest score, but NOT the FIFO victim
    imp.admit_scored(3, 0.9);
    imp.set_capacity(2);
    EXPECT_FALSE(imp.contains(1));  // oldest insert went first
    EXPECT_TRUE(imp.contains(2));
    EXPECT_TRUE(imp.contains(3));
    // kSemantic shrink contrast: ascending score.
    ImportanceCache sem{3};
    sem.admit_scored(1, 0.5);
    sem.admit_scored(2, 0.1);
    sem.admit_scored(3, 0.9);
    sem.set_capacity(2);
    EXPECT_FALSE(sem.contains(2));
}

TEST(HomophilyCachePolicyMode, TouchKeyRedirectsTheVictim) {
    const std::uint32_t n1[] = {10, 11};
    const std::uint32_t n2[] = {20, 21};
    const std::uint32_t n3[] = {30};
    HomophilyCache hom{2, PolicyKind::kLru};
    EXPECT_EQ(hom.policy(), PolicyKind::kLru);
    hom.update(1, n1);
    hom.update(2, n2);
    EXPECT_TRUE(hom.touch_key(1));  // 1 becomes most recent; victim -> 2
    EXPECT_EQ(hom.update(3, n3), 2U);
    EXPECT_TRUE(hom.contains_key(1));
    EXPECT_TRUE(hom.neighbors_of(2).empty());  // 2's list went with it
    // Insertion order is kept in every mode (snapshot/iteration order).
    std::vector<std::uint32_t> keys;
    hom.for_each_key([&](std::uint32_t k) { keys.push_back(k); });
    EXPECT_EQ(keys, (std::vector<std::uint32_t>{1, 3}));

    // The same sequence through the two-layer cache, where a re-offer of
    // a resident key is the touch: surrogates follow the redirected victim.
    TwoLayerSemanticCache cache{2, TwoLayerSemanticCache::kMinImpRatio,
                                /*shards=*/1, /*lockfree_reads=*/true,
                                {PolicyKind::kSemantic, PolicyKind::kLru}};
    cache.update_homophily(1, n1);
    cache.update_homophily(2, n2);
    EXPECT_EQ(cache.update_homophily(1, n1), std::nullopt);  // touch
    EXPECT_EQ(cache.update_homophily(3, n3), 2U);
    EXPECT_EQ(cache.lookup(11).kind, HitKind::kHomophily);
    EXPECT_EQ(cache.lookup(11).served_id, 1U);
    EXPECT_EQ(cache.lookup(21).kind, HitKind::kMiss);
}

TEST(HomophilyCachePolicyMode, DefaultFifoIgnoresTouches) {
    const std::uint32_t n1[] = {10};
    const std::uint32_t n2[] = {20};
    HomophilyCache hom{2};
    hom.update(1, n1);
    hom.update(2, n2);
    EXPECT_TRUE(hom.touch_key(1));   // residency-only answer under FIFO
    EXPECT_FALSE(hom.touch_key(9));  // absent key
    EXPECT_EQ(hom.update(3, n1), 1U);  // FIFO victim unchanged by the touch
}

// ------------------------------------------- live policy switch (tuner apply)

TEST(SectionPolicySwitch, PreservesResidencyScoresAndOrder) {
    TwoLayerSemanticCache cache{10, 0.6, /*shards=*/1,
                                /*lockfree_reads=*/false};
    for (std::uint32_t id = 0; id < 6; ++id) {
        cache.on_miss_fetched(id, 0.1 * (id + 1));
    }
    const std::uint32_t na[] = {100, 101};
    const std::uint32_t nb[] = {200};
    cache.update_homophily(50, na);
    cache.update_homophily(51, nb);
    const std::size_t imp_before = cache.importance_size();
    const std::size_t hom_before = cache.homophily_size();
    const TwoLayerSemanticCache::FrozenState before = cache.freeze();

    cache.set_section_policies({PolicyKind::kLru, PolicyKind::kLru});
    EXPECT_EQ(cache.section_policies().importance, PolicyKind::kLru);
    EXPECT_EQ(cache.importance_size(), imp_before);
    EXPECT_EQ(cache.homophily_size(), hom_before);
    for (std::uint32_t id = 0; id < 6; ++id) {
        EXPECT_EQ(cache.lookup(id).kind, HitKind::kImportance) << id;
    }
    EXPECT_EQ(cache.lookup(101).kind, HitKind::kHomophily);
    EXPECT_EQ(cache.lookup(101).served_id, 50U);
    EXPECT_EQ(cache.lookup(200).served_id, 51U);

    // Switching back restores the default pair; residency still intact,
    // including scores (the Case 2/4 gate works off the re-admitted min).
    cache.set_section_policies({});
    EXPECT_TRUE(cache.section_policies().is_default());
    const TwoLayerSemanticCache::FrozenState after = cache.freeze();
    ASSERT_EQ(after.shards.size(), before.shards.size());
    auto sorted = [](std::vector<std::pair<std::uint32_t, double>> v) {
        std::sort(v.begin(), v.end());
        return v;
    };
    EXPECT_EQ(sorted(after.shards[0].importance),
              sorted(before.shards[0].importance));
    EXPECT_EQ(after.shards[0].homophily_keys, before.shards[0].homophily_keys);
}

TEST(SectionPolicySwitch, ShardedCacheSwitchesEveryShard) {
    TwoLayerSemanticCache cache{64, 0.8, /*shards=*/4};
    for (std::uint32_t id = 0; id < 40; ++id) {
        cache.on_miss_fetched(id, 1.0 + id);
    }
    const std::size_t imp_before = cache.importance_size();
    cache.set_section_policies({PolicyKind::kGdsf, PolicyKind::kCost});
    EXPECT_EQ(cache.importance_size(), imp_before);
    for (std::uint32_t id = 0; id < 40; ++id) {
        EXPECT_EQ(cache.probe(id), true) << id;
    }
    // A no-op switch (same pair) is accepted and changes nothing.
    cache.set_section_policies({PolicyKind::kGdsf, PolicyKind::kCost});
    EXPECT_EQ(cache.importance_size(), imp_before);
    // Ineligible pairs are rejected without touching the cache.
    EXPECT_THROW(cache.set_section_policies(
                     {PolicyKind::kRandom, PolicyKind::kFifo}),
                 std::invalid_argument);
    EXPECT_EQ(cache.section_policies().importance, PolicyKind::kGdsf);
}

TEST(SectionPolicySwitch, LeavesTheViewUnchanged) {
    // Residency survives a switch, so the view is not written: every slot
    // reads as before, in the same table order.
    const auto dump = [](const TwoLayerSemanticCache& cache) {
        std::vector<std::vector<std::array<std::uint32_t, 3>>> slots;
        for (const auto& shard : cache.freeze().shards) {
            auto& out = slots.emplace_back();
            for (const auto& [id, probe] : shard.view) {
                const bool sur = probe.flags & ShardResidencyView::kSurrogate;
                out.push_back({id, probe.flags, sur ? probe.surrogate : 0U});
            }
        }
        return slots;
    };
    for (const std::size_t shards : {1U, 4U}) {
        TwoLayerSemanticCache cache{64, 0.6, shards};
        for (std::uint32_t id = 0; id < 60; ++id) {
            cache.on_miss_fetched(id, 0.5 + 0.01 * ((id * 37) % 50));
        }
        for (std::uint32_t key = 100; key < 130; ++key) {
            const std::uint32_t nb[] = {key + 100, key + 200, key % 7};
            cache.update_homophily(key, nb);
        }
        const auto before = dump(cache);
        cache.set_section_policies({PolicyKind::kLfu, PolicyKind::kLru});
        EXPECT_EQ(dump(cache), before) << shards << " shards";
        cache.set_section_policies({});
        EXPECT_EQ(dump(cache), before) << shards << " shards";
    }
}

TEST(SectionPolicySwitch, ConstructorValidatesPolicies) {
    EXPECT_THROW(TwoLayerSemanticCache(10, 0.5, 1, false,
                                       {PolicyKind::kStatic,
                                        PolicyKind::kFifo}),
                 std::invalid_argument);
    const TwoLayerSemanticCache cache{10, 0.5, 1, false,
                                      {PolicyKind::kLfu, PolicyKind::kGdsf}};
    EXPECT_EQ(cache.section_policies().homophily, PolicyKind::kGdsf);
}

}  // namespace
}  // namespace spider::cache

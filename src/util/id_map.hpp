#pragma once

// The one hash table for per-sample id tables (DESIGN.md §13.1): uint32_t
// id -> V, open addressing with a Fibonacci home bucket, linear probing
// and backward-shift deletion. The buckets are a power of two, at most
// half full, and grow with size() only, never with a capacity argument;
// clear() keeps them. Every uint32_t is a valid id. Iteration order is
// unspecified (callers that emit an order sort), and any insert or erase
// invalidates pointers into the map.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace spider::util {

template <typename V>
class IdMap {
public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] bool contains(std::uint32_t id) const {
        return slot(id) != kAbsent;
    }

    /// The value mapped to `id`, or nullptr.
    [[nodiscard]] const V* find(std::uint32_t id) const {
        const std::size_t b = slot(id);
        return b == kAbsent ? nullptr : &buckets_[b].value;
    }
    [[nodiscard]] V* find(std::uint32_t id) {
        return const_cast<V*>(std::as_const(*this).find(id));
    }

    /// Maps `id` to V(args...) unless it is present. Returns the mapped
    /// value and whether it was inserted.
    template <typename... Args>
    std::pair<V*, bool> try_emplace(std::uint32_t id, Args&&... args) {
        if ((size_ + 1) * 2 > buckets_.size()) grow();
        // One probe: `id` is absent iff its run reaches an empty bucket
        // first, and that bucket is where it goes.
        std::size_t b = home(id);
        for (; buckets_[b].used; b = (b + 1) & mask()) {
            if (buckets_[b].id == id) return {&buckets_[b].value, false};
        }
        buckets_[b] = Bucket{id, true, V(std::forward<Args>(args)...)};
        ++size_;
        return {&buckets_[b].value, true};
    }

    /// The value mapped to `id`, value-initialized first when absent.
    V& operator[](std::uint32_t id) { return *try_emplace(id).first; }

    bool erase(std::uint32_t id) { return take(id).has_value(); }

    /// Removes `id` and returns its value; nullopt when absent.
    std::optional<V> take(std::uint32_t id) {
        const std::size_t b = slot(id);
        if (b == kAbsent) return std::nullopt;
        std::optional<V> value{std::move(buckets_[b].value)};
        remove(b);
        return value;
    }

    /// Empties the map and keeps its buckets.
    void clear() {
        for (Bucket& bucket : buckets_) bucket = Bucket{};
        size_ = 0;
    }

    /// Calls fn(id, value) for every entry, in unspecified order.
    template <typename Fn>
    void for_each(Fn fn) const {
        for (const Bucket& bucket : buckets_) {
            if (bucket.used) fn(bucket.id, bucket.value);
        }
    }

private:
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    struct Bucket {
        std::uint32_t id = 0;
        bool used = false;
        V value{};
    };

    [[nodiscard]] std::size_t home(std::uint32_t id) const {
        return static_cast<std::size_t>(
            (std::uint64_t{id} * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    [[nodiscard]] std::size_t mask() const { return buckets_.size() - 1; }

    /// Bucket holding `id`, or kAbsent.
    [[nodiscard]] std::size_t slot(std::uint32_t id) const {
        if (buckets_.empty()) return kAbsent;
        for (std::size_t b = home(id);; b = (b + 1) & mask()) {
            if (!buckets_[b].used) return kAbsent;
            if (buckets_[b].id == id) return b;
        }
    }

    /// Backward shift: pull later entries of the probe run into the hole
    /// unless that would move one before its home bucket.
    void remove(std::size_t bucket) {
        std::size_t hole = bucket;
        for (std::size_t b = (hole + 1) & mask(); buckets_[b].used;
             b = (b + 1) & mask()) {
            if (((b - home(buckets_[b].id)) & mask()) >=
                ((b - hole) & mask())) {
                buckets_[hole] = std::move(buckets_[b]);
                hole = b;
            }
        }
        buckets_[hole] = Bucket{};
        --size_;
    }

    void grow() {
        std::vector<Bucket> old = std::move(buckets_);
        const std::size_t count = old.empty() ? 16 : old.size() * 2;
        buckets_ = std::vector<Bucket>(count);
        shift_ = 64 - std::countr_zero(count);
        for (Bucket& bucket : old) {
            if (!bucket.used) continue;
            std::size_t b = home(bucket.id);
            while (buckets_[b].used) b = (b + 1) & mask();
            buckets_[b] = std::move(bucket);
        }
    }

    std::vector<Bucket> buckets_;
    std::size_t size_ = 0;
    int shift_ = 64;  // home bucket = Fibonacci hash >> shift_
};

}  // namespace spider::util

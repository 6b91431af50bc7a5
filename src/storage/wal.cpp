#include "storage/wal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "cache/basic_policies.hpp"
#include "storage/wire_format.hpp"
#include "util/id_map.hpp"

namespace spider::storage {

namespace {

using wire::begin_frame;
using wire::checksum32;
using wire::end_frame;
using wire::get;
using wire::put;

/// A single record can describe one homophily entry; its neighbor list
/// is small (one per resident key). Anything bigger than this is a torn
/// or corrupt length prefix, not a real record.
constexpr std::uint32_t kMaxPayload = 1U << 20;

/// Appends one record to `out` as a frame, encoded in place.
void encode(std::string& out, cache::ResidencyOp op, std::uint32_t id,
            double score = 0.0, std::uint64_t generation = 0,
            std::span<const std::uint32_t> neighbors = {}) {
    const std::size_t frame = begin_frame(out);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(op));
    put<std::uint32_t>(out, id);
    put<double>(out, score);
    put<std::uint64_t>(out, generation);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(neighbors.size()));
    out.append(reinterpret_cast<const char*>(neighbors.data()),
               neighbors.size_bytes());
    end_frame(out, frame);
}

[[nodiscard]] bool deserialize(std::string_view payload,
                               cache::ResidencyRecord& out) {
    std::size_t off = 0;
    std::uint8_t op = 0;
    std::uint32_t count = 0;
    if (!get(payload, off, op) || !get(payload, off, out.id) ||
        !get(payload, off, out.score) || !get(payload, off, out.generation) ||
        !get(payload, off, count)) {
        return false;
    }
    if (op < static_cast<std::uint8_t>(cache::ResidencyOp::kAdmitImportance) ||
        op > static_cast<std::uint8_t>(cache::ResidencyOp::kSsdEvict)) {
        return false;
    }
    out.op = static_cast<cache::ResidencyOp>(op);
    if (off + static_cast<std::size_t>(count) * 4 != payload.size()) {
        return false;
    }
    out.neighbors.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        if (!get(payload, off, out.neighbors[i])) return false;
    }
    return true;
}

}  // namespace

CacheWal::CacheWal(WalConfig config, WriteFaults* faults)
    : config_{std::move(config)}, faults_{faults} {
    if (!config_.enabled) return;
    if (config_.dir.empty()) {
        throw std::invalid_argument(
            "wal: enabled but no directory configured (set wal.dir)");
    }
    std::filesystem::create_directories(config_.dir);
    log_ = File{wal_path(), File::Mode::kAppend, faults_};
}

CacheWal::~CacheWal() {
    // Clean close: persist the buffered tail. A simulated kill -9 calls
    // drop_unflushed() first, so the tail is already gone by the time the
    // destructor runs.
    try {
        flush();
    } catch (...) {
        // Destructor must not throw; a failed final flush just means the
        // tail is lost, which the load() path tolerates by design.
    }
}

std::string CacheWal::wal_path() const {
    return (std::filesystem::path{config_.dir} / "cache.wal").string();
}

std::string CacheWal::snapshot_path() const {
    return (std::filesystem::path{config_.dir} / "cache.snapshot").string();
}

void CacheWal::write_pending_locked() {
    log_.append(pending_);  // all or nothing: on a throw pending_ stays
    pending_.clear();
}

void CacheWal::append(const cache::ResidencyRecord& record) {
    if (!config_.enabled) return;
    const std::lock_guard lock{mu_};
    encode(pending_, record.op, record.id, record.score, record.generation,
           record.neighbors);
    ++appended_;
    if (config_.sync_every_append) write_pending_locked();
}

void CacheWal::flush() {
    if (!config_.enabled) return;
    const std::lock_guard lock{mu_};
    write_pending_locked();
}

void CacheWal::drop_unflushed() {
    if (!config_.enabled) return;
    const std::lock_guard lock{mu_};
    pending_.clear();
}

void CacheWal::compact(const cache::RestoreImage& image) {
    if (!config_.enabled) return;
    const std::lock_guard lock{mu_};
    std::string bytes;
    for (const auto& [id, score] : image.importance) {
        encode(bytes, cache::ResidencyOp::kAdmitImportance, id, score);
    }
    for (const auto& [key, neighbors] : image.homophily) {
        encode(bytes, cache::ResidencyOp::kAdmitHomophily, key, 0.0, 0,
               neighbors);
    }
    for (std::uint32_t id : image.ssd) {
        encode(bytes, cache::ResidencyOp::kSsdInsert, id);
    }
    // Tmp + rename so a crash mid-compaction keeps the old snapshot.
    const std::string tmp = snapshot_path() + ".tmp";
    File{tmp, File::Mode::kReplace, faults_}.append(bytes);
    std::filesystem::rename(tmp, snapshot_path());
    // Everything folded into the snapshot: the log starts over.
    log_.truncate(0);
    pending_.clear();
}

std::uint64_t CacheWal::parse_records(const std::string& bytes,
                                      std::vector<cache::ResidencyRecord>& out) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        std::size_t cursor = off;
        std::uint32_t len = 0;
        std::uint32_t sum = 0;
        if (!get(bytes, cursor, len) || !get(bytes, cursor, sum) ||
            len > kMaxPayload || cursor + len > bytes.size()) {
            return 1;  // torn tail: header or payload incomplete
        }
        if (checksum32(bytes.data() + cursor, len) != sum) {
            return 1;  // corrupt record ends replay
        }
        cache::ResidencyRecord record;
        if (!deserialize(std::string_view{bytes}.substr(cursor, len),
                         record)) {
            return 1;
        }
        out.push_back(std::move(record));
        off = cursor + len;
    }
    return 0;
}

cache::RestoreImage CacheWal::fold(
    cache::RestoreImage base,
    const std::vector<cache::ResidencyRecord>& records) {
    // Importance: last writer wins (restore re-sorts by score). Homophily
    // and SSD keep their FIFO and LRU horizons in the policies that keep
    // them live, unbounded.
    constexpr std::size_t kUnbounded =
        std::numeric_limits<std::size_t>::max() / 2;
    util::IdMap<double> importance;
    for (const auto& [id, score] : base.importance) importance[id] = score;
    cache::FifoCache hom_order{kUnbounded};
    util::IdMap<std::vector<std::uint32_t>> hom_neighbors;
    const auto admit_homophily = [&](std::uint32_t key,
                                     std::vector<std::uint32_t> neighbors) {
        hom_order.erase(key);  // a re-admitted key is the newest again
        hom_order.admit(key);
        hom_neighbors[key] = std::move(neighbors);
    };
    for (auto& [key, neighbors] : base.homophily) {
        admit_homophily(key, std::move(neighbors));
    }
    cache::LruCache ssd{kUnbounded};
    const auto insert_ssd = [&ssd](std::uint32_t id) {
        if (!ssd.touch(id)) ssd.admit(id);  // a re-insert is an LRU touch
    };
    for (std::uint32_t id : base.ssd) insert_ssd(id);

    for (const auto& record : records) {
        switch (record.op) {
            case cache::ResidencyOp::kAdmitImportance:
            case cache::ResidencyOp::kScoreUpdate:
                importance[record.id] = record.score;
                break;
            case cache::ResidencyOp::kEvictImportance:
                importance.erase(record.id);
                break;
            case cache::ResidencyOp::kAdmitHomophily:
                admit_homophily(record.id, record.neighbors);
                break;
            case cache::ResidencyOp::kEvictHomophily:
                hom_order.erase(record.id);
                hom_neighbors.erase(record.id);
                break;
            case cache::ResidencyOp::kSsdInsert:
                insert_ssd(record.id);
                break;
            case cache::ResidencyOp::kSsdEvict:
                ssd.erase(record.id);
                break;
        }
    }

    cache::RestoreImage out;
    importance.for_each([&out](std::uint32_t id, double score) {
        out.importance.emplace_back(id, score);
    });
    // Deterministic output independent of hash iteration order.
    std::sort(out.importance.begin(), out.importance.end());
    out.homophily.reserve(hom_order.size());
    hom_order.for_each_victim_first([&](std::uint32_t key) {
        out.homophily.emplace_back(key, std::move(*hom_neighbors.find(key)));
    });
    ssd.for_each_victim_first(
        [&out](std::uint32_t id) { out.ssd.push_back(id); });
    return out;
}

cache::RestoreImage CacheWal::load() {
    if (!config_.enabled) return {};
    const std::lock_guard lock{mu_};
    dropped_ = 0;
    std::string snapshot;
    std::error_code ec;
    if (std::filesystem::exists(snapshot_path(), ec)) {
        snapshot = File{snapshot_path(), File::Mode::kRead}.read_all();
    }
    std::vector<cache::ResidencyRecord> snapshot_records;
    dropped_ += parse_records(snapshot, snapshot_records);
    cache::RestoreImage image = fold({}, snapshot_records);
    std::vector<cache::ResidencyRecord> log_records;
    dropped_ += parse_records(log_.read_all(), log_records);
    return fold(std::move(image), log_records);
}

std::uint64_t CacheWal::appended_records() const {
    const std::lock_guard lock{mu_};
    return appended_;
}

std::uint64_t CacheWal::dropped_records() const {
    const std::lock_guard lock{mu_};
    return dropped_;
}

}  // namespace spider::storage

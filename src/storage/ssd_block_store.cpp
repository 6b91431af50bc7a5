#include "storage/ssd_block_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "storage/wire_format.hpp"

namespace spider::storage {

namespace fs = std::filesystem;

namespace {

using wire::begin_frame;
using wire::checksum32;
using wire::end_frame;
using wire::get;
using wire::mix64;
using wire::put;

constexpr std::uint32_t kSegmentMagic = 0x53504253;  // "SPBS"
constexpr std::uint32_t kSealMagic = 0x5EA1D00D;
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderLen = 16;   // magic | version | seq
constexpr std::size_t kTrailerLen = 12;  // index_len | index_crc | seal magic
constexpr std::size_t kIndexEntryLen = 16;  // id | offset | frame_len
/// A sealed segment keeps the id of every kFenceStride-th index entry in
/// RAM, so a lookup reads one slice of at most this many entries.
constexpr std::size_t kFenceStride = 32;
/// Sample payloads are feature vectors (KBs); anything bigger than this in
/// a length prefix is a torn or corrupt frame, not a real record.
constexpr std::uint32_t kMaxRecordPayload = 1U << 24;

/// Frame -> (id, bytes); nullopt on truncation / CRC mismatch.
[[nodiscard]] std::optional<std::pair<std::uint32_t,
                                      std::vector<std::uint8_t>>>
unframe_record(std::string_view frame) {
    std::size_t off = 0;
    std::uint32_t len = 0;
    std::uint32_t sum = 0;
    if (!get(frame, off, len) || len > kMaxRecordPayload || len < 4 ||
        !get(frame, off, sum) || off + len > frame.size()) {
        return std::nullopt;
    }
    if (checksum32(frame.data() + off, len) != sum) return std::nullopt;
    std::uint32_t id = 0;
    std::size_t body_off = off;
    if (!get(frame, body_off, id)) return std::nullopt;
    // An empty payload has no buffer: memcpy must not see its null data().
    const auto* body =
        reinterpret_cast<const std::uint8_t*>(frame.data() + body_off);
    return std::make_pair(id, std::vector<std::uint8_t>(body, body + len - 4));
}

/// Provisional sizing for the active segment's bloom; the seal rebuilds
/// it with the exact key count, so this only affects FPR mid-segment.
[[nodiscard]] std::size_t expected_keys(std::size_t segment_bytes) {
    return std::max<std::size_t>(segment_bytes / 64, 1024);
}

}  // namespace

// ---- BloomFilter -----------------------------------------------------

BloomFilter::BloomFilter(std::size_t keys, std::size_t bits_per_key) {
    if (bits_per_key == 0) {
        disabled_ = true;
        return;
    }
    if (keys == 0) return;  // empty filter: rejects everything
    nbits_ = std::max<std::size_t>(keys * bits_per_key, 64);
    bits_.assign((nbits_ + 63) / 64, 0);
    const double ln2 = 0.6931471805599453;
    k_ = std::clamp(
        static_cast<int>(static_cast<double>(bits_per_key) * ln2 + 0.5), 1,
        30);
}

void BloomFilter::add(std::uint32_t id) {
    if (disabled_ || nbits_ == 0) return;
    std::uint64_t h = mix64(id);
    const std::uint64_t delta = (h >> 17) | (h << 47);
    for (int i = 0; i < k_; ++i) {
        const std::size_t bit = static_cast<std::size_t>(h % nbits_);
        bits_[bit >> 6] |= 1ULL << (bit & 63);
        h += delta;
    }
}

bool BloomFilter::maybe_contains(std::uint32_t id) const {
    if (disabled_) return true;
    if (nbits_ == 0) return false;
    std::uint64_t h = mix64(id);
    const std::uint64_t delta = (h >> 17) | (h << 47);
    for (int i = 0; i < k_; ++i) {
        const std::size_t bit = static_cast<std::size_t>(h % nbits_);
        if ((bits_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
        h += delta;
    }
    return true;
}

double BloomFilter::theoretical_fpr(std::size_t bits_per_key) {
    if (bits_per_key == 0) return 1.0;
    const double ln2 = 0.6931471805599453;
    const double k = std::clamp(
        std::round(static_cast<double>(bits_per_key) * ln2), 1.0, 30.0);
    return std::pow(1.0 - std::exp(-k / static_cast<double>(bits_per_key)),
                    k);
}

// ---- SsdBlockStore ---------------------------------------------------

SsdBlockStore::SsdBlockStore(SsdBlockStoreConfig config,
                             WriteFaults* faults)
    : config_{std::move(config)}, faults_{faults} {
    if (config_.dir.empty()) {
        throw std::invalid_argument(
            "ssd_block_store: no directory configured");
    }
    if (config_.segment_bytes < 4096) config_.segment_bytes = 4096;
    open_dir();
}

SsdBlockStore::~SsdBlockStore() {
    // Clean close persists the buffered tail; a simulated kill -9 calls
    // drop_unflushed() first, so the tail is already gone by then.
    try {
        flush();
    } catch (...) {
        // The recovery scan tolerates the lost tail by design.
    }
}

std::string SsdBlockStore::segment_path(std::uint64_t seq) const {
    char name[32];
    std::snprintf(name, sizeof(name), "seg-%012llu.spb",
                  static_cast<unsigned long long>(seq));
    return (fs::path{config_.dir} / name).string();
}

SsdBlockStore::Segment& SsdBlockStore::active_locked() {
    return segments_.rbegin()->second;
}

void SsdBlockStore::append_locked(Segment& seg, std::string_view bytes) {
    // A segment started in this process creates its file on first write.
    if (!seg.file.is_open()) {
        seg.file = File{seg.path, File::Mode::kReplace, faults_};
    }
    seg.file.append(bytes);
    seg.file_bytes += bytes.size();
}

void SsdBlockStore::write_pending_locked(Segment& seg) {
    if (seg.pending.empty()) return;
    append_locked(seg, seg.pending);
    seg.pending.clear();
}

std::optional<std::string> SsdBlockStore::pread_locked(
    const Segment& seg, std::uint64_t offset, std::size_t len) {
    ++stats_.disk_reads;
    std::string bytes(len, '\0');
    const std::size_t got = seg.file.pread(offset, bytes);
    stats_.bytes_read += got;
    if (got != len) return std::nullopt;
    return bytes;
}

void SsdBlockStore::start_segment(std::uint64_t seq, std::string pending,
                                  RecordIndex index) {
    Segment seg;
    seg.seq = seq;
    seg.path = segment_path(seq);
    seg.bloom = BloomFilter{expected_keys(config_.segment_bytes),
                            config_.bloom_bits_per_key};
    pending.clear();
    put<std::uint32_t>(pending, kSegmentMagic);
    put<std::uint32_t>(pending, kVersion);
    put<std::uint64_t>(pending, seq);
    seg.pending = std::move(pending);
    index.clear();  // a recycled index keeps its buckets
    seg.index = std::move(index);
    seg.total_bytes = kHeaderLen;
    total_bytes_ += kHeaderLen;
    segments_.emplace(seq, std::move(seg));
}

void SsdBlockStore::recover_unsealed(Segment& seg) {
    const std::string bytes = seg.file.read_all();
    std::uint64_t valid = kHeaderLen;
    std::size_t off = kHeaderLen;
    bool torn = false;
    while (off < bytes.size()) {
        std::size_t cursor = off;
        std::uint32_t len = 0;
        std::uint32_t sum = 0;
        if (!get(bytes, cursor, len) || !get(bytes, cursor, sum) ||
            len > kMaxRecordPayload || len < 4 ||
            cursor + len > bytes.size()) {
            torn = true;
            break;
        }
        if (checksum32(bytes.data() + cursor, len) != sum) {
            torn = true;
            break;
        }
        std::uint32_t id = 0;
        std::memcpy(&id, bytes.data() + cursor, 4);
        seg.index[id] = RecordRef{
            static_cast<std::uint64_t>(off),
            static_cast<std::uint32_t>(8 + len)};
        seg.bloom.add(id);
        off = cursor + len;
        valid = off;
    }
    if (torn) {
        ++stats_.dropped_tail_records;
        seg.file.truncate(valid);
    }
    seg.file_bytes = valid;
    seg.total_bytes = valid;
    stats_.recovered_records += seg.index.size();
}

void SsdBlockStore::open_dir() {
    fs::create_directories(config_.dir);
    segments_.clear();
    owner_.clear();
    total_bytes_ = 0;
    sealed_bytes_ = 0;

    std::vector<std::uint64_t> seqs;
    for (const auto& entry : fs::directory_iterator{config_.dir}) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("seg-", 0) != 0 || entry.path().extension() != ".spb") {
            continue;
        }
        try {
            seqs.push_back(std::stoull(name.substr(4)));
        } catch (...) {
            continue;  // foreign file; leave it alone
        }
    }
    std::sort(seqs.begin(), seqs.end());

    // Transient per-segment id lists for the owner map (newest seq wins).
    std::vector<std::pair<std::uint64_t, std::vector<std::uint32_t>>> id_sets;

    for (std::uint64_t seq : seqs) {
        const std::string path = segment_path(seq);
        File file{path, File::Mode::kAppend, faults_};
        const std::uint64_t size = file.size();
        const auto header = file.read(0, kHeaderLen);
        if (!header) continue;
        std::size_t hoff = 0;
        std::uint32_t magic = 0;
        std::uint32_t version = 0;
        std::uint64_t file_seq = 0;
        if (!get(*header, hoff, magic) || !get(*header, hoff, version) ||
            !get(*header, hoff, file_seq) || magic != kSegmentMagic ||
            version != kVersion || file_seq != seq) {
            ++stats_.dropped_tail_records;
            fs::remove(path);  // not one of ours / hopelessly corrupt
            continue;
        }

        Segment seg;
        seg.seq = seq;
        seg.path = path;
        seg.file = std::move(file);

        // Sealed if the trailer parses and the index block checks out.
        bool sealed = false;
        if (size >= kHeaderLen + kTrailerLen) {
            const auto trailer = seg.file.read(size - kTrailerLen,
                                               kTrailerLen);
            std::size_t toff = 0;
            std::uint32_t index_len = 0;
            std::uint32_t index_crc = 0;
            std::uint32_t seal = 0;
            if (trailer && get(*trailer, toff, index_len) &&
                get(*trailer, toff, index_crc) && get(*trailer, toff, seal) &&
                seal == kSealMagic &&
                kHeaderLen + index_len + kTrailerLen <= size) {
                const std::uint64_t index_off = size - kTrailerLen - index_len;
                const auto index = seg.file.read(index_off, index_len);
                if (index &&
                    checksum32(index->data(), index->size()) == index_crc) {
                    std::size_t ioff = 0;
                    std::uint32_t count = 0;
                    if (get(*index, ioff, count) &&
                        4 + static_cast<std::size_t>(count) * kIndexEntryLen ==
                            index_len) {
                        std::vector<std::uint32_t> ids;
                        ids.reserve(count);
                        std::vector<std::uint32_t> fences;
                        fences.reserve(count / kFenceStride + 1);
                        BloomFilter bloom{count, config_.bloom_bits_per_key};
                        bool ok = true;
                        for (std::uint32_t i = 0; ok && i < count; ++i) {
                            std::uint32_t id = 0;
                            std::uint64_t rec_off = 0;
                            std::uint32_t frame_len = 0;
                            ok = get(*index, ioff, id) &&
                                 get(*index, ioff, rec_off) &&
                                 get(*index, ioff, frame_len);
                            if (ok) {
                                ids.push_back(id);
                                if (i % kFenceStride == 0) {
                                    fences.push_back(id);
                                }
                                bloom.add(id);
                            }
                        }
                        if (ok) {
                            sealed = true;
                            seg.sealed = true;
                            seg.file_bytes = size;
                            seg.total_bytes = size;
                            seg.index_offset = index_off;
                            seg.index_count = count;
                            seg.fences = std::move(fences);
                            seg.bloom = std::move(bloom);
                            stats_.recovered_records += ids.size();
                            id_sets.emplace_back(seq, std::move(ids));
                        }
                    }
                }
            }
        }
        if (!sealed) {
            seg.bloom = BloomFilter{expected_keys(config_.segment_bytes),
                                    config_.bloom_bits_per_key};
            recover_unsealed(seg);
            std::vector<std::uint32_t> ids;
            ids.reserve(seg.index.size());
            seg.index.for_each(
                [&ids](std::uint32_t id, RecordRef) { ids.push_back(id); });
            std::sort(ids.begin(), ids.end());
            id_sets.emplace_back(seq, std::move(ids));
        }
        total_bytes_ += seg.total_bytes;
        if (seg.sealed) sealed_bytes_ += seg.total_bytes;
        segments_.emplace(seq, std::move(seg));
    }

    // Owner map: ascending seq, so the newest version of each id wins.
    for (auto& [seq, ids] : id_sets) {
        for (std::uint32_t id : ids) account_owner(id, seq);
    }

    // Any unsealed segment except the newest is a past active segment cut
    // short by a crash — seal it now so its index/bloom live on disk and
    // GC can reclaim it.
    std::vector<std::uint64_t> to_seal;
    for (auto& [seq, seg] : segments_) {
        if (!seg.sealed && seq != segments_.rbegin()->first) {
            to_seal.push_back(seq);
        }
    }
    for (std::uint64_t seq : to_seal) seal_locked(segments_.at(seq));

    // Fully-stale sealed segments left over from before the crash.
    std::vector<std::uint64_t> sealed_seqs;
    for (const auto& [seq, seg] : segments_) {
        if (seg.sealed) sealed_seqs.push_back(seq);
    }
    for (std::uint64_t seq : sealed_seqs) maybe_collect(seq);

    if (segments_.empty() || segments_.rbegin()->second.sealed) {
        const std::uint64_t next =
            segments_.empty() ? 1 : segments_.rbegin()->first + 1;
        start_segment(next);
    }
}

void SsdBlockStore::account_owner(std::uint32_t id, std::uint64_t new_seq) {
    auto [seq, inserted] = owner_.try_emplace(id, new_seq);
    if (inserted) {
        ++segments_.at(new_seq).live;
        return;
    }
    if (*seq == new_seq) return;
    const std::uint64_t prev = *seq;
    *seq = new_seq;
    ++segments_.at(new_seq).live;
    auto pit = segments_.find(prev);
    if (pit != segments_.end() && pit->second.live > 0) {
        --pit->second.live;
        maybe_collect(prev);
    }
}

void SsdBlockStore::maybe_collect(std::uint64_t seq) {
    auto it = segments_.find(seq);
    if (it == segments_.end()) return;
    Segment& seg = it->second;
    if (!seg.sealed || seg.live != 0) return;
    std::error_code ec;
    fs::remove(seg.path, ec);  // best effort; accounting proceeds anyway
    total_bytes_ -= std::min<std::size_t>(total_bytes_, seg.total_bytes);
    sealed_bytes_ -= std::min<std::size_t>(sealed_bytes_, seg.total_bytes);
    ++stats_.segments_collected;
    segments_.erase(it);
}

void SsdBlockStore::seal_locked(Segment& seg) {
    if (seg.sealed) return;
    // Persist the record region first so index offsets are durable.
    write_pending_locked(seg);

    std::vector<std::pair<std::uint32_t, RecordRef>> entries;
    seg.index.for_each([&entries](std::uint32_t id, RecordRef ref) {
        entries.emplace_back(id, ref);
    });
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    std::string index_payload;
    index_payload.reserve(4 + entries.size() * kIndexEntryLen);
    put<std::uint32_t>(index_payload,
                       static_cast<std::uint32_t>(entries.size()));
    BloomFilter bloom{entries.size(), config_.bloom_bits_per_key};
    std::vector<std::uint32_t> fences;
    fences.reserve(entries.size() / kFenceStride + 1);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& [id, ref] = entries[i];
        put<std::uint32_t>(index_payload, id);
        put<std::uint64_t>(index_payload, ref.offset);
        put<std::uint32_t>(index_payload, ref.frame_len);
        if (i % kFenceStride == 0) fences.push_back(id);
        bloom.add(id);
    }

    std::string block = index_payload;
    put<std::uint32_t>(block,
                       static_cast<std::uint32_t>(index_payload.size()));
    put<std::uint32_t>(block,
                       checksum32(index_payload.data(), index_payload.size()));
    put<std::uint32_t>(block, kSealMagic);
    seg.index_offset = seg.file_bytes;
    append_locked(seg, block);

    seg.index_count = static_cast<std::uint32_t>(entries.size());
    seg.fences = std::move(fences);
    seg.total_bytes += block.size();
    total_bytes_ += block.size();
    sealed_bytes_ += seg.total_bytes;
    seg.sealed = true;
    seg.bloom = std::move(bloom);  // exact key count replaces provisional
    seg.index.clear();
    ++stats_.segments_sealed;
}

void SsdBlockStore::rotate_locked() {
    Segment& act = active_locked();
    const std::uint64_t seq = act.seq;
    seal_locked(act);
    // The sealed segment needs neither its (now empty) write buffer nor
    // its cleared index; the next active segment reuses their storage.
    std::string pending = std::move(act.pending);
    RecordIndex index = std::move(act.index);
    maybe_collect(seq);
    start_segment(seq + 1, std::move(pending), std::move(index));
}

void SsdBlockStore::write(std::uint32_t id,
                          std::span<const std::uint8_t> payload) {
    const std::size_t frame_len = 12 + payload.size();  // len|crc|id|bytes
    Segment* act = &active_locked();
    if (!act->index.empty() &&
        act->total_bytes + frame_len > config_.segment_bytes) {
        rotate_locked();
        act = &active_locked();
    }
    const RecordRef ref{act->file_bytes + act->pending.size(),
                        static_cast<std::uint32_t>(frame_len)};
    // Framed in place: [u32 len][u32 crc][u32 id | payload].
    const std::size_t frame = begin_frame(act->pending);
    put<std::uint32_t>(act->pending, id);
    act->pending.append(reinterpret_cast<const char*>(payload.data()),
                        payload.size());
    end_frame(act->pending, frame);
    act->total_bytes += frame_len;
    total_bytes_ += frame_len;
    act->index[id] = ref;
    act->bloom.add(id);
    account_owner(id, act->seq);
    ++stats_.writes;
}

std::optional<std::vector<std::uint8_t>> SsdBlockStore::read_from(
    Segment& seg, std::uint32_t id) {
    RecordRef ref;
    if (!seg.sealed) {
        const RecordRef* found = seg.index.find(id);
        if (found == nullptr) {
            ++stats_.bloom_false_positives;
            return std::nullopt;
        }
        ref = *found;
        if (ref.offset >= seg.file_bytes) {
            // Still in the buffered tail — memory, not disk.
            auto rec = unframe_record(std::string_view{seg.pending}.substr(
                static_cast<std::size_t>(ref.offset - seg.file_bytes),
                ref.frame_len));
            if (!rec || rec->first != id) return std::nullopt;
            return std::move(rec->second);
        }
    } else {
        // The fences name the one index slice that can hold `id`; an id
        // below the first fence is ruled out without I/O.
        const auto fence =
            std::upper_bound(seg.fences.begin(), seg.fences.end(), id);
        if (fence == seg.fences.begin()) return std::nullopt;
        const std::size_t first =
            static_cast<std::size_t>(fence - seg.fences.begin() - 1) *
            kFenceStride;
        const std::size_t count =
            std::min<std::size_t>(kFenceStride, seg.index_count - first);
        const auto slice = pread_locked(
            seg, seg.index_offset + 4 + first * kIndexEntryLen,
            count * kIndexEntryLen);
        if (!slice) return std::nullopt;
        std::size_t lo = 0;
        std::size_t hi = count;
        bool found = false;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            std::size_t eoff = mid * kIndexEntryLen;
            std::uint32_t eid = 0;
            if (!get(*slice, eoff, eid)) return std::nullopt;
            if (eid == id) {
                if (!get(*slice, eoff, ref.offset) ||
                    !get(*slice, eoff, ref.frame_len)) {
                    return std::nullopt;
                }
                found = true;
                break;
            }
            if (eid < id) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if (!found) {
            ++stats_.bloom_false_positives;
            return std::nullopt;
        }
    }
    const auto frame = pread_locked(seg, ref.offset, ref.frame_len);
    if (!frame) return std::nullopt;
    auto rec = unframe_record(*frame);
    if (!rec || rec->first != id) return std::nullopt;
    return std::move(rec->second);
}

std::optional<std::vector<std::uint8_t>> SsdBlockStore::read(
    std::uint32_t id) {
    ++stats_.reads;
    for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
        Segment& seg = it->second;
        if (!seg.bloom.maybe_contains(id)) {
            ++stats_.bloom_skips;
            continue;
        }
        if (auto bytes = read_from(seg, id)) {
            ++stats_.read_hits;
            return bytes;
        }
    }
    return std::nullopt;
}

void SsdBlockStore::erase(std::uint32_t id) {
    const auto owner = owner_.take(id);
    if (!owner) return;
    const std::uint64_t seq = *owner;
    auto sit = segments_.find(seq);
    if (sit != segments_.end() && sit->second.live > 0) {
        --sit->second.live;
        maybe_collect(seq);
    }
}

bool SsdBlockStore::contains(std::uint32_t id) const {
    return owner_.contains(id);
}

void SsdBlockStore::flush() {
    for (auto& [seq, seg] : segments_) write_pending_locked(seg);
}

void SsdBlockStore::drop_unflushed() {
    // Everything buffered is gone; rebuild all in-memory state from what
    // disk actually holds — byte-for-byte the construction-time recovery.
    open_dir();
}

void SsdBlockStore::seal_active() {
    if (active_locked().index.empty()) return;  // nothing to seal
    rotate_locked();
}

void SsdBlockStore::clear() {
    for (const auto& [seq, seg] : segments_) {
        std::error_code ec;
        fs::remove(seg.path, ec);
    }
    segments_.clear();
    owner_.clear();
    total_bytes_ = 0;
    sealed_bytes_ = 0;
    start_segment(1);
}

std::vector<std::uint32_t> SsdBlockStore::live_ids() const {
    std::vector<std::uint32_t> ids;
    ids.reserve(owner_.size());
    owner_.for_each(
        [&ids](std::uint32_t id, std::uint64_t) { ids.push_back(id); });
    std::sort(ids.begin(), ids.end());
    return ids;
}

}  // namespace spider::storage

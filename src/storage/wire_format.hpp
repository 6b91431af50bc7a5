#pragma once

// Shared on-disk framing helpers for the persistence layer.
//
// Both the residency WAL (wal.cpp) and the SSD block store
// (ssd_block_store.cpp) frame every record as
//
//     [u32 payload_len][u32 checksum32(payload)][payload]
//
// with the same SplitMix64-derived checksum, so a torn or corrupt tail is
// detected identically in both files and the recovery scans share one
// discipline: a bad frame ends replay, everything before it is intact.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace spider::storage::wire {

/// SplitMix64 finalizer (same mix as the fault model's draw stream).
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

[[nodiscard]] inline std::uint32_t checksum32(const char* data,
                                              std::size_t len) {
    std::uint64_t h = 0x5CA1AB1EULL ^ len;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t chunk = 0;
        std::memcpy(&chunk, data + i, 8);
        h = mix64(h ^ chunk);
    }
    std::uint64_t tail = 0;
    if (i < len) {
        std::memcpy(&tail, data + i, len - i);
        h = mix64(h ^ tail);
    }
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

template <typename T>
void put(std::string& out, T value) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    out.append(bytes, sizeof(T));
}

/// Starts a frame at the end of `out` and returns where it starts: the
/// caller appends the payload straight into `out`, then calls end_frame.
[[nodiscard]] inline std::size_t begin_frame(std::string& out) {
    const std::size_t start = out.size();
    out.append(8, '\0');  // [len][checksum], filled in by end_frame
    return start;
}

/// Writes the header of the frame begun at `start` over everything
/// appended to `out` since.
inline void end_frame(std::string& out, std::size_t start) {
    const auto len = static_cast<std::uint32_t>(out.size() - start - 8);
    const std::uint32_t sum = checksum32(out.data() + start + 8, len);
    std::memcpy(out.data() + start, &len, sizeof len);
    std::memcpy(out.data() + start + 4, &sum, sizeof sum);
}

template <typename T>
[[nodiscard]] bool get(std::string_view in, std::size_t& off, T& value) {
    if (off + sizeof(T) > in.size()) return false;
    std::memcpy(&value, in.data() + off, sizeof(T));
    off += sizeof(T);
    return true;
}

}  // namespace spider::storage::wire

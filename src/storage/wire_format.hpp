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

template <typename T>
[[nodiscard]] bool get(const std::string& in, std::size_t& off, T& value) {
    if (off + sizeof(T) > in.size()) return false;
    std::memcpy(&value, in.data() + off, sizeof(T));
    off += sizeof(T);
    return true;
}

}  // namespace spider::storage::wire

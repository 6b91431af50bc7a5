#pragma once

// The one disk handle of the persistence layer (DESIGN.md §14). The SSD
// block store's segment files and the residency WAL's log and snapshot
// all go through it.
//
// A File owns one fd for its whole life. Reads are pread at explicit
// offsets, so they never move a shared cursor. Writes go to the end the
// File remembers: a File is the only writer of its file.
//
// append() is all-or-nothing. When part of the buffer fails to reach the
// file, the file is truncated back to its previous length and the call
// throws, so a caller keeps its own offsets unchanged and may retry. A
// torn frame never stays behind to end a later recovery scan early.
//
// Durability: an append reaches the OS page cache. It survives kill -9
// of the process but not power loss; nothing here calls fsync.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace spider::storage {

/// Write faults for tests. The `nth` append (1-based), counted across
/// every File that shares this object, fails as `kind` says:
///   kShortWrite  the first half of the buffer is stored, then the
///                device takes no more bytes;
///   kNoSpace     the first half is stored, then ENOSPC;
///   kIo          nothing is stored, EIO.
/// Every other append succeeds, so a retry after the fault goes through.
struct WriteFaults {
    enum class Kind { kShortWrite, kNoSpace, kIo };
    Kind kind = Kind::kIo;
    std::uint64_t nth = 0;      ///< 0 = never fail
    std::uint64_t appends = 0;  ///< appends attempted so far
};

[[nodiscard]] inline const char* to_string(WriteFaults::Kind kind) {
    switch (kind) {
        case WriteFaults::Kind::kShortWrite:
            return "ShortWrite";
        case WriteFaults::Kind::kNoSpace:
            return "NoSpace";
        case WriteFaults::Kind::kIo:
            return "Io";
    }
    return "Unknown";
}

class File {
public:
    enum class Mode {
        kRead,     ///< existing file, read only
        kAppend,   ///< read/write; created if absent, content kept
        kReplace,  ///< read/write; created if absent, truncated to 0
    };

    File() = default;
    /// Throws std::system_error when the file cannot be opened.
    /// `faults` (tests only) must outlive the File.
    File(std::string path, Mode mode, WriteFaults* faults = nullptr);
    ~File();

    File(File&& other) noexcept;
    File& operator=(File&& other) noexcept;
    File(const File&) = delete;
    File& operator=(const File&) = delete;

    [[nodiscard]] bool is_open() const { return fd_ >= 0; }
    /// Length of the file: its size at open plus every append since.
    [[nodiscard]] std::uint64_t size() const { return size_; }

    /// Reads up to `out.size()` bytes at `offset`; returns how many were
    /// read. Fewer only at end of file or on an I/O error.
    [[nodiscard]] std::size_t pread(std::uint64_t offset,
                                    std::span<char> out) const;
    /// Exactly `len` bytes at `offset`, or nullopt.
    [[nodiscard]] std::optional<std::string> read(std::uint64_t offset,
                                                  std::size_t len) const;
    /// The whole file (recovery scans, WAL replay).
    [[nodiscard]] std::string read_all() const;

    /// Appends every byte of `bytes` or none: on failure the file is cut
    /// back to its previous length and std::runtime_error is thrown.
    void append(std::string_view bytes);
    /// Sets the file's length (drops a torn tail, empties the log).
    void truncate(std::uint64_t len);

private:
    void close();

    std::string path_;
    int fd_ = -1;
    std::uint64_t size_ = 0;
    WriteFaults* faults_ = nullptr;
};

}  // namespace spider::storage

#include "storage/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace spider::storage {

File::File(std::string path, Mode mode, WriteFaults* faults)
    : path_{std::move(path)}, faults_{faults} {
    int flags = O_CLOEXEC;
    switch (mode) {
        case Mode::kRead:
            flags |= O_RDONLY;
            break;
        case Mode::kAppend:
            flags |= O_RDWR | O_CREAT;
            break;
        case Mode::kReplace:
            flags |= O_RDWR | O_CREAT | O_TRUNC;
            break;
    }
    fd_ = ::open(path_.c_str(), flags, 0644);
    if (fd_ < 0) {
        throw std::system_error(errno, std::generic_category(),
                                "storage: cannot open " + path_);
    }
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
        const int err = errno;
        close();
        throw std::system_error(err, std::generic_category(),
                                "storage: cannot stat " + path_);
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
}

File::~File() { close(); }

File::File(File&& other) noexcept
    : path_{std::move(other.path_)},
      fd_{std::exchange(other.fd_, -1)},
      size_{std::exchange(other.size_, 0)},
      faults_{std::exchange(other.faults_, nullptr)} {}

File& File::operator=(File&& other) noexcept {
    if (this != &other) {
        close();
        path_ = std::move(other.path_);
        fd_ = std::exchange(other.fd_, -1);
        size_ = std::exchange(other.size_, 0);
        faults_ = std::exchange(other.faults_, nullptr);
    }
    return *this;
}

void File::close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
}

std::size_t File::pread(std::uint64_t offset, std::span<char> out) const {
    std::size_t done = 0;
    while (done < out.size()) {
        const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                                  static_cast<off_t>(offset + done));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;  // end of file or I/O error
        done += static_cast<std::size_t>(n);
    }
    return done;
}

std::optional<std::string> File::read(std::uint64_t offset,
                                      std::size_t len) const {
    std::string bytes(len, '\0');
    if (pread(offset, bytes) != len) return std::nullopt;
    return bytes;
}

std::string File::read_all() const {
    std::string bytes(static_cast<std::size_t>(size_), '\0');
    bytes.resize(pread(0, bytes));
    return bytes;
}

void File::append(std::string_view bytes) {
    if (bytes.empty()) return;
    // An injected fault caps what the device accepts and names the error
    // it reports once the cap is reached (0: no progress, a short write).
    std::size_t accepted = bytes.size();
    int fault_err = 0;
    if (faults_ != nullptr && ++faults_->appends == faults_->nth) {
        switch (faults_->kind) {
            case WriteFaults::Kind::kShortWrite:
                accepted = bytes.size() / 2;
                break;
            case WriteFaults::Kind::kNoSpace:
                accepted = bytes.size() / 2;
                fault_err = ENOSPC;
                break;
            case WriteFaults::Kind::kIo:
                accepted = 0;
                fault_err = EIO;
                break;
        }
    }

    const std::uint64_t start = size_;
    std::size_t done = 0;
    int err = 0;
    while (done < bytes.size()) {
        ssize_t n = 0;
        if (done < accepted) {
            n = ::pwrite(fd_, bytes.data() + done, accepted - done,
                         static_cast<off_t>(start + done));
            if (n < 0) err = errno;
        } else if (fault_err != 0) {
            n = -1;
            err = fault_err;
        }
        if (n < 0 && err == EINTR) {
            err = 0;
            continue;
        }
        if (n <= 0) break;
        done += static_cast<std::size_t>(n);
    }
    if (done == bytes.size()) {
        size_ += done;
        return;
    }
    // Cut the torn bytes off. Should that fail too, size_ still names
    // the last good end, and the next append overwrites from there.
    const bool cut =
        done == 0 || ::ftruncate(fd_, static_cast<off_t>(start)) == 0;
    throw std::runtime_error(
        "storage: append to " + path_ + " failed after " +
        std::to_string(done) + " of " + std::to_string(bytes.size()) +
        " bytes: " + (err != 0 ? std::strerror(err) : "short write") +
        (cut ? "" : " (torn bytes left past the end)"));
}

void File::truncate(std::uint64_t len) {
    if (::ftruncate(fd_, static_cast<off_t>(len)) != 0) {
        throw std::system_error(errno, std::generic_category(),
                                "storage: cannot truncate " + path_);
    }
    size_ = len;
}

}  // namespace spider::storage

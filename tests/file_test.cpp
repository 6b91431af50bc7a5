// storage::File suite (DESIGN.md §14): the one disk handle behind the
// SSD block store and the WAL. Covers open modes, pread at offsets and
// past the end, truncate, moves, and the all-or-nothing append under
// every injected write fault (short write, ENOSPC, EIO).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

#include "storage/file.hpp"

namespace spider::storage {
namespace {

namespace fs = std::filesystem;

class StorageFile : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("spider_file_test_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    [[nodiscard]] std::string path(const std::string& name) const {
        return (dir_ / name).string();
    }

    fs::path dir_;
};

TEST_F(StorageFile, AppendThenPreadAtOffsets) {
    File file{path("a"), File::Mode::kAppend};
    EXPECT_TRUE(file.is_open());
    EXPECT_EQ(file.size(), 0U);
    file.append("hello ");
    file.append("world");
    EXPECT_EQ(file.size(), 11U);
    EXPECT_EQ(fs::file_size(path("a")), 11U);
    EXPECT_EQ(file.read(6, 5).value(), "world");
    EXPECT_EQ(file.read(0, 11).value(), "hello world");
    EXPECT_EQ(file.read_all(), "hello world");

    // Past the end: pread reports the short count, read() refuses.
    std::string buf(8, '\0');
    EXPECT_EQ(file.pread(8, buf), 3U);
    EXPECT_EQ(buf.substr(0, 3), "rld");
    EXPECT_FALSE(file.read(8, 8).has_value());
    EXPECT_EQ(file.pread(100, buf), 0U);
}

TEST_F(StorageFile, ModesKeepReplaceOrRequireTheFile) {
    EXPECT_THROW((File{path("missing"), File::Mode::kRead}),
                 std::system_error);
    { File{path("f"), File::Mode::kAppend}.append("abc"); }
    {
        File kept{path("f"), File::Mode::kAppend};
        EXPECT_EQ(kept.size(), 3U);
        kept.append("def");  // appends at the end it found
        EXPECT_EQ(kept.read_all(), "abcdef");
    }
    EXPECT_EQ(File(path("f"), File::Mode::kRead).read_all(), "abcdef");
    File replaced{path("f"), File::Mode::kReplace};
    EXPECT_EQ(replaced.size(), 0U);
    EXPECT_EQ(fs::file_size(path("f")), 0U);
}

TEST_F(StorageFile, TruncateSetsTheLengthAndTheNextAppendPoint) {
    File file{path("t"), File::Mode::kAppend};
    file.append("0123456789");
    file.truncate(4);
    EXPECT_EQ(file.size(), 4U);
    EXPECT_EQ(fs::file_size(path("t")), 4U);
    file.append("xy");
    EXPECT_EQ(file.read_all(), "0123xy");
}

TEST_F(StorageFile, MoveTransfersTheHandle) {
    File a{path("m"), File::Mode::kAppend};
    a.append("abc");
    File b{std::move(a)};
    EXPECT_FALSE(a.is_open());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.is_open());
    EXPECT_EQ(b.size(), 3U);
    File c;
    c = std::move(b);
    c.append("d");
    EXPECT_EQ(c.read_all(), "abcd");
}

class StorageFileFault
    : public StorageFile,
      public ::testing::WithParamInterface<WriteFaults::Kind> {};

TEST_P(StorageFileFault, FailedAppendLeavesTheLastGoodLengthAndRetries) {
    WriteFaults faults{.kind = GetParam(), .nth = 2};
    File file{path("f"), File::Mode::kAppend, &faults};
    file.append("good-");
    EXPECT_THROW(file.append("torn-frame"), std::runtime_error);
    EXPECT_EQ(faults.appends, 2U);
    EXPECT_EQ(file.size(), 5U);
    EXPECT_EQ(fs::file_size(path("f")), 5U);
    // The retry lands where the torn bytes would have been.
    file.append("torn-frame");
    EXPECT_EQ(file.read_all(), "good-torn-frame");
    EXPECT_EQ(fs::file_size(path("f")), 15U);
}

TEST_P(StorageFileFault, CountsAppendsAcrossEveryFileSharingTheFaults) {
    WriteFaults faults{.kind = GetParam(), .nth = 3};
    File a{path("a"), File::Mode::kAppend, &faults};
    File b{path("b"), File::Mode::kAppend, &faults};
    a.append("1");
    b.append("2");
    EXPECT_THROW(a.append("33"), std::runtime_error);
    b.append("44");  // the fault is one-shot
    EXPECT_EQ(a.read_all(), "1");
    EXPECT_EQ(b.read_all(), "244");
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, StorageFileFault,
    ::testing::Values(WriteFaults::Kind::kShortWrite,
                      WriteFaults::Kind::kNoSpace, WriteFaults::Kind::kIo),
    [](const ::testing::TestParamInfo<WriteFaults::Kind>& info) {
        return std::string{to_string(info.param)};
    });

}  // namespace
}  // namespace spider::storage

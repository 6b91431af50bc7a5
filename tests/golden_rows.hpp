#pragma once

// Golden-file helpers shared by the suites that pin behaviour in data
// (CacheGolden, SimGolden, SsdBlockStoreGolden, WalGolden): a run is
// rendered as plain-text rows and compared with a committed file under
// tests/golden/. The including test
// target defines SPIDER_SOURCE_DIR (to find the files) and
// SPIDER_BINARY_DIR (where a mismatching run is written).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace spider::golden {

/// printf into a row (rows are short; longer ones are built piecewise).
inline std::string row_of(const char* fmt, auto... args) {
    char buf[128];
    std::snprintf(buf, sizeof buf, fmt, args...);
    return buf;
}

/// Fails with the first divergent row unless the row lists are equal.
inline void expect_same_rows(const std::vector<std::string>& expected,
                             const std::vector<std::string>& actual,
                             const std::string& what) {
    std::size_t row = 0;
    while (row < expected.size() && row < actual.size() &&
           expected[row] == actual[row]) {
        ++row;
    }
    if (row == expected.size() && row == actual.size()) return;
    const auto at = [row](const std::vector<std::string>& rows) {
        return row < rows.size() ? rows[row] : std::string{"<end>"};
    };
    ADD_FAILURE() << what << ": first difference at row " << row
                  << "\n  expected: " << at(expected)
                  << "\n  actual:   " << at(actual);
}

/// FNV-1a over raw bytes, chained through `hash` (start at kFnvBasis).
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                           std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
    }
    return hash;
}

/// Compares `actual` with tests/golden/`name`; on a mismatch also writes
/// `actual` to `<stem of name>.actual.txt` in the test binary's directory.
/// With a `tag`, the file is shared by several suites: only its rows that
/// start with `tag` and a space are compared (every row of `actual` does
/// too), and a mismatch is written to `<stem>.<tag>.actual.txt`.
inline void expect_golden(const std::string& name,
                          const std::vector<std::string>& actual,
                          const std::string& what,
                          const std::string& tag = "") {
    std::ifstream in{std::string{SPIDER_SOURCE_DIR} + "/tests/golden/" + name};
    std::vector<std::string> expected;
    for (std::string line; std::getline(in, line);) {
        if (tag.empty() || line.starts_with(tag + ' ')) {
            expected.push_back(line);
        }
    }
    if (actual == expected) return;
    const std::string out_path =
        std::string{SPIDER_BINARY_DIR} + "/" + name.substr(0, name.rfind('.')) +
        (tag.empty() ? "" : "." + tag) + ".actual.txt";
    std::ofstream out{out_path};
    for (const auto& line : actual) out << line << '\n';
    expect_same_rows(expected, actual, what + ", " + name + " (written to " +
                                           out_path + ")");
}

}  // namespace spider::golden

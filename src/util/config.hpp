#pragma once

// Minimal INI-style configuration: `key = value` lines, `#`/`;` comments,
// optional `[sections]` flattened into dotted keys ("elastic.r_end").
// Typed getters with defaults and strict parse errors. Used by the
// `run_from_config` example so experiments are scriptable without
// recompiling.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace spider::util {

class Config {
public:
    Config() = default;

    /// Parses `key = value` text. Throws std::invalid_argument with the
    /// offending line on malformed input.
    [[nodiscard]] static Config parse(std::istream& is);
    [[nodiscard]] static Config parse_string(const std::string& text);
    [[nodiscard]] static Config load_file(const std::string& path);

    [[nodiscard]] bool contains(const std::string& key) const;
    [[nodiscard]] std::size_t size() const { return values_.size(); }

    /// Typed getters. The defaulted forms return `fallback` when the key
    /// is absent; the strict forms throw std::out_of_range. Type
    /// conversion failures always throw std::invalid_argument.
    [[nodiscard]] std::string get_string(const std::string& key,
                                         const std::string& fallback) const;
    [[nodiscard]] std::string get_string(const std::string& key) const;
    [[nodiscard]] double get_double(const std::string& key,
                                    double fallback) const;
    [[nodiscard]] std::int64_t get_int(const std::string& key,
                                       std::int64_t fallback) const;
    [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
    /// get_int for a size or count: also throws std::invalid_argument on a
    /// negative value instead of letting it wrap to a huge unsigned one.
    [[nodiscard]] std::size_t get_count(const std::string& key,
                                        std::size_t fallback) const;
    /// Comma-separated lists of trimmed items (strict forms). An empty
    /// item, or in get_doubles one that is not a number, throws
    /// std::invalid_argument.
    [[nodiscard]] std::vector<std::string> get_list(
        const std::string& key) const;
    [[nodiscard]] std::vector<double> get_doubles(const std::string& key) const;

    void set(const std::string& key, const std::string& value);

    [[nodiscard]] const std::map<std::string, std::string>& values() const {
        return values_;
    }

private:
    [[nodiscard]] std::optional<std::string> find(const std::string& key) const;
    std::map<std::string, std::string> values_;
};

}  // namespace spider::util

#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace spider::util {

namespace {

std::string trim(const std::string& text) {
    const auto begin = text.find_first_not_of(" \t\r");
    if (begin == std::string::npos) return {};
    const auto end = text.find_last_not_of(" \t\r");
    return text.substr(begin, end - begin + 1);
}

std::string lower(std::string text) {
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return text;
}

double to_double(const std::string& key, const std::string& text) {
    try {
        std::size_t consumed = 0;
        const double parsed = std::stod(text, &consumed);
        if (consumed != text.size()) throw std::invalid_argument{""};
        return parsed;
    } catch (const std::exception&) {
        throw std::invalid_argument{"Config: '" + key + "' is not a number: '" +
                                    text + "'"};
    }
}

}  // namespace

Config Config::parse(std::istream& is) {
    Config config;
    std::string line;
    std::string section;
    std::size_t line_number = 0;
    while (std::getline(is, line)) {
        ++line_number;
        const std::string stripped = trim(line);
        if (stripped.empty() || stripped.front() == '#' ||
            stripped.front() == ';') {
            continue;
        }
        if (stripped.front() == '[') {
            if (stripped.back() != ']' || stripped.size() < 3) {
                throw std::invalid_argument{
                    "Config: malformed section at line " +
                    std::to_string(line_number)};
            }
            section = trim(stripped.substr(1, stripped.size() - 2));
            continue;
        }
        const auto equals = stripped.find('=');
        if (equals == std::string::npos) {
            throw std::invalid_argument{"Config: expected key=value at line " +
                                        std::to_string(line_number) + ": '" +
                                        stripped + "'"};
        }
        const std::string key = trim(stripped.substr(0, equals));
        std::string value = trim(stripped.substr(equals + 1));
        // Inline comments: a ';' or '#' preceded by whitespace ends the value.
        for (std::size_t i = 1; i < value.size(); ++i) {
            if ((value[i] == ';' || value[i] == '#') &&
                (value[i - 1] == ' ' || value[i - 1] == '\t')) {
                value = trim(value.substr(0, i));
                break;
            }
        }
        if (key.empty()) {
            throw std::invalid_argument{"Config: empty key at line " +
                                        std::to_string(line_number)};
        }
        config.values_[section.empty() ? key : section + "." + key] = value;
    }
    return config;
}

Config Config::parse_string(const std::string& text) {
    std::istringstream iss{text};
    return parse(iss);
}

Config Config::load_file(const std::string& path) {
    std::ifstream file{path};
    if (!file) {
        throw std::invalid_argument{"Config: cannot open " + path};
    }
    return parse(file);
}

bool Config::contains(const std::string& key) const {
    return values_.contains(key);
}

std::optional<std::string> Config::find(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
    return find(key).value_or(fallback);
}

std::string Config::get_string(const std::string& key) const {
    const auto value = find(key);
    if (!value) throw std::out_of_range{"Config: missing key '" + key + "'"};
    return *value;
}

double Config::get_double(const std::string& key, double fallback) const {
    const auto value = find(key);
    return value ? to_double(key, *value) : fallback;
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
    const auto value = find(key);
    if (!value) return fallback;
    try {
        std::size_t consumed = 0;
        const std::int64_t parsed = std::stoll(*value, &consumed);
        if (consumed != value->size()) throw std::invalid_argument{""};
        return parsed;
    } catch (const std::exception&) {
        throw std::invalid_argument{"Config: '" + key +
                                    "' is not an integer: '" + *value + "'"};
    }
}

std::size_t Config::get_count(const std::string& key,
                              std::size_t fallback) const {
    if (!contains(key)) return fallback;
    const std::int64_t value = get_int(key, 0);
    if (value < 0) {
        throw std::invalid_argument{"Config: '" + key +
                                    "' must not be negative: " +
                                    std::to_string(value)};
    }
    return static_cast<std::size_t>(value);
}

std::vector<std::string> Config::get_list(const std::string& key) const {
    const std::string text = get_string(key);
    std::vector<std::string> items;
    for (std::size_t begin = 0; begin <= text.size();) {
        const std::size_t comma = std::min(text.find(',', begin), text.size());
        items.push_back(trim(text.substr(begin, comma - begin)));
        if (items.back().empty()) {
            throw std::invalid_argument{"Config: '" + key +
                                        "' has an empty list item: '" + text +
                                        "'"};
        }
        begin = comma + 1;
    }
    return items;
}

std::vector<double> Config::get_doubles(const std::string& key) const {
    std::vector<double> values;
    for (const std::string& item : get_list(key)) {
        values.push_back(to_double(key, item));
    }
    return values;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
    const auto value = find(key);
    if (!value) return fallback;
    const std::string normalized = lower(*value);
    if (normalized == "true" || normalized == "1" || normalized == "yes" ||
        normalized == "on") {
        return true;
    }
    if (normalized == "false" || normalized == "0" || normalized == "no" ||
        normalized == "off") {
        return false;
    }
    throw std::invalid_argument{"Config: '" + key + "' is not a boolean: '" +
                                *value + "'"};
}

void Config::set(const std::string& key, const std::string& value) {
    values_[key] = value;
}

}  // namespace spider::util

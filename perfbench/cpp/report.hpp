#pragma once

// What one benchmark run reports: named metrics with units, the
// correctness-check tally (every check is one attempted operation; a
// failed check is a failed operation), and a free-form "info" section of
// human-facing numbers that are not part of the gated metric set.
// to_json() renders everything as one line for run.py to validate.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>

namespace perfbench {

class Report {
public:
    void metric(const std::string& name, double value, const std::string& unit) {
        metrics_[name] = {value, unit};
    }
    void info(const std::string& name, double value, const std::string& unit) {
        info_[name] = {value, unit};
    }
    void provenance(const std::string& key, const std::string& value) {
        provenance_[key] = value;
    }

    /// One correctness check over `ops` operations, all passing or all
    /// failing together. The first few failures are echoed to stderr.
    void check(bool ok, std::string_view what, std::uint64_t ops = 1) {
        if (ops == 0) return;
        attempted_ += ops;
        if (ok) return;
        failed_ += ops;
        if (++failure_lines_ <= 10) {
            std::cerr << "perfbench: check failed: " << what << "\n";
        }
    }

    [[nodiscard]] std::string to_json() const {
        std::string out = "{\"correct\": ";
        out += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted_);
        out += ", \"failed\": " + std::to_string(failed_);
        out += ", \"metrics\": " + values_json(metrics_);
        out += ", \"info\": " + values_json(info_);
        out += ", \"provenance\": {";
        const char* sep = "";
        for (const auto& [key, value] : provenance_) {
            out += sep + quote(key) + ": " + quote(value);
            sep = ", ";
        }
        return out + "}}";
    }

private:
    using Values = std::map<std::string, std::pair<double, std::string>>;

    static std::string quote(const std::string& s) {
        std::string out = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\') out += '\\';
            if (static_cast<unsigned char>(c) >= 0x20) out += c;
        }
        return out + "\"";
    }
    static std::string number(double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }
    static std::string values_json(const Values& values) {
        std::string out = "{";
        const char* sep = "";
        for (const auto& [name, entry] : values) {
            out += sep + quote(name) + ": {\"value\": " + number(entry.first) +
                   ", \"unit\": " + quote(entry.second) + "}";
            sep = ", ";
        }
        return out + "}";
    }

    Values metrics_;
    Values info_;
    std::map<std::string, std::string> provenance_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t failure_lines_ = 0;
};

}  // namespace perfbench

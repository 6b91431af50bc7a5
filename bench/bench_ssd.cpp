// bench_ssd — the on-disk SSD block tier (DESIGN.md §14).
//
// Three measurements:
//   (a) bloom effectiveness: disk reads per absent-id lookup against a
//       sealed segment set, bloom on vs bloom off. The miss path should
//       touch (almost) no disk with the filter on — each false positive
//       costs exactly one index-slice read — and exactly one index-slice
//       read per sealed-segment probe with it off. Then every key is read
//       back: bytes read per sealed hit show the fence slice (at most
//       32 index entries) plus the record frame.
//   (b) simulator parity: a block-mode run must reproduce the residency
//       model's per-epoch SSD hit accounting bit for bit (the store moves
//       bytes, never residency decisions).
//   (c) GC under a byte budget: whole-segment collection keeps bytes
//       bounded while the newest working set stays resident.
//
// Prints tables and writes BENCH_ssd.json, with the shared provenance
// members, so the baseline is diffable.
// Usage: bench_ssd [--smoke] [--out BENCH_ssd.json]
// --smoke asserts the invariants and exits non-zero on violation.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "storage/ssd_block_store.hpp"
#include "storage/ssd_tier.hpp"

namespace {

namespace fs = std::filesystem;
using spider::storage::SsdBlockStore;
using spider::storage::SsdBlockStoreConfig;

struct TempDir {
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() /
               ("spider_bench_ssd_" + std::to_string(::getpid()) + "_" + tag);
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
    fs::path path;
};

std::vector<std::uint8_t> payload_for(std::uint32_t id, std::size_t size) {
    std::vector<std::uint8_t> out(size);
    for (std::size_t i = 0; i < size; ++i) {
        out[i] = static_cast<std::uint8_t>(id * 131 + i * 7);
    }
    return out;
}

struct BloomPoint {
    std::size_t bits_per_key = 0;
    double disk_reads_per_lookup = 0.0;
    double fp_per_lookup = 0.0;     // bloom passes that missed the index
    double skips_per_lookup = 0.0;  // segment probes the bloom rejected
    double probes_per_lookup = 0.0;  // segments each absent lookup walks
    std::uint64_t disk_reads = 0;
    double bytes_read_per_sealed_hit = 0.0;
};

/// Writes `keys` records, seals everything, then looks up `lookups`
/// absent ids and reports what the bloom let through to disk, and what
/// reading every key back costs.
BloomPoint absent_lookup_cost(std::size_t keys, std::size_t lookups,
                              std::size_t bits_per_key) {
    TempDir dir{"bloom_" + std::to_string(bits_per_key)};
    SsdBlockStoreConfig config;
    config.dir = dir.path.string();
    config.segment_bytes = 64U << 20;  // one sealed segment holds all keys
    config.bloom_bits_per_key = bits_per_key;
    SsdBlockStore store{config};
    for (std::uint32_t id = 0; id < keys; ++id) {
        store.write(id, payload_for(id, 64));
    }
    store.seal_active();

    const auto before = store.stats();
    for (std::uint32_t i = 0; i < lookups; ++i) {
        (void)store.read(1000000U + i * 7);
    }
    const auto after = store.stats();
    const auto n = static_cast<double>(lookups);
    BloomPoint point;
    point.bits_per_key = bits_per_key;
    point.disk_reads = after.disk_reads - before.disk_reads;
    point.disk_reads_per_lookup = static_cast<double>(point.disk_reads) / n;
    point.fp_per_lookup = static_cast<double>(after.bloom_false_positives -
                                              before.bloom_false_positives) /
                          n;
    point.skips_per_lookup =
        static_cast<double>(after.bloom_skips - before.bloom_skips) / n;
    // An absent id is never found, so read() walks every segment: the
    // sealed one holding all keys and the empty active one after it.
    point.probes_per_lookup = static_cast<double>(store.segment_count());

    for (std::uint32_t id = 0; id < keys; ++id) (void)store.read(id);
    point.bytes_read_per_sealed_hit =
        static_cast<double>(store.stats().bytes_read - after.bytes_read) /
        static_cast<double>(keys);
    return point;
}

struct ParityResult {
    std::uint64_t residency_ssd_hits = 0;
    std::uint64_t block_ssd_hits = 0;
    double hit_ratio = 0.0;  // SSD hits / tier consults, whole run
    bool epochs_match = true;
};

ParityResult simulator_parity(std::size_t epochs) {
    TempDir dir{"parity"};
    spider::sim::SimConfig model;
    model.dataset = spider::data::cifar10_like(0.02, 61);
    model.strategy = spider::sim::StrategyKind::kBaselineLru;
    model.epochs = epochs;
    model.seed = 19;
    model.ssd.enabled = true;
    model.ssd.capacity_items = 300;

    spider::sim::SimConfig block = model;
    block.ssd.path = dir.path.string();

    const auto a = spider::sim::TrainingSimulator{model}.run();
    const auto b = spider::sim::TrainingSimulator{block}.run();

    ParityResult result;
    std::uint64_t consults = 0;
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        result.residency_ssd_hits += a.epochs[i].ssd_hits;
        result.block_ssd_hits += b.epochs[i].ssd_hits;
        consults += b.epochs[i].ssd_hits + b.epochs[i].ssd_misses;
        if (a.epochs[i].ssd_hits != b.epochs[i].ssd_hits ||
            a.epochs[i].ssd_misses != b.epochs[i].ssd_misses) {
            result.epochs_match = false;
        }
    }
    if (consults > 0) {
        result.hit_ratio = static_cast<double>(result.block_ssd_hits) /
                           static_cast<double>(consults);
    }
    return result;
}

struct GcResult {
    std::size_t bytes_written = 0;
    std::size_t bytes_used = 0;
    std::uint64_t segments_collected = 0;
    std::size_t resident_items = 0;
    bool newest_resident = true;
};

GcResult gc_under_budget(std::size_t inserts) {
    TempDir dir{"gc"};
    spider::storage::SsdTierConfig config;
    config.enabled = true;
    config.capacity_items = 0;
    config.path = dir.path.string();
    config.capacity_mb = 1;
    config.segment_mb = 1;
    spider::storage::SsdTier tier{config};

    constexpr std::size_t kChunk = 32 * 1024;
    const std::vector<std::uint8_t> chunk(kChunk, 0x5A);
    for (std::uint32_t id = 0; id < inserts; ++id) {
        tier.insert(id, chunk);
    }
    GcResult result;
    result.bytes_written = inserts * kChunk;
    result.bytes_used = tier.bytes_used();
    result.segments_collected = tier.block_stats().segments_collected;
    result.resident_items = tier.resident_items();
    result.newest_resident =
        tier.fetch(static_cast<std::uint32_t>(inserts - 1));
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path;
    bool out_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
            out_set = true;
        } else {
            std::cerr << "usage: bench_ssd [--smoke] [--out F]\n";
            return 2;
        }
    }
    if (!smoke && !out_set) out_path = "BENCH_ssd.json";

    const std::size_t keys = smoke ? 2000 : 8000;
    const std::size_t lookups = smoke ? 10000 : 50000;
    const std::size_t parity_epochs = smoke ? 3 : 6;
    const std::size_t gc_inserts = smoke ? 96 : 256;

    std::cout << "### bench_ssd — on-disk block tier: bloom-guarded reads, "
                 "sim parity, segment GC\n"
              << "### " << keys << " keys sealed, " << lookups
              << " absent-id lookups per filter setting\n\n";

    // ---- (a) bloom on vs off.
    const BloomPoint with_bloom = absent_lookup_cost(keys, lookups, 10);
    const BloomPoint no_bloom = absent_lookup_cost(keys, lookups, 0);
    const double theoretical =
        spider::storage::BloomFilter::theoretical_fpr(10);

    spider::util::Table bloom_table{"absent-id lookup cost"};
    // Every lookup probes each segment (active + sealed); each probe the
    // bloom rejects counts as one skip. Only the sealed segment holds
    // keys, so false positives per lookup are that filter's FP rate.
    bloom_table.set_header({"bits/key", "disk reads/lookup", "probes/lookup",
                            "skips/lookup", "FPs/lookup", "theoretical FPR",
                            "bytes/sealed hit"});
    bloom_table.add_row(
        {"10", spider::util::Table::fmt(with_bloom.disk_reads_per_lookup, 4),
         spider::util::Table::fmt(with_bloom.probes_per_lookup, 2),
         spider::util::Table::fmt(with_bloom.skips_per_lookup, 2),
         spider::util::Table::fmt(with_bloom.fp_per_lookup, 4),
         spider::util::Table::fmt(theoretical, 4),
         spider::util::Table::fmt(with_bloom.bytes_read_per_sealed_hit, 1)});
    bloom_table.add_row(
        {"0 (off)",
         spider::util::Table::fmt(no_bloom.disk_reads_per_lookup, 4),
         spider::util::Table::fmt(no_bloom.probes_per_lookup, 2),
         spider::util::Table::fmt(no_bloom.skips_per_lookup, 2), "n/a",
         "n/a",
         spider::util::Table::fmt(no_bloom.bytes_read_per_sealed_hit, 1)});
    bloom_table.print(std::cout);
    std::cout << "\n";

    // ---- (b) simulator parity.
    const ParityResult parity = simulator_parity(parity_epochs);
    spider::util::Table parity_table{"block mode vs residency model"};
    parity_table.set_header(
        {"mode", "ssd hits", "per-epoch match", "ssd hit ratio"});
    parity_table.add_row(
        {"residency", std::to_string(parity.residency_ssd_hits), "-", "-"});
    parity_table.add_row({"block", std::to_string(parity.block_ssd_hits),
                          parity.epochs_match ? "yes" : "NO",
                          spider::util::Table::fmt(parity.hit_ratio, 4)});
    parity_table.print(std::cout);
    std::cout << "\n";

    // ---- (c) GC under a 1 MiB budget.
    const GcResult gc = gc_under_budget(gc_inserts);
    spider::util::Table gc_table{"whole-segment GC, 1 MiB budget"};
    gc_table.set_header({"bytes written", "bytes held", "segments GCed",
                         "resident items", "newest resident"});
    gc_table.add_row({std::to_string(gc.bytes_written),
                      std::to_string(gc.bytes_used),
                      std::to_string(gc.segments_collected),
                      std::to_string(gc.resident_items),
                      gc.newest_resident ? "yes" : "NO"});
    gc_table.print(std::cout);
    std::cout << "\n";

    // ---- verdicts (the --smoke gate).
    bool ok = true;
    const auto check = [&ok](bool condition, const char* what) {
        std::cout << (condition ? "PASS: " : "FAIL: ") << what << "\n";
        ok = ok && condition;
    };
    // The headline claim: with the bloom on, absent-id lookups are served
    // from memory — disk reads stay under 2% of lookups (each one is a
    // bloom false positive paying a single index-block read).
    check(with_bloom.disk_reads_per_lookup <= 0.02,
          "bloom on: disk reads <= 2% of absent lookups");
    check(with_bloom.fp_per_lookup <= 2.0 * theoretical,
          "bloom FP rate within 2x theoretical");
    check(no_bloom.disk_reads_per_lookup >= 1.0,
          "bloom off: every absent lookup hits disk");
    // 32 index entries of 16 B plus one frame of [len][crc][id | 64 B].
    check(with_bloom.bytes_read_per_sealed_hit <= 32 * 16 + 8 + 4 + 64,
          "sealed hit reads one index slice plus its record");
    check(parity.epochs_match,
          "block-mode hit accounting matches residency model per epoch");
    check(gc.segments_collected > 0, "GC collected stale segments");
    check(gc.bytes_used <= 2U << 20,
          "bytes held bounded by budget + one active segment");
    check(gc.newest_resident, "newest id stayed resident through GC");

    if (!out_path.empty()) {
        std::ostringstream json;
        json << "{\n"
             << "  \"bloom\": {\n"
             << "    \"keys\": " << keys << ", \"absent_lookups\": "
             << lookups << ", \"bits_per_key\": 10,\n"
             << "    \"theoretical_fpr\": " << theoretical
             << ", \"fp_per_lookup\": " << with_bloom.fp_per_lookup << ",\n"
             << "    \"disk_reads_per_lookup\": "
             << with_bloom.disk_reads_per_lookup
             << ", \"segment_probes_per_lookup\": "
             << with_bloom.probes_per_lookup
             << ", \"skips_per_lookup\": " << with_bloom.skips_per_lookup
             << ",\n"
             << "    \"bytes_read_per_sealed_hit\": "
             << with_bloom.bytes_read_per_sealed_hit << ",\n"
             << "    \"nobloom_disk_reads_per_lookup\": "
             << no_bloom.disk_reads_per_lookup << "\n  },\n"
             << "  \"parity\": {\n"
             << "    \"epochs\": " << parity_epochs
             << ", \"residency_ssd_hits\": " << parity.residency_ssd_hits
             << ", \"block_ssd_hits\": " << parity.block_ssd_hits << ",\n"
             << "    \"per_epoch_match\": "
             << (parity.epochs_match ? "true" : "false")
             << ", \"ssd_hit_ratio\": " << parity.hit_ratio << "\n  },\n"
             << "  \"gc\": {\n"
             << "    \"bytes_written\": " << gc.bytes_written
             << ", \"bytes_held\": " << gc.bytes_used
             << ", \"segments_collected\": " << gc.segments_collected
             << ",\n    \"resident_items\": " << gc.resident_items
             << ", \"newest_resident\": "
             << (gc.newest_resident ? "true" : "false") << "\n  },\n"
             << "  \"ok\": " << (ok ? "true" : "false") << ",\n"
             << spider::bench::provenance_json() << "\n}\n";
        std::ofstream out{out_path};
        out << json.str();
        std::cout << "\nwrote " << out_path << "\n";
    }

    if (smoke && !ok) return 1;
    return 0;
}

#include "ann/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>

namespace spider::ann {

namespace {

constexpr std::uint32_t kHnswMagic = 0x48'4E'53'57;  // "HNSW"
constexpr std::uint32_t kPqMagic = 0x50'51'49'58;    // "PQIX"
constexpr std::uint32_t kVersion = 1;

// Fixed-width little-endian scalar I/O. We target little-endian hosts
// (asserted at load time via the magic); the explicit widths make the
// format stable across compilers.
template <typename T>
void write_scalar(std::ostream& os, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_scalar(std::istream& is) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    is.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (!is) {
        throw std::runtime_error{"ann::serialize: truncated input"};
    }
    return value;
}

template <typename T>
void write_vector(std::ostream& os, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    write_scalar<std::uint64_t>(os, values.size());
    os.write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
void write_vector(std::ostream& os, const std::vector<T>& values) {
    write_vector(os, std::span<const T>{values});
}

template <typename T>
std::vector<T> read_vector(std::istream& is) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto count = read_scalar<std::uint64_t>(is);
    if (count > (1ULL << 34)) {
        throw std::runtime_error{"ann::serialize: implausible vector size"};
    }
    std::vector<T> values(count);
    is.read(reinterpret_cast<char*>(values.data()),
            static_cast<std::streamsize>(count * sizeof(T)));
    if (!is) {
        throw std::runtime_error{"ann::serialize: truncated input"};
    }
    return values;
}

void check_header(std::istream& is, std::uint32_t magic, const char* what) {
    if (read_scalar<std::uint32_t>(is) != magic) {
        throw std::runtime_error{std::string{"ann::serialize: bad magic for "} +
                                 what};
    }
    if (read_scalar<std::uint32_t>(is) != kVersion) {
        throw std::runtime_error{
            std::string{"ann::serialize: unsupported version for "} + what};
    }
}

}  // namespace

void save_index(const HnswIndex& index, std::ostream& os) {
    write_scalar(os, kHnswMagic);
    write_scalar(os, kVersion);
    write_scalar<std::uint64_t>(os, index.config_.dim);
    write_scalar<std::uint64_t>(os, index.config_.M);
    write_scalar<std::uint64_t>(os, index.config_.ef_construction);
    write_scalar<std::uint64_t>(os, index.config_.ef_search);
    write_scalar<std::uint64_t>(os, index.config_.seed);

    write_scalar<std::uint32_t>(os, index.entry_point_);
    write_scalar<std::uint64_t>(os, index.max_level_);
    write_scalar<std::uint8_t>(os, index.empty_ ? 1 : 0);

    write_scalar<std::uint64_t>(os, index.nodes_.size());
    for (std::uint32_t id = 0; id < index.nodes_.size(); ++id) {
        const HnswIndex::Node& node = index.nodes_[id];
        write_scalar<std::uint32_t>(os, node.label);
        write_vector(os, std::span<const float>{index.point(id),
                                                index.config_.dim});
        write_vector(os, node.in_degree);
        write_scalar<std::uint64_t>(os, node.links.size());
        for (const auto& layer_links : node.links) {
            write_vector(os, layer_links);
        }
    }
    if (!os) {
        throw std::runtime_error{"ann::serialize: write failed"};
    }
}

HnswIndex load_index(std::istream& is) {
    check_header(is, kHnswMagic, "HnswIndex");
    HnswConfig config;
    config.dim = read_scalar<std::uint64_t>(is);
    config.M = read_scalar<std::uint64_t>(is);
    config.ef_construction = read_scalar<std::uint64_t>(is);
    config.ef_search = read_scalar<std::uint64_t>(is);
    config.seed = read_scalar<std::uint64_t>(is);
    HnswIndex index{config};

    index.entry_point_ = read_scalar<std::uint32_t>(is);
    index.max_level_ = read_scalar<std::uint64_t>(is);
    index.empty_ = read_scalar<std::uint8_t>(is) != 0;

    const auto node_count = read_scalar<std::uint64_t>(is);
    if (node_count >= std::uint64_t{1} << 31) {  // upsert's limit (hnsw.hpp)
        throw std::runtime_error{"ann::serialize: implausible node count"};
    }
    index.nodes_.reserve(node_count);
    for (std::uint64_t i = 0; i < node_count; ++i) {
        HnswIndex::Node node;
        node.label = read_scalar<std::uint32_t>(is);
        const std::vector<float> point = read_vector<float>(is);
        if (point.size() != config.dim) {
            throw std::runtime_error{"ann::serialize: node dim mismatch"};
        }
        if (!std::all_of(point.begin(), point.end(),
                         [](float x) { return std::isfinite(x); })) {
            throw std::runtime_error{"ann::serialize: non-finite vector"};
        }
        index.append_vector(point);
        node.in_degree = read_vector<std::uint32_t>(is);
        const auto levels = read_scalar<std::uint64_t>(is);
        if (levels == 0 || levels > 64) {
            throw std::runtime_error{"ann::serialize: bad level count"};
        }
        node.links.resize(levels);
        for (auto& layer_links : node.links) {
            layer_links = read_vector<std::uint32_t>(is);
            for (std::uint32_t target : layer_links) {
                if (target >= node_count) {
                    throw std::runtime_error{
                        "ann::serialize: dangling link target"};
                }
            }
        }
        index.label_to_id_.emplace(node.label,
                                   static_cast<std::uint32_t>(i));
        index.nodes_.push_back(std::move(node));
    }
    if (!index.empty_ && index.entry_point_ >= index.nodes_.size()) {
        throw std::runtime_error{"ann::serialize: bad entry point"};
    }
    return index;
}

void save_quantizer(const ProductQuantizer& pq, std::ostream& os) {
    write_scalar(os, kPqMagic);
    write_scalar(os, kVersion);
    write_scalar<std::uint64_t>(os, pq.config_.dim);
    write_scalar<std::uint64_t>(os, pq.config_.num_subspaces);
    write_scalar<std::uint64_t>(os, pq.config_.codebook_size);
    write_scalar<std::uint64_t>(os, pq.config_.kmeans_iterations);
    write_scalar<std::uint64_t>(os, pq.config_.seed);
    write_scalar<std::uint8_t>(os, pq.trained_ ? 1 : 0);
    for (const auto& codebook : pq.codebooks_) {
        write_vector(os, codebook);
    }
    if (!os) {
        throw std::runtime_error{"ann::serialize: write failed"};
    }
}

ProductQuantizer load_quantizer(std::istream& is) {
    check_header(is, kPqMagic, "ProductQuantizer");
    PqConfig config;
    config.dim = read_scalar<std::uint64_t>(is);
    config.num_subspaces = read_scalar<std::uint64_t>(is);
    config.codebook_size = read_scalar<std::uint64_t>(is);
    config.kmeans_iterations = read_scalar<std::uint64_t>(is);
    config.seed = read_scalar<std::uint64_t>(is);
    ProductQuantizer pq{config};
    pq.trained_ = read_scalar<std::uint8_t>(is) != 0;
    for (auto& codebook : pq.codebooks_) {
        codebook = read_vector<float>(is);
        if (pq.trained_ &&
            codebook.size() != config.codebook_size * pq.sub_dim_) {
            throw std::runtime_error{"ann::serialize: codebook size mismatch"};
        }
    }
    return pq;
}

}  // namespace spider::ann

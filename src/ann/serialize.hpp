#pragma once

// Binary serialization for the ANN substrate. A production deployment
// builds the HNSW+PQ index once (or incrementally across training jobs)
// and persists it — the paper's Table 2 sizes are the on-disk footprint of
// exactly this artifact. Format: little-endian, fixed-width headers with
// magic + version, strict validation on load.

#include <cstdint>
#include <iosfwd>

#include "ann/hnsw.hpp"
#include "ann/pq.hpp"

namespace spider::ann {

/// Writes the full index (config, nodes, links, entry point) to `os`.
void save_index(const HnswIndex& index, std::ostream& os);

/// Reconstructs an index saved by save_index. Throws std::runtime_error on
/// magic/version mismatch, truncated input, or an index that upsert could
/// not have built (a non-finite component, 2^31 or more nodes, a dangling
/// link).
[[nodiscard]] HnswIndex load_index(std::istream& is);

/// Writes a trained quantizer (config + codebooks).
void save_quantizer(const ProductQuantizer& pq, std::ostream& os);

/// Reconstructs a quantizer saved by save_quantizer.
[[nodiscard]] ProductQuantizer load_quantizer(std::istream& is);

}  // namespace spider::ann

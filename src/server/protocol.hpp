#pragma once

// Wire protocol of the cache service (DESIGN.md §10): length-prefixed
// binary frames, RESP-in-spirit but fixed-width little-endian instead of
// text. One frame = one request or one response; a connection may carry
// any number of frames back to back (pipelining), and the server answers
// them in order.
//
//   request   u32 len | u8 op     | u8 tenant | u16 reserved | payload
//   response  u32 len | u8 op     | u8 status | u16 reserved | payload
//
// `len` counts every byte after the length field itself (so the minimum
// legal value is kHeaderLen). Frames whose `len` exceeds kMaxFrameLen are
// rejected without buffering the body — the peer is told once
// (kFrameTooBig) and the connection is closed, since the stream can no
// longer be framed. All integers and doubles are little-endian /
// IEEE-754; encode/decode goes through memcpy, never pointer casts.

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace spider::server {

/// Bytes of (op, tenant/status, reserved) — the fixed part `len` counts.
inline constexpr std::size_t kHeaderLen = 4;
/// Hard cap on `len`: 1 MiB. An MGET of ~87k keys fits; anything larger
/// is a protocol error, not a workload.
inline constexpr std::uint32_t kMaxFrameLen = 1u << 20;
/// Largest MGET key count in one frame.
inline constexpr std::size_t kMaxMgetKeys = 4096;
/// Largest neighbor list in one PUT_NEIGHBORS frame.
inline constexpr std::size_t kMaxNeighbors = 1024;

enum class Op : std::uint8_t {
    kGet = 1,             ///< u32 id, f64 score -> GetReply
    kProbe = 2,           ///< u32 id -> u8 resident
    kMget = 3,            ///< u16 n, n x (u32 id, f64 score) -> u16 n, n x GetReply
    kPutScore = 4,        ///< u32 id, f64 score -> (empty)
    kStats = 5,           ///< (empty) -> StatsReply
    kTenantStat = 6,      ///< (empty) -> TenantStatReply
    kTenantSetRatio = 7,  ///< f64 imp_ratio -> f64 applied (post-clamp)
    kPutNeighbors = 8,    ///< u32 key, u16 n, n x u32 -> u8 accepted
    kPing = 9,            ///< (empty) -> (empty)
    kGetData = 10,        ///< u32 id, f64 score -> GetDataReply (GET that
                          ///< also carries the sample's stored bytes:
                          ///< SSD-tier hits return the block-store
                          ///< payload, memory hits go through the
                          ///< server's payload_read hook)
};

/// Response status byte. kOk means the payload is the op's reply; any
/// other value means the payload is empty.
enum class Status : std::uint8_t {
    kOk = 0,
    kBadOp = 1,        ///< unknown opcode
    kBadTenant = 2,    ///< tenant byte out of range
    kBadPayload = 3,   ///< payload too short / inconsistent counts, or
                       ///< a score or ratio that is not finite
    kFrameTooBig = 4,  ///< len > kMaxFrameLen (connection is then closed)
    kShutdown = 5,     ///< server is stopping
};

/// How a GET was ultimately served.
enum class ServeKind : std::uint8_t {
    kImportanceHit = 0,  ///< Case 1: resident in the Importance section
    kHomophilyHit = 1,   ///< Case 3: a resident surrogate was served
    kMissAdmitted = 2,   ///< fetched from backing, Case 4 admit
    kMissRejected = 3,   ///< fetched from backing, Case 2 no-admit
    kMissSsd = 4,        ///< served by the shared SSD tier (no admit change)
    kFetchFailed = 5,    ///< backing fetch failed (resilient envelope
                         ///< exhausted / breaker open); nothing admitted
};

struct GetReply {
    ServeKind kind = ServeKind::kMissRejected;
    /// Sample actually served (the surrogate for kHomophilyHit).
    std::uint32_t served_id = 0;
};

/// GET_DATA reply: the GET verdict plus the served sample's bytes.
/// `payload` is empty when the server has no bytes for the id (no block
/// store and no payload_read hook, or the fetch failed).
struct GetDataReply {
    GetReply base;
    std::vector<std::uint8_t> payload;
};

/// Server-wide counters, all monotone u64 (see SpiderServer for the
/// semantics of batches vs frames — amplification = frames / batches).
struct StatsReply {
    std::uint64_t conns_accepted = 0;
    std::uint64_t conns_open = 0;
    std::uint64_t frames = 0;          ///< requests fully serviced
    std::uint64_t batches = 0;         ///< drain passes servicing >= 1 frame
    std::uint64_t single_frame_batches = 0;
    std::uint64_t max_batch = 0;       ///< largest single drain pass
    std::uint64_t gets = 0;
    std::uint64_t probes = 0;
    std::uint64_t mget_keys = 0;
    std::uint64_t put_scores = 0;
    std::uint64_t errors = 0;          ///< non-kOk responses sent
    std::uint64_t dropped_frames = 0;  ///< decoded but unanswered at close
    std::uint64_t in_flight = 0;       ///< decoded, not yet answered (0 at rest)
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
};

struct TenantStatReply {
    std::uint64_t capacity = 0;      ///< tenant slice, items
    std::uint64_t imp_capacity = 0;
    std::uint64_t hom_capacity = 0;
    std::uint64_t imp_size = 0;
    std::uint64_t hom_size = 0;
    std::uint64_t hits_importance = 0;
    std::uint64_t hits_homophily = 0;
    std::uint64_t misses = 0;
    std::uint64_t admitted = 0;
    double imp_ratio = 0.0;
};

// ---------------------------------------------------------------- encoding

/// Append-only little-endian writer over a caller-owned byte buffer.
class WireWriter {
public:
    explicit WireWriter(std::vector<std::uint8_t>& buf) : buf_{buf} {}

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { raw(&v, sizeof v); }
    void u32(std::uint32_t v) { raw(&v, sizeof v); }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void blob(std::span<const std::uint8_t> bytes) {
        raw(bytes.data(), bytes.size());
    }

    /// Opens a frame: writes a length placeholder plus the two id bytes
    /// (op + tenant for requests, op + status for responses). Returns the
    /// offset to hand back to end_frame.
    std::size_t begin_frame(std::uint8_t b0, std::uint8_t b1);
    /// Patches the length field of the frame opened at `frame_off`.
    void end_frame(std::size_t frame_off);

private:
    void raw(const void* p, std::size_t n) {
        const auto* bytes = static_cast<const std::uint8_t*>(p);
        buf_.insert(buf_.end(), bytes, bytes + n);
    }
    std::vector<std::uint8_t>& buf_;
};

/// Bounds-checked little-endian reader over a frame payload. Every getter
/// returns a value; `ok()` goes false (and stays false) on the first
/// out-of-bounds read, so callers validate once at the end.
class WireReader {
public:
    explicit WireReader(std::span<const std::uint8_t> data) : data_{data} {}

    [[nodiscard]] bool ok() const { return ok_; }
    /// True when every byte was consumed (trailing garbage = malformed).
    [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    double f64() { return get<double>(); }
    /// Raw view of the next `n` bytes (empty + !ok() when short).
    std::span<const std::uint8_t> bytes(std::size_t n) {
        if (!ok_ || data_.size() - pos_ < n) {
            ok_ = false;
            return {};
        }
        const auto view = data_.subspan(pos_, n);
        pos_ += n;
        return view;
    }

private:
    template <typename T>
    T get() {
        T v{};
        if (!ok_ || data_.size() - pos_ < sizeof(T)) {
            ok_ = false;
            return v;
        }
        std::memcpy(&v, data_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }
    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

// ------------------------------------------------------------- de-framing

/// One decoded frame. `payload` views into the decoder's buffer and is
/// valid until the next feed()/next() call on that decoder.
struct Frame {
    std::uint8_t b0 = 0;  ///< op
    std::uint8_t b1 = 0;  ///< tenant (request) or status (response)
    std::span<const std::uint8_t> payload;
};

/// Incremental frame reassembly over an arbitrary chunking of the byte
/// stream (partial reads across read() boundaries are the normal case).
/// Once kTooBig or kMalformed is returned the decoder is poisoned: the
/// stream cannot be re-framed and the connection must be dropped.
class FrameDecoder {
public:
    enum class Result : std::uint8_t {
        kFrame,     ///< `out` holds the next complete frame
        kNeedMore,  ///< no complete frame buffered
        kTooBig,    ///< announced len > kMaxFrameLen
        kMalformed, ///< announced len < kHeaderLen
    };

    void feed(std::span<const std::uint8_t> bytes);
    Result next(Frame& out);

    /// Complete frames currently buffered (cheap scan; used for the
    /// dropped-at-close accounting and the pipelining tests).
    [[nodiscard]] std::size_t buffered_frames() const;
    /// Bytes buffered but not yet consumed (complete or partial).
    [[nodiscard]] std::size_t buffered_bytes() const { return buf_.size() - pos_; }
    [[nodiscard]] bool poisoned() const { return poisoned_; }

private:
    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;  ///< consumed prefix, compacted on feed()
    bool poisoned_ = false;
};

// ------------------------------------------- typed request/reply encoding

void encode_get(WireWriter& w, std::uint8_t tenant, std::uint32_t id,
                double score);
void encode_probe(WireWriter& w, std::uint8_t tenant, std::uint32_t id);
void encode_mget(WireWriter& w, std::uint8_t tenant,
                 std::span<const std::uint32_t> ids,
                 std::span<const double> scores);
void encode_put_score(WireWriter& w, std::uint8_t tenant, std::uint32_t id,
                      double score);
void encode_stats(WireWriter& w);
void encode_tenant_stat(WireWriter& w, std::uint8_t tenant);
void encode_tenant_set_ratio(WireWriter& w, std::uint8_t tenant, double ratio);
void encode_put_neighbors(WireWriter& w, std::uint8_t tenant,
                          std::uint32_t key,
                          std::span<const std::uint32_t> neighbors);
void encode_ping(WireWriter& w);
void encode_get_data(WireWriter& w, std::uint8_t tenant, std::uint32_t id,
                     double score);

void encode_get_reply(WireWriter& w, const GetReply& r);
void encode_get_data_reply(WireWriter& w, const GetDataReply& r);
void encode_stats_reply(WireWriter& w, const StatsReply& r);
void encode_tenant_stat_reply(WireWriter& w, const TenantStatReply& r);

/// Payload decoders for the reply side (nullopt = short/garbled payload).
[[nodiscard]] std::optional<GetReply> decode_get_reply(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<std::vector<GetReply>> decode_mget_reply(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<GetDataReply> decode_get_data_reply(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<StatsReply> decode_stats_reply(
    std::span<const std::uint8_t> payload);
[[nodiscard]] std::optional<TenantStatReply> decode_tenant_stat_reply(
    std::span<const std::uint8_t> payload);

/// On-the-wire byte counts (length prefix included) of one GET request
/// frame and its reply frame. The cooperative cache prices its peer-fetch
/// envelope with these, so the virtual wire cost tracks the real protocol
/// encoding instead of a hand-kept constant.
[[nodiscard]] std::size_t get_request_wire_len();
[[nodiscard]] std::size_t get_reply_wire_len();

[[nodiscard]] const char* to_string(Status status);
[[nodiscard]] const char* to_string(Op op);

}  // namespace spider::server

// Cache-service tests: wire-protocol round trips, frame reassembly over
// arbitrary read() chunkings, malformed/truncated-frame fuzz, oversized
// frame rejection, live-server op coverage, pipelining + server-side
// batching, clean disconnect mid-pipeline (no leaked in-flight batch
// slots), and the simulator running against a served cache.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <thread>
#include <vector>

#include "data/presets.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "sim/simulator.hpp"
#include "storage/ssd_tier.hpp"

namespace spider::server {
namespace {

using namespace std::chrono_literals;

// ---- raw-socket helpers (tests that bypass Client's framing on purpose).

void write_raw(int fd, std::span<const std::uint8_t> bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0 && errno == EINTR) continue;
        ASSERT_GT(n, 0) << "raw write failed: " << std::strerror(errno);
        off += static_cast<std::size_t>(n);
    }
}

/// Reads until `n` bytes or EOF; returns bytes actually read.
std::vector<std::uint8_t> read_upto(int fd, std::size_t n) {
    std::vector<std::uint8_t> out;
    out.reserve(n);
    while (out.size() < n) {
        std::uint8_t buf[4096];
        const ssize_t got =
            ::read(fd, buf, std::min(sizeof buf, n - out.size()));
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) break;
        out.insert(out.end(), buf, buf + got);
    }
    return out;
}

bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds budget = 3000ms) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) return true;
        std::this_thread::sleep_for(2ms);
    }
    return pred();
}

// ======================================================= protocol encoding

TEST(Protocol, GetRequestRoundTrip) {
    std::vector<std::uint8_t> buf;
    WireWriter w{buf};
    encode_get(w, /*tenant=*/3, /*id=*/0xDEADBEEF, /*score=*/2.5);

    FrameDecoder decoder;
    decoder.feed(buf);
    Frame frame;
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
    EXPECT_EQ(static_cast<Op>(frame.b0), Op::kGet);
    EXPECT_EQ(frame.b1, 3);

    WireReader r{frame.payload};
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_DOUBLE_EQ(r.f64(), 2.5);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore);
}

TEST(Protocol, EveryRequestOpFramesCleanly) {
    std::vector<std::uint8_t> buf;
    WireWriter w{buf};
    const std::vector<std::uint32_t> ids{1, 2, 3};
    const std::vector<double> scores{0.1, 0.2, 0.3};
    encode_get(w, 0, 7, 1.0);
    encode_probe(w, 1, 8);
    encode_mget(w, 2, ids, scores);
    encode_put_score(w, 0, 9, 4.0);
    encode_stats(w);
    encode_tenant_stat(w, 1);
    encode_tenant_set_ratio(w, 0, 0.75);
    encode_put_neighbors(w, 0, 10, ids);
    encode_ping(w);
    encode_get_data(w, 0, 11, 2.0);

    const Op expected[] = {Op::kGet,        Op::kProbe,
                           Op::kMget,       Op::kPutScore,
                           Op::kStats,      Op::kTenantStat,
                           Op::kTenantSetRatio, Op::kPutNeighbors,
                           Op::kPing,       Op::kGetData};
    FrameDecoder decoder;
    decoder.feed(buf);
    EXPECT_EQ(decoder.buffered_frames(), std::size(expected));
    Frame frame;
    for (const Op op : expected) {
        ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
        EXPECT_EQ(static_cast<Op>(frame.b0), op) << to_string(op);
    }
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore);
    EXPECT_EQ(decoder.buffered_bytes(), 0U);
}

TEST(Protocol, ReplyRoundTrips) {
    {
        std::vector<std::uint8_t> buf;
        WireWriter w{buf};
        encode_get_reply(w, {ServeKind::kHomophilyHit, 42});
        const auto reply = decode_get_reply(buf);
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->kind, ServeKind::kHomophilyHit);
        EXPECT_EQ(reply->served_id, 42U);
    }
    {
        StatsReply in;
        in.conns_accepted = 11;
        in.frames = 1234;
        in.batches = 56;
        in.max_batch = 64;
        in.dropped_frames = 3;
        in.bytes_out = 999;
        std::vector<std::uint8_t> buf;
        WireWriter w{buf};
        encode_stats_reply(w, in);
        const auto out = decode_stats_reply(buf);
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->conns_accepted, in.conns_accepted);
        EXPECT_EQ(out->frames, in.frames);
        EXPECT_EQ(out->batches, in.batches);
        EXPECT_EQ(out->max_batch, in.max_batch);
        EXPECT_EQ(out->dropped_frames, in.dropped_frames);
        EXPECT_EQ(out->bytes_out, in.bytes_out);
    }
    {
        TenantStatReply in;
        in.capacity = 100;
        in.imp_capacity = 90;
        in.hom_capacity = 10;
        in.imp_size = 33;
        in.hits_importance = 7;
        in.imp_ratio = 0.9;
        std::vector<std::uint8_t> buf;
        WireWriter w{buf};
        encode_tenant_stat_reply(w, in);
        const auto out = decode_tenant_stat_reply(buf);
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->capacity, in.capacity);
        EXPECT_EQ(out->imp_capacity, in.imp_capacity);
        EXPECT_EQ(out->imp_size, in.imp_size);
        EXPECT_EQ(out->hits_importance, in.hits_importance);
        EXPECT_DOUBLE_EQ(out->imp_ratio, in.imp_ratio);
    }
    {
        // GET_DATA reply: the slim GetReply plus a length-prefixed blob.
        std::vector<std::uint8_t> buf;
        WireWriter w{buf};
        const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
        encode_get_data_reply(w, {{ServeKind::kMissSsd, 42}, payload});
        const auto out = decode_get_data_reply(buf);
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->base.kind, ServeKind::kMissSsd);
        EXPECT_EQ(out->base.served_id, 42U);
        EXPECT_EQ(out->payload, payload);
    }
    {
        // Empty payload is valid (server has no bytes for the id).
        std::vector<std::uint8_t> buf;
        WireWriter w{buf};
        encode_get_data_reply(w, {{ServeKind::kImportanceHit, 7}, {}});
        const auto out = decode_get_data_reply(buf);
        ASSERT_TRUE(out.has_value());
        EXPECT_TRUE(out->payload.empty());
    }
}

TEST(Protocol, WireReaderRejectsShortAndTrailing) {
    const std::uint8_t bytes[] = {1, 2, 3};
    {
        WireReader r{bytes};
        (void)r.u32();
        EXPECT_FALSE(r.ok());  // only 3 bytes available
        (void)r.u64();         // stays poisoned
        EXPECT_FALSE(r.ok());
    }
    {
        WireReader r{bytes};
        (void)r.u8();
        EXPECT_TRUE(r.ok());
        EXPECT_FALSE(r.done());  // trailing bytes = malformed payload
    }
    {
        const auto empty = decode_get_reply({});
        EXPECT_FALSE(empty.has_value());
    }
}

// ========================================================= frame decoding

TEST(FrameDecoder, ReassemblesAcrossArbitraryChunks) {
    // The exact frame stream must come out of the decoder no matter how
    // the byte stream is sliced — partial reads across read() boundaries
    // are the normal case on a busy socket.
    std::vector<std::uint8_t> stream;
    WireWriter w{stream};
    constexpr std::size_t kFrames = 37;
    for (std::uint32_t i = 0; i < kFrames; ++i) {
        encode_get(w, static_cast<std::uint8_t>(i % 5), i * 17,
                   static_cast<double>(i) * 0.5);
    }

    std::mt19937 rng{20260809};
    for (int round = 0; round < 50; ++round) {
        FrameDecoder decoder;
        std::size_t fed = 0;
        std::uint32_t seen = 0;
        std::uniform_int_distribution<std::size_t> chunk{1, 13};
        while (fed < stream.size() || decoder.buffered_bytes() > 0) {
            if (fed < stream.size()) {
                const std::size_t n =
                    std::min(chunk(rng), stream.size() - fed);
                decoder.feed({stream.data() + fed, n});
                fed += n;
            }
            Frame frame;
            while (decoder.next(frame) == FrameDecoder::Result::kFrame) {
                WireReader r{frame.payload};
                const std::uint32_t id = r.u32();
                const double score = r.f64();
                ASSERT_TRUE(r.done());
                EXPECT_EQ(static_cast<Op>(frame.b0), Op::kGet);
                EXPECT_EQ(frame.b1, seen % 5);
                EXPECT_EQ(id, seen * 17);
                EXPECT_DOUBLE_EQ(score, static_cast<double>(seen) * 0.5);
                ++seen;
            }
            if (fed == stream.size()) break;
        }
        EXPECT_EQ(seen, kFrames) << "round " << round;
        EXPECT_FALSE(decoder.poisoned());
    }
}

TEST(FrameDecoder, RejectsOversizedFrame) {
    std::vector<std::uint8_t> bytes(sizeof(std::uint32_t));
    const std::uint32_t len = kMaxFrameLen + 1;
    std::memcpy(bytes.data(), &len, sizeof len);
    FrameDecoder decoder;
    decoder.feed(bytes);
    Frame frame;
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kTooBig);
    EXPECT_TRUE(decoder.poisoned());
    // Poisoned decoders never recover, even when fed a valid frame.
    std::vector<std::uint8_t> valid;
    WireWriter w{valid};
    encode_ping(w);
    decoder.feed(valid);
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kMalformed);
}

TEST(FrameDecoder, RejectsLengthBelowHeader) {
    std::vector<std::uint8_t> bytes(sizeof(std::uint32_t));
    const std::uint32_t len = kHeaderLen - 1;
    std::memcpy(bytes.data(), &len, sizeof len);
    FrameDecoder decoder;
    decoder.feed(bytes);
    Frame frame;
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kMalformed);
    EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameDecoder, FuzzRandomBytesNeverMisbehave) {
    // Arbitrary garbage must produce only the four documented results and
    // never a crash, hang, or bogus giant allocation. Truncated prefixes
    // of valid frames are part of the soup.
    std::vector<std::uint8_t> valid;
    WireWriter w{valid};
    encode_get(w, 1, 99, 1.0);
    encode_stats(w);

    for (std::uint32_t seed = 0; seed < 200; ++seed) {
        std::mt19937 rng{seed};
        std::uniform_int_distribution<int> byte{0, 255};
        std::uniform_int_distribution<std::size_t> len{1, 64};
        FrameDecoder decoder;
        std::size_t frames = 0;
        for (int feeds = 0; feeds < 20; ++feeds) {
            std::vector<std::uint8_t> chunk(len(rng));
            if (seed % 3 == 0) {
                // Truncated valid frame prefix, then garbage.
                const std::size_t take = std::min(chunk.size(), valid.size());
                std::copy_n(valid.begin(), take, chunk.begin());
                for (std::size_t i = take; i < chunk.size(); ++i) {
                    chunk[i] = static_cast<std::uint8_t>(byte(rng));
                }
            } else {
                for (auto& b : chunk) {
                    b = static_cast<std::uint8_t>(byte(rng));
                }
            }
            decoder.feed(chunk);
            Frame frame;
            FrameDecoder::Result r;
            while ((r = decoder.next(frame)) == FrameDecoder::Result::kFrame) {
                EXPECT_LE(frame.payload.size(), kMaxFrameLen);
                ++frames;
                ASSERT_LT(frames, 10000U);
            }
            if (decoder.poisoned()) break;
        }
        EXPECT_LE(decoder.buffered_bytes(), kMaxFrameLen + 64);
    }
}

// ============================================================ live server

class ServerWire : public ::testing::Test {
protected:
    void start(ServerConfig config, MissFetchFn miss_fetch = {},
               PayloadReadFn payload_read = {}) {
        config.port = 0;  // ephemeral
        server_ = std::make_unique<SpiderServer>(std::move(config),
                                                 std::move(miss_fetch),
                                                 std::move(payload_read));
        server_->start();
    }

    Client connect() {
        Client c;
        c.connect("127.0.0.1", server_->port());
        return c;
    }

    std::unique_ptr<SpiderServer> server_;
};

TEST_F(ServerWire, MissAdmitThenImportanceHit) {
    start(ServerConfig{.cache_items = 64});
    Client c = connect();
    const GetReply first = c.get(0, 7, 1.0);
    EXPECT_EQ(first.kind, ServeKind::kMissAdmitted);
    EXPECT_EQ(first.served_id, 7U);
    const GetReply second = c.get(0, 7, 1.0);
    EXPECT_EQ(second.kind, ServeKind::kImportanceHit);
    EXPECT_EQ(second.served_id, 7U);

    const StatsReply stats = c.stats();
    EXPECT_EQ(stats.gets, 2U);
    EXPECT_EQ(stats.errors, 0U);
    EXPECT_EQ(stats.in_flight, 0U);
}

TEST_F(ServerWire, ProbeReflectsResidency) {
    start(ServerConfig{.cache_items = 64});
    Client c = connect();
    EXPECT_FALSE(c.probe(0, 5));
    (void)c.get(0, 5, 1.0);
    EXPECT_TRUE(c.probe(0, 5));
    EXPECT_EQ(c.stats().probes, 2U);
}

TEST_F(ServerWire, PutScoreAndTenantStat) {
    start(ServerConfig{.cache_items = 100});
    Client c = connect();
    (void)c.get(0, 1, 1.0);
    c.put_score(0, 1, 9.0);
    // The refresh re-keyed the resident entry in tenant 0's cache.
    const auto frozen = server_->tenants().cache(0).freeze();
    std::vector<std::pair<std::uint32_t, double>> residents;
    for (const auto& shard : frozen.shards) {
        residents.insert(residents.end(), shard.importance.begin(),
                         shard.importance.end());
    }
    EXPECT_EQ(residents,
              (std::vector<std::pair<std::uint32_t, double>>{{1, 9.0}}));

    const TenantStatReply t = c.tenant_stat(0);
    EXPECT_EQ(t.capacity, 100U);
    EXPECT_EQ(t.admitted, 1U);
    EXPECT_EQ(t.misses, 1U);
    EXPECT_EQ(t.imp_size, 1U);
}

TEST_F(ServerWire, MgetServesWholeVector) {
    start(ServerConfig{.cache_items = 256});
    Client c = connect();
    std::vector<std::uint32_t> ids;
    std::vector<double> scores;
    for (std::uint32_t i = 0; i < 50; ++i) {
        ids.push_back(i);
        scores.push_back(1.0 + i);
    }
    const std::vector<GetReply> cold = c.mget(0, ids, scores);
    ASSERT_EQ(cold.size(), ids.size());
    for (const GetReply& r : cold) {
        EXPECT_EQ(r.kind, ServeKind::kMissAdmitted);
    }
    const std::vector<GetReply> warm = c.mget(0, ids, scores);
    ASSERT_EQ(warm.size(), ids.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(warm[i].kind, ServeKind::kImportanceHit);
        EXPECT_EQ(warm[i].served_id, ids[i]);
    }
    const StatsReply stats = c.stats();
    EXPECT_EQ(stats.mget_keys, 100U);
}

TEST_F(ServerWire, TenantSetRatioRepartitions) {
    start(ServerConfig{.cache_items = 100});
    Client c = connect();
    const double applied = c.tenant_set_ratio(0, 0.5);
    EXPECT_NEAR(applied, 0.5, 0.02);
    const TenantStatReply t = c.tenant_stat(0);
    EXPECT_NEAR(static_cast<double>(t.imp_capacity), 50.0, 2.0);
    EXPECT_LE(t.imp_capacity + t.hom_capacity, t.capacity);
}

TEST_F(ServerWire, PutNeighborsServesSurrogate) {
    start(ServerConfig{.cache_items = 100});
    Client c = connect();
    // Admit a surrogate key into the homophily section, listing 77 as its
    // neighbor; a GET of 77 must then be served the surrogate (Case 3).
    const std::vector<std::uint32_t> neighbors{77, 78};
    (void)c.put_neighbors(0, 5, neighbors);
    const GetReply r = c.get(0, 77, 0.1);
    EXPECT_EQ(r.kind, ServeKind::kHomophilyHit);
    EXPECT_EQ(r.served_id, 5U);
}

TEST_F(ServerWire, PingAndMultiTenantStats) {
    ServerConfig config;
    config.cache_items = 100;
    config.tenants = {TenantSpec{.capacity_pct = 60.0, .imp_ratio = 0.9},
                      TenantSpec{.capacity_pct = 40.0, .imp_ratio = 0.5}};
    start(config);
    Client c = connect();
    c.ping();
    EXPECT_EQ(c.tenant_stat(0).capacity, 60U);
    EXPECT_EQ(c.tenant_stat(1).capacity, 40U);
    // Tenant namespaces are disjoint: the same id misses per tenant.
    EXPECT_EQ(c.get(0, 1, 1.0).kind, ServeKind::kMissAdmitted);
    EXPECT_EQ(c.get(1, 1, 1.0).kind, ServeKind::kMissAdmitted);
    EXPECT_EQ(c.get(1, 1, 1.0).kind, ServeKind::kImportanceHit);
}

TEST_F(ServerWire, UnknownOpcodeRejectedConnectionSurvives) {
    start(ServerConfig{.cache_items = 64});
    Client c = connect();
    std::vector<std::uint8_t> raw;
    WireWriter w{raw};
    const auto off = w.begin_frame(/*op=*/0xEE, /*tenant=*/0);
    w.end_frame(off);
    write_raw(c.fd(), raw);

    const auto reply = read_upto(c.fd(), sizeof(std::uint32_t) + kHeaderLen);
    ASSERT_EQ(reply.size(), sizeof(std::uint32_t) + kHeaderLen);
    EXPECT_EQ(static_cast<Status>(reply[5]), Status::kBadOp);
    // Well-formed frame, bad op: the stream is still framable, so the
    // connection lives on.
    c.ping();
    EXPECT_EQ(c.stats().errors, 1U);
}

TEST_F(ServerWire, BadTenantRejected) {
    start(ServerConfig{.cache_items = 64});  // 1 tenant
    Client c = connect();
    c.queue_get(/*tenant=*/7, 1, 1.0);
    const std::vector<Response> replies = c.flush();
    ASSERT_EQ(replies.size(), 1U);
    EXPECT_EQ(replies[0].status, Status::kBadTenant);
    c.ping();  // connection survives
}

TEST_F(ServerWire, TruncatedAndOverlongPayloadsRejected) {
    start(ServerConfig{.cache_items = 64});
    Client c = connect();
    std::vector<std::uint8_t> raw;
    WireWriter w{raw};
    // GET with a 2-byte payload (needs 12).
    auto off = w.begin_frame(static_cast<std::uint8_t>(Op::kGet), 0);
    w.u16(0xABCD);
    w.end_frame(off);
    // GET with one trailing garbage byte.
    off = w.begin_frame(static_cast<std::uint8_t>(Op::kGet), 0);
    w.u32(1);
    w.f64(1.0);
    w.u8(0x5A);
    w.end_frame(off);
    write_raw(c.fd(), raw);

    const std::size_t frame = sizeof(std::uint32_t) + kHeaderLen;
    const auto replies = read_upto(c.fd(), 2 * frame);
    ASSERT_EQ(replies.size(), 2 * frame);
    EXPECT_EQ(static_cast<Status>(replies[5]), Status::kBadPayload);
    EXPECT_EQ(static_cast<Status>(replies[frame + 5]), Status::kBadPayload);
    c.ping();
    EXPECT_EQ(c.stats().errors, 2U);
}

TEST_F(ServerWire, OversizedFrameRepliesThenCloses) {
    start(ServerConfig{.cache_items = 64});
    Client c = connect();
    std::vector<std::uint8_t> raw(sizeof(std::uint32_t) + 16, 0);
    const std::uint32_t len = kMaxFrameLen + 1;
    std::memcpy(raw.data(), &len, sizeof len);
    write_raw(c.fd(), raw);

    // Exactly one kFrameTooBig error frame, then EOF: the stream cannot
    // be re-framed, so the server hangs up.
    const std::size_t frame = sizeof(std::uint32_t) + kHeaderLen;
    const auto reply = read_upto(c.fd(), frame + 1);
    ASSERT_EQ(reply.size(), frame);
    EXPECT_EQ(static_cast<Status>(reply[5]), Status::kFrameTooBig);
    ASSERT_TRUE(eventually([&] { return server_->stats().conns_open == 0; }));
    // The listener is unharmed.
    Client again = connect();
    again.ping();
}

TEST_F(ServerWire, PartialFramesAcrossReadBoundaries) {
    start(ServerConfig{.cache_items = 64});
    Client c = connect();
    std::vector<std::uint8_t> raw;
    WireWriter w{raw};
    encode_get(w, 0, 123, 1.0);
    // Dribble the frame one byte at a time; every write lands as its own
    // read() on the server, exercising reassembly (not just the decoder
    // unit test — the real event-loop path).
    for (const std::uint8_t byte : raw) {
        write_raw(c.fd(), {&byte, 1});
        std::this_thread::sleep_for(1ms);
    }
    const std::size_t frame =
        sizeof(std::uint32_t) + kHeaderLen + /*GetReply*/ 5;
    const auto reply = read_upto(c.fd(), frame);
    ASSERT_EQ(reply.size(), frame);
    EXPECT_EQ(static_cast<Status>(reply[5]), Status::kOk);
    const auto decoded = decode_get_reply(
        {reply.data() + 8, reply.size() - 8});
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kind, ServeKind::kMissAdmitted);
    EXPECT_EQ(decoded->served_id, 123U);
}

TEST_F(ServerWire, MalformedStreamFuzzServerSurvives) {
    start(ServerConfig{.cache_items = 64});
    for (std::uint32_t seed = 0; seed < 20; ++seed) {
        std::mt19937 rng{seed};
        std::uniform_int_distribution<int> byte{0, 255};
        std::uniform_int_distribution<std::size_t> len{1, 512};
        Client c = connect();
        std::vector<std::uint8_t> garbage(len(rng));
        for (auto& b : garbage) {
            b = static_cast<std::uint8_t>(byte(rng));
        }
        write_raw(c.fd(), garbage);
        c.close();
    }
    // Whatever the garbage decoded to, the server must still be standing
    // and every fuzz connection must be fully reaped.
    ASSERT_TRUE(eventually([&] { return server_->stats().conns_open == 0; }));
    Client c = connect();
    c.ping();
    EXPECT_EQ(c.get(0, 1, 1.0).kind, ServeKind::kMissAdmitted);
    EXPECT_EQ(server_->stats().in_flight, 0U);
}

TEST_F(ServerWire, PipelinedFlushAnswersInOrderWithBatching) {
    start(ServerConfig{.cache_items = 256});
    Client c = connect();
    constexpr std::uint32_t kDepth = 64;
    for (std::uint32_t i = 0; i < kDepth; ++i) {
        c.queue_get(0, i, 1.0 + i);
    }
    EXPECT_EQ(c.queued(), kDepth);
    const std::vector<Response> replies = c.flush();
    ASSERT_EQ(replies.size(), kDepth);
    for (std::uint32_t i = 0; i < kDepth; ++i) {
        EXPECT_EQ(replies[i].status, Status::kOk);
        const auto r = decode_get_reply(replies[i].payload);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->served_id, i) << "responses must come back in order";
    }
    const StatsReply stats = c.stats();
    EXPECT_EQ(stats.frames, kDepth);
    // One 1280-byte write on loopback lands in far fewer drain passes
    // than frames — the batching the netbench headline is built on.
    EXPECT_LT(stats.batches, stats.frames);
    EXPECT_GE(stats.max_batch, 8U);
    EXPECT_EQ(stats.in_flight, 0U);
}

TEST_F(ServerWire, MaxPipelineBoundsBatchSize) {
    ServerConfig config;
    config.cache_items = 256;
    config.max_pipeline = 8;
    start(config);
    Client c = connect();
    constexpr std::uint32_t kDepth = 100;
    for (std::uint32_t i = 0; i < kDepth; ++i) {
        c.queue_get(0, i, 1.0);
    }
    const std::vector<Response> replies = c.flush();
    ASSERT_EQ(replies.size(), kDepth);
    const StatsReply stats = server_->stats();
    EXPECT_EQ(stats.frames, kDepth);
    EXPECT_LE(stats.max_batch, 8U);  // chunking honors max_pipeline
    EXPECT_GE(stats.batches, kDepth / 8);
}

TEST_F(ServerWire, DisconnectMidPipelineLeaksNothing) {
    start(ServerConfig{.cache_items = 256});
    constexpr std::uint32_t kDepth = 50;
    {
        Client c = connect();
        for (std::uint32_t i = 0; i < kDepth; ++i) {
            c.queue_get(0, i, 1.0);
        }
        c.send_only();
        c.close();  // vanish without reading a single response
    }
    ASSERT_TRUE(eventually([&] { return server_->stats().conns_open == 0; }));
    const StatsReply stats = server_->stats();
    // Every decoded frame was either fully serviced or counted dropped at
    // close — never left in a half-serviced in-flight slot.
    EXPECT_EQ(stats.in_flight, 0U);
    EXPECT_LE(stats.frames + stats.dropped_frames, kDepth);
    // The server keeps serving. (Whether id 1's frame was serviced before
    // the hangup is a race; only the serve itself is asserted.)
    Client again = connect();
    again.ping();
    EXPECT_NE(again.get(0, 1, 1.0).kind, ServeKind::kFetchFailed);
}

TEST_F(ServerWire, FetchFailureReportedNotAdmitted) {
    std::atomic<int> calls{0};
    start(ServerConfig{.cache_items = 64},
          [&](std::uint8_t, std::uint32_t, storage::SimDuration) {
              calls.fetch_add(1);
              return MissOutcome{.ok = false, .from_ssd = false};
          });
    Client c = connect();
    const GetReply r = c.get(0, 9, 1.0);
    EXPECT_EQ(r.kind, ServeKind::kFetchFailed);
    EXPECT_EQ(calls.load(), 1);
    EXPECT_FALSE(c.probe(0, 9));  // nothing admitted
    EXPECT_EQ(c.tenant_stat(0).admitted, 0U);
}

TEST_F(ServerWire, MgetPartialFetchFailureIsPerId) {
    // A peer/backing store that browns out for some ids must not poison
    // the rest of the vector: each id carries its own status and the
    // connection keeps serving afterwards.
    start(ServerConfig{.cache_items = 64},
          [](std::uint8_t, std::uint32_t id, storage::SimDuration) {
              return MissOutcome{.ok = id % 2 == 0, .from_ssd = false};
          });
    Client c = connect();
    std::vector<std::uint32_t> ids;
    std::vector<double> scores;
    for (std::uint32_t i = 0; i < 20; ++i) {
        ids.push_back(i);
        scores.push_back(1.0);
    }
    const std::vector<GetReply> cold = c.mget(0, ids, scores);
    ASSERT_EQ(cold.size(), ids.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_EQ(cold[i].kind, ids[i] % 2 == 0 ? ServeKind::kMissAdmitted
                                                : ServeKind::kFetchFailed)
            << "id " << ids[i];
    }
    // Failed ids were not admitted; successful ones were.
    EXPECT_FALSE(c.probe(0, 1));
    EXPECT_TRUE(c.probe(0, 2));

    // The connection is still healthy: a warm re-mget hits the admitted
    // half and re-reports the failing half, id by id.
    c.ping();
    const std::vector<GetReply> warm = c.mget(0, ids, scores);
    ASSERT_EQ(warm.size(), ids.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(warm[i].kind, ids[i] % 2 == 0 ? ServeKind::kImportanceHit
                                                : ServeKind::kFetchFailed)
            << "id " << ids[i];
    }
    EXPECT_EQ(c.stats().errors, 0U);  // fetch failures are not protocol errors
}

TEST_F(ServerWire, SsdServePathReported) {
    start(ServerConfig{.cache_items = 64},
          [](std::uint8_t, std::uint32_t, storage::SimDuration) {
              return MissOutcome{.ok = true, .from_ssd = true};
          });
    Client c = connect();
    EXPECT_EQ(c.get(0, 3, 1.0).kind, ServeKind::kMissSsd);
    // SSD-served samples are still admitted; next access is a memory hit.
    EXPECT_EQ(c.get(0, 3, 1.0).kind, ServeKind::kImportanceHit);
}

TEST_F(ServerWire, GetDataReturnsMissPayloadThenMemoryHookBytes) {
    // GET_DATA is GET plus the sample's bytes: a miss returns whatever
    // the miss path fetched; a memory hit goes through the payload_read
    // hook (the in-memory cache tracks residency, not bytes).
    const auto fetched_bytes = [](std::uint32_t id) {
        return std::vector<std::uint8_t>{static_cast<std::uint8_t>(id),
                                         0xBE, 0xEF};
    };
    const auto hook_bytes = [](std::uint32_t id) {
        return std::vector<std::uint8_t>{static_cast<std::uint8_t>(id),
                                         0xCA, 0xFE};
    };
    start(
        ServerConfig{.cache_items = 64},
        [&](std::uint8_t, std::uint32_t id, storage::SimDuration) {
            return MissOutcome{.ok = true, .from_ssd = false,
                               .payload = fetched_bytes(id)};
        },
        [&](std::uint8_t, std::uint32_t id) { return hook_bytes(id); });
    Client c = connect();
    const GetDataReply cold = c.get_data(0, 7, 1.0);
    EXPECT_EQ(cold.base.kind, ServeKind::kMissAdmitted);
    EXPECT_EQ(cold.base.served_id, 7U);
    EXPECT_EQ(cold.payload, fetched_bytes(7));
    const GetDataReply warm = c.get_data(0, 7, 1.0);
    EXPECT_EQ(warm.base.kind, ServeKind::kImportanceHit);
    EXPECT_EQ(warm.payload, hook_bytes(7));
    // Plain GET still answers with the slim reply on the same stream.
    EXPECT_EQ(c.get(0, 7, 1.0).kind, ServeKind::kImportanceHit);
}

TEST_F(ServerWire, GetDataServesStoredBytesFromBlockModeSsd) {
    // End to end through a real block store: the miss path writes the
    // fetched bytes back to the SSD tier; after memory eviction the next
    // GET_DATA is served those exact bytes off the segment file.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("spider_server_getdata_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    storage::SsdTierConfig tier_config;
    tier_config.enabled = true;
    tier_config.capacity_items = 0;
    tier_config.path = dir.string();
    storage::SsdTier ssd{tier_config};

    const auto remote_bytes = [](std::uint32_t id) {
        std::vector<std::uint8_t> out(32);
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] = static_cast<std::uint8_t>(id * 7 + i);
        }
        return out;
    };
    start(ServerConfig{.cache_items = 1},  // memory churns immediately
          [&](std::uint8_t, std::uint32_t id, storage::SimDuration) {
              if (auto payload = ssd.fetch_payload(id)) {
                  return MissOutcome{.ok = true, .from_ssd = true,
                                     .payload = std::move(*payload)};
              }
              auto payload = remote_bytes(id);
              ssd.insert(id, payload);
              return MissOutcome{.ok = true, .from_ssd = false,
                                 .payload = std::move(payload)};
          });
    Client c = connect();
    const GetDataReply first = c.get_data(0, 11, 1.0);
    EXPECT_EQ(first.base.kind, ServeKind::kMissAdmitted);
    EXPECT_EQ(first.payload, remote_bytes(11));
    // Evict 11 from the 1-item memory cache: higher-scored ids win the
    // importance section.
    for (std::uint32_t id = 12; id < 16; ++id) {
        (void)c.get(0, id, 100.0 + id);
    }
    ASSERT_FALSE(c.probe(0, 11));
    const GetDataReply ssd_hit = c.get_data(0, 11, 1.0);
    EXPECT_EQ(ssd_hit.base.kind, ServeKind::kMissSsd);
    EXPECT_EQ(ssd_hit.payload, remote_bytes(11));
    EXPECT_GT(ssd.block_stats().read_hits, 0U);
    server_->stop();
    std::filesystem::remove_all(dir);
}

TEST_F(ServerWire, ManyConcurrentClients) {
    start(ServerConfig{.cache_items = 1024});
    constexpr int kClients = 32;
    constexpr std::uint32_t kOps = 40;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    threads.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            try {
                Client c;
                c.connect("127.0.0.1", server_->port());
                for (std::uint32_t i = 0; i < kOps; ++i) {
                    c.queue_get(0, (static_cast<std::uint32_t>(t) * kOps + i) %
                                       512,
                                1.0);
                }
                const auto replies = c.flush();
                if (replies.size() != kOps) failures.fetch_add(1);
                for (const Response& r : replies) {
                    if (r.status != Status::kOk) failures.fetch_add(1);
                }
            } catch (const std::exception&) {
                failures.fetch_add(1);
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    const StatsReply stats = server_->stats();
    EXPECT_EQ(stats.frames, static_cast<std::uint64_t>(kClients) * kOps);
    EXPECT_EQ(stats.in_flight, 0U);
    EXPECT_EQ(stats.conns_accepted, kClients);
}

// ==================================================== simulator front-end

TEST(ServedSimulator, TrainingRunsAgainstLiveServer) {
    // The whole sim loop — sampler, epochs, metrics — driven through the
    // wire instead of an in-process cache. The server runs cache-only
    // (no MissFetchFn): miss costs are charged once, by the simulator.
    ServerConfig config;
    config.port = 0;
    config.cache_items = 200;
    SpiderServer server{config};
    server.start();

    sim::SimConfig sim_config;
    sim_config.dataset = data::cifar10_like(0.02, 42);
    sim_config.strategy = sim::StrategyKind::kBaselineLru;
    sim_config.epochs = 2;
    sim_config.served_port = server.port();
    const auto result = sim::TrainingSimulator{sim_config}.run();

    ASSERT_EQ(result.epochs.size(), 2U);
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    for (const auto& epoch : result.epochs) {
        accesses += epoch.accesses;
        hits += epoch.hits;
        EXPECT_EQ(epoch.hits + epoch.misses, epoch.accesses);
    }
    EXPECT_GT(accesses, 0U);
    // Epoch 2 re-visits every sample; with a 20% slice some must hit.
    EXPECT_GT(hits, 0U);
    // Every simulator access crossed the wire.
    const StatsReply stats = server.stats();
    EXPECT_GE(stats.gets, accesses);
    EXPECT_EQ(stats.in_flight, 0U);
    server.stop();
}

}  // namespace
}  // namespace spider::server

#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace spider::server {

namespace {

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

SpiderServer::SpiderServer(ServerConfig config, MissFetchFn miss_fetch,
                           PayloadReadFn payload_read)
    : config_{std::move(config)},
      miss_fetch_{std::move(miss_fetch)},
      payload_read_{std::move(payload_read)},
      tenants_{config_.cache_items, config_.tenants, config_.cache_shards,
               config_.lockfree_reads} {}

SpiderServer::~SpiderServer() { stop(); }

void SpiderServer::start() {
    if (running_.load(std::memory_order_acquire)) return;

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        throw std::runtime_error{"SpiderServer: socket() failed"};
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error{"SpiderServer: bad host '" + config_.host +
                                 "'"};
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error{"SpiderServer: bind() failed: " +
                                 std::string{std::strerror(errno)}};
    }
    if (::listen(listen_fd_, 512) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error{"SpiderServer: listen() failed"};
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len);
    bound_port_ = ntohs(bound.sin_port);
    set_nonblocking(listen_fd_);

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error{"SpiderServer: pipe() failed"};
    }
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
    set_nonblocking(wake_read_fd_);
    set_nonblocking(wake_write_fd_);

    start_time_ = std::chrono::steady_clock::now();
    running_.store(true, std::memory_order_release);
    loop_ = std::thread{[this] { run_loop(); }};
}

void SpiderServer::stop() {
    if (running_.exchange(false, std::memory_order_acq_rel)) {
        const char byte = 'x';
        [[maybe_unused]] const auto n = ::write(wake_write_fd_, &byte, 1);
    }
    if (loop_.joinable()) loop_.join();
    for (auto& [fd, conn] : conns_) {
        dropped_frames_.fetch_add(conn.decoder.buffered_frames(),
                                  std::memory_order_relaxed);
        ::close(fd);
    }
    conns_.clear();
    conns_open_.store(0, std::memory_order_relaxed);
    for (int* fd : {&listen_fd_, &wake_read_fd_, &wake_write_fd_}) {
        if (*fd >= 0) {
            ::close(*fd);
            *fd = -1;
        }
    }
}

storage::SimDuration SpiderServer::virtual_now() const {
    return std::chrono::duration_cast<storage::SimDuration>(
        std::chrono::steady_clock::now() - start_time_);
}

void SpiderServer::run_loop() {
    std::vector<pollfd> fds;
    std::vector<int> dead;
    while (running_.load(std::memory_order_acquire)) {
        fds.clear();
        fds.push_back({listen_fd_, POLLIN, 0});
        fds.push_back({wake_read_fd_, POLLIN, 0});
        for (const auto& [fd, conn] : conns_) {
            short events = conn.closing ? 0 : POLLIN;
            if (conn.want_write) events |= POLLOUT;
            fds.push_back({fd, events, 0});
        }

        const int ready = ::poll(fds.data(), fds.size(), 100);
        if (!running_.load(std::memory_order_acquire)) break;
        if (ready <= 0) continue;

        if ((fds[1].revents & POLLIN) != 0) {
            char sink[64];
            while (::read(wake_read_fd_, sink, sizeof sink) > 0) {
            }
        }
        if ((fds[0].revents & POLLIN) != 0) accept_ready();

        dead.clear();
        for (std::size_t i = 2; i < fds.size(); ++i) {
            const pollfd& p = fds[i];
            if (p.revents == 0) continue;
            const auto it = conns_.find(p.fd);
            if (it == conns_.end()) continue;
            Conn& conn = it->second;
            bool alive = true;
            if ((p.revents & (POLLERR | POLLNVAL)) != 0) {
                alive = false;
            }
            if (alive && (p.revents & POLLOUT) != 0) {
                alive = flush(conn);
            }
            if (alive && (p.revents & (POLLIN | POLLHUP)) != 0 &&
                !conn.closing) {
                alive = handle_readable(conn);
            }
            // A poisoned/erroring connection closes once its error reply
            // has drained (or immediately if the flush already failed).
            if (alive && conn.closing && !conn.want_write) alive = false;
            if (!alive) dead.push_back(p.fd);
        }
        for (const int fd : dead) close_conn(fd);
    }
}

void SpiderServer::accept_ready() {
    while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        set_nonblocking(fd);
        set_nodelay(fd);
        Conn conn;
        conn.fd = fd;
        conns_.emplace(fd, std::move(conn));
        conns_accepted_.fetch_add(1, std::memory_order_relaxed);
        conns_open_.fetch_add(1, std::memory_order_relaxed);
    }
}

bool SpiderServer::handle_readable(Conn& conn) {
    // Drain the socket to EAGAIN so every pipelined frame already on the
    // wire lands in the decoder before we start servicing.
    std::uint8_t buf[64 * 1024];
    bool eof = false;
    while (true) {
        const ssize_t n = ::read(conn.fd, buf, sizeof buf);
        if (n > 0) {
            bytes_in_.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
            conn.decoder.feed({buf, static_cast<std::size_t>(n)});
            continue;
        }
        if (n == 0) {
            eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;  // fatal read error
    }

    // Service everything buffered, one bounded chunk + gathered flush at
    // a time, so a deep pipeline still produces few large writes without
    // letting wbuf grow unboundedly.
    while (true) {
        const std::size_t serviced = service_chunk(conn);
        if (serviced == 0) break;
        batches_.fetch_add(1, std::memory_order_relaxed);
        if (serviced == 1) {
            single_frame_batches_.fetch_add(1, std::memory_order_relaxed);
        }
        std::uint64_t prev = max_batch_.load(std::memory_order_relaxed);
        while (prev < serviced &&
               !max_batch_.compare_exchange_weak(prev, serviced,
                                                 std::memory_order_relaxed)) {
        }
        if (!flush(conn)) return false;
        if (conn.closing) break;
    }
    if (eof) {
        // Client went away mid-pipeline: whatever it still had buffered
        // is dropped, never half-serviced (no leaked in-flight slots).
        dropped_frames_.fetch_add(conn.decoder.buffered_frames(),
                                  std::memory_order_relaxed);
        return false;
    }
    return true;
}

std::size_t SpiderServer::service_chunk(Conn& conn) {
    std::size_t serviced = 0;
    Frame frame;
    while (serviced < config_.max_pipeline && !conn.closing) {
        const FrameDecoder::Result r = conn.decoder.next(frame);
        if (r == FrameDecoder::Result::kNeedMore) break;
        if (r == FrameDecoder::Result::kTooBig ||
            r == FrameDecoder::Result::kMalformed) {
            // The stream can no longer be framed: tell the peer once,
            // then close after the reply drains.
            error_reply(conn, static_cast<Op>(0),
                        r == FrameDecoder::Result::kTooBig
                            ? Status::kFrameTooBig
                            : Status::kBadPayload);
            conn.closing = true;
            ++serviced;
            break;
        }
        frames_decoded_.fetch_add(1, std::memory_order_relaxed);
        process_frame(conn, frame);
        frames_answered_.fetch_add(1, std::memory_order_relaxed);
        ++serviced;
    }
    return serviced;
}

void SpiderServer::error_reply(Conn& conn, Op op, Status status) {
    WireWriter w{conn.wbuf};
    const auto off = w.begin_frame(static_cast<std::uint8_t>(op),
                                   static_cast<std::uint8_t>(status));
    w.end_frame(off);
    errors_.fetch_add(1, std::memory_order_relaxed);
}

void SpiderServer::process_frame(Conn& conn, const Frame& frame) {
    const Op op = static_cast<Op>(frame.b0);
    const std::uint8_t tenant = frame.b1;
    WireWriter w{conn.wbuf};
    WireReader r{frame.payload};

    const auto needs_tenant = [&]() -> bool {
        switch (op) {
            case Op::kGet:
            case Op::kProbe:
            case Op::kMget:
            case Op::kPutScore:
            case Op::kTenantStat:
            case Op::kTenantSetRatio:
            case Op::kPutNeighbors:
            case Op::kGetData:
                return true;
            case Op::kStats:
            case Op::kPing:
                return false;
        }
        return false;
    };
    switch (op) {
        case Op::kGet:
        case Op::kProbe:
        case Op::kMget:
        case Op::kPutScore:
        case Op::kStats:
        case Op::kTenantStat:
        case Op::kTenantSetRatio:
        case Op::kPutNeighbors:
        case Op::kPing:
        case Op::kGetData:
            break;
        default:
            error_reply(conn, op, Status::kBadOp);
            return;
    }
    if (needs_tenant() && !tenants_.valid_tenant(tenant)) {
        error_reply(conn, op, Status::kBadTenant);
        return;
    }

    // `payload_out` non-null = GET_DATA: memory hits read bytes through
    // the payload hook, misses carry whatever the backing fetch returned
    // (the SSD block store's bytes on an SSD hit).
    const auto serve_one = [&](std::uint32_t id, double score,
                               std::vector<std::uint8_t>* payload_out =
                                   nullptr) -> GetReply {
        GetReply reply;
        const cache::Lookup hit = tenants_.lookup(tenant, id);
        if (hit.kind == cache::HitKind::kImportance ||
            hit.kind == cache::HitKind::kHomophily) {
            reply.kind = hit.kind == cache::HitKind::kImportance
                             ? ServeKind::kImportanceHit
                             : ServeKind::kHomophilyHit;
            reply.served_id = hit.served_id;
            if (payload_out != nullptr && payload_read_) {
                *payload_out = payload_read_(tenant, reply.served_id);
            }
            return reply;
        }
        MissOutcome outcome;
        if (miss_fetch_) outcome = miss_fetch_(tenant, id, virtual_now());
        if (!outcome.ok) {
            reply.kind = ServeKind::kFetchFailed;
            reply.served_id = id;
            return reply;
        }
        if (payload_out != nullptr) {
            *payload_out = std::move(outcome.payload);
        }
        const bool admitted = tenants_.admit_after_fetch(tenant, id, score);
        reply.kind = outcome.from_ssd
                         ? ServeKind::kMissSsd
                         : (admitted ? ServeKind::kMissAdmitted
                                     : ServeKind::kMissRejected);
        reply.served_id = id;
        return reply;
    };

    switch (op) {
        case Op::kGet: {
            const std::uint32_t id = r.u32();
            const double score = r.f64();
            if (!r.done() || !std::isfinite(score)) {
                error_reply(conn, op, Status::kBadPayload);
                return;
            }
            gets_.fetch_add(1, std::memory_order_relaxed);
            const GetReply reply = serve_one(id, score);
            const auto off = w.begin_frame(
                frame.b0, static_cast<std::uint8_t>(Status::kOk));
            encode_get_reply(w, reply);
            w.end_frame(off);
            return;
        }
        case Op::kGetData: {
            const std::uint32_t id = r.u32();
            const double score = r.f64();
            if (!r.done() || !std::isfinite(score)) {
                error_reply(conn, op, Status::kBadPayload);
                return;
            }
            gets_.fetch_add(1, std::memory_order_relaxed);
            std::vector<std::uint8_t> payload;
            const GetReply reply = serve_one(id, score, &payload);
            // Keep the response frameable: an oversized sample degrades
            // to a payload-less reply rather than poisoning the stream.
            if (payload.size() > kMaxFrameLen - 64) payload.clear();
            const auto off = w.begin_frame(
                frame.b0, static_cast<std::uint8_t>(Status::kOk));
            encode_get_reply(w, reply);
            w.u32(static_cast<std::uint32_t>(payload.size()));
            w.blob(payload);
            w.end_frame(off);
            return;
        }
        case Op::kProbe: {
            const std::uint32_t id = r.u32();
            if (!r.done()) {
                error_reply(conn, op, Status::kBadPayload);
                return;
            }
            probes_.fetch_add(1, std::memory_order_relaxed);
            const auto off = w.begin_frame(
                frame.b0, static_cast<std::uint8_t>(Status::kOk));
            w.u8(tenants_.probe(tenant, id) ? 1 : 0);
            w.end_frame(off);
            return;
        }
        case Op::kMget: {
            const std::uint16_t n = r.u16();
            if (!r.ok() || n > kMaxMgetKeys) {
                error_reply(conn, op, Status::kBadPayload);
                return;
            }
            // One pass over the sharded cache for the whole vector — the
            // server-side half of the batching story.
            std::vector<GetReply> replies;
            replies.reserve(n);
            std::vector<std::pair<std::uint32_t, double>> keys;
            keys.reserve(n);
            bool finite = true;
            for (std::uint16_t i = 0; i < n; ++i) {
                const std::uint32_t id = r.u32();
                const double score = r.f64();
                finite = finite && std::isfinite(score);
                keys.emplace_back(id, score);
            }
            if (!r.done() || !finite) {
                error_reply(conn, op, Status::kBadPayload);
                return;
            }
            for (const auto& [id, score] : keys) {
                replies.push_back(serve_one(id, score));
            }
            gets_.fetch_add(n, std::memory_order_relaxed);
            mget_keys_.fetch_add(n, std::memory_order_relaxed);
            const auto off = w.begin_frame(
                frame.b0, static_cast<std::uint8_t>(Status::kOk));
            w.u16(n);
            for (const GetReply& reply : replies) encode_get_reply(w, reply);
            w.end_frame(off);
            return;
        }
        case Op::kPutScore: {
            const std::uint32_t id = r.u32();
            const double score = r.f64();
            if (!r.done() || !std::isfinite(score)) {
                error_reply(conn, op, Status::kBadPayload);
                return;
            }
            put_scores_.fetch_add(1, std::memory_order_relaxed);
            tenants_.put_score(tenant, id, score);
            const auto off = w.begin_frame(
                frame.b0, static_cast<std::uint8_t>(Status::kOk));
            w.end_frame(off);
            return;
        }
        case Op::kStats: {
            StatsReply s = stats();
            // The STATS frame itself is decoded but not yet answered at
            // this point; it is not "in flight" from the peer's view.
            if (s.in_flight > 0) --s.in_flight;
            const auto off = w.begin_frame(
                frame.b0, static_cast<std::uint8_t>(Status::kOk));
            encode_stats_reply(w, s);
            w.end_frame(off);
            return;
        }
        case Op::kTenantStat: {
            if (!r.done()) {
                error_reply(conn, op, Status::kBadPayload);
                return;
            }
            const auto off = w.begin_frame(
                frame.b0, static_cast<std::uint8_t>(Status::kOk));
            encode_tenant_stat_reply(w, tenants_.stats(tenant));
            w.end_frame(off);
            return;
        }
        case Op::kTenantSetRatio: {
            const double ratio = r.f64();
            if (!r.done() || !std::isfinite(ratio)) {
                error_reply(conn, op, Status::kBadPayload);
                return;
            }
            const double applied = tenants_.set_imp_ratio(tenant, ratio);
            const auto off = w.begin_frame(
                frame.b0, static_cast<std::uint8_t>(Status::kOk));
            w.f64(applied);
            w.end_frame(off);
            return;
        }
        case Op::kPutNeighbors: {
            const std::uint32_t key = r.u32();
            const std::uint16_t n = r.u16();
            if (!r.ok() || n > kMaxNeighbors) {
                error_reply(conn, op, Status::kBadPayload);
                return;
            }
            std::vector<std::uint32_t> neighbors;
            neighbors.reserve(n);
            for (std::uint16_t i = 0; i < n; ++i) neighbors.push_back(r.u32());
            if (!r.done()) {
                error_reply(conn, op, Status::kBadPayload);
                return;
            }
            const auto inserted = tenants_.put_neighbors(tenant, key,
                                                         neighbors);
            const auto off = w.begin_frame(
                frame.b0, static_cast<std::uint8_t>(Status::kOk));
            w.u8(inserted.has_value() ? 1 : 0);
            w.end_frame(off);
            return;
        }
        case Op::kPing: {
            const auto off = w.begin_frame(
                frame.b0, static_cast<std::uint8_t>(Status::kOk));
            w.end_frame(off);
            return;
        }
    }
}

bool SpiderServer::flush(Conn& conn) {
    while (conn.woff < conn.wbuf.size()) {
        const ssize_t n = ::write(conn.fd, conn.wbuf.data() + conn.woff,
                                  conn.wbuf.size() - conn.woff);
        if (n > 0) {
            conn.woff += static_cast<std::size_t>(n);
            bytes_out_.fetch_add(static_cast<std::uint64_t>(n),
                                 std::memory_order_relaxed);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            conn.want_write = true;
            return true;
        }
        if (n < 0 && errno == EINTR) continue;
        return false;  // peer vanished; caller closes
    }
    conn.wbuf.clear();
    conn.woff = 0;
    conn.want_write = false;
    return true;
}

void SpiderServer::close_conn(int fd) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    dropped_frames_.fetch_add(it->second.decoder.buffered_frames(),
                              std::memory_order_relaxed);
    ::close(fd);
    conns_.erase(it);
    conns_open_.fetch_sub(1, std::memory_order_relaxed);
}

StatsReply SpiderServer::stats() const {
    StatsReply s;
    s.conns_accepted = conns_accepted_.load(std::memory_order_relaxed);
    s.conns_open = conns_open_.load(std::memory_order_relaxed);
    s.frames = frames_answered_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.single_frame_batches =
        single_frame_batches_.load(std::memory_order_relaxed);
    s.max_batch = max_batch_.load(std::memory_order_relaxed);
    s.gets = gets_.load(std::memory_order_relaxed);
    s.probes = probes_.load(std::memory_order_relaxed);
    s.mget_keys = mget_keys_.load(std::memory_order_relaxed);
    s.put_scores = put_scores_.load(std::memory_order_relaxed);
    s.errors = errors_.load(std::memory_order_relaxed);
    s.dropped_frames = dropped_frames_.load(std::memory_order_relaxed);
    const std::uint64_t decoded =
        frames_decoded_.load(std::memory_order_relaxed);
    const std::uint64_t answered =
        frames_answered_.load(std::memory_order_relaxed);
    s.in_flight = decoded >= answered ? decoded - answered : 0;
    s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
    return s;
}

}  // namespace spider::server

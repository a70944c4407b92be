#include "rpc/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "rpc/dispatcher.hpp"
#include "rpc/protocol.hpp"

namespace blobseer::rpc {

namespace {

[[nodiscard]] std::string errno_string() {
    return std::string(std::strerror(errno));
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[nodiscard]] std::uint64_t now_ms() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

[[nodiscard]] int connect_to(const Endpoint& ep) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const std::string port = std::to_string(ep.port);
    if (const int rc = ::getaddrinfo(ep.host.c_str(), port.c_str(), &hints,
                                     &res);
        rc != 0) {
        throw RpcError("tcp resolve " + ep.host + ": " +
                       ::gai_strerror(rc));
    }
    int fd = -1;
    std::string last_error = "no addresses";
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_error = errno_string();
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            break;
        }
        last_error = errno_string();
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        throw RpcError("tcp connect " + ep.host + ":" + port + ": " +
                       last_error);
    }
    // Small request/response frames must not wait for Nagle coalescing.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

/// Incremental frame reader for a nonblocking socket. pump() pulls
/// whatever the kernel has ready and hands each completed frame to the
/// sink; partial frames persist across calls, so a frame arriving in
/// many readiness events assembles without ever blocking the loop.
/// Small frames coalesce through a bounce buffer (one recv() can yield
/// many frames); payload remainders that dwarf it recv straight into the
/// frame's own storage. One owner per socket (the loop thread), no locks.
class FrameAssembler {
  public:
    enum class Status {
        kAgain,  ///< socket drained (or budget spent) cleanly
        kEof,    ///< peer closed between frames
        kError,  ///< protocol violation, mid-frame EOF, or socket error
    };

    Status pump(int fd, const std::function<void(Buffer)>& sink,
                std::string* error) {
        // Budget bounds one connection's turn so a fire-hose peer cannot
        // starve its loop siblings; level-triggered epoll re-fires for
        // the remainder.
        constexpr std::size_t kBudget = 1 << 20;
        std::size_t consumed = 0;
        for (;;) {
            while (pos_ < end_) {
                if (!step(sink, error)) {
                    return Status::kError;
                }
            }
            if (consumed >= kBudget) {
                return Status::kAgain;
            }
            ssize_t n = 0;
            if (sized_ && frame_.size() - have_ >= bounce_.size()) {
                // Large remainder (chunk payloads): skip the bounce
                // buffer, recv straight into the frame.
                n = ::recv(fd, frame_.data() + have_, frame_.size() - have_,
                           0);
                if (n > 0) {
                    have_ += static_cast<std::size_t>(n);
                    consumed += static_cast<std::size_t>(n);
                    if (have_ == frame_.size()) {
                        finish(sink);
                    }
                    continue;
                }
            } else {
                n = ::recv(fd, bounce_.data(), bounce_.size(), 0);
                if (n > 0) {
                    pos_ = 0;
                    end_ = static_cast<std::size_t>(n);
                    consumed += static_cast<std::size_t>(n);
                    continue;
                }
            }
            if (n == 0) {
                if (have_ == 0) {
                    return Status::kEof;
                }
                *error = "connection closed mid-frame";
                return Status::kError;
            }
            if (errno == EINTR) {
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                return Status::kAgain;
            }
            *error = "recv: " + errno_string();
            return Status::kError;
        }
    }

  private:
    /// Move buffered bytes into the current frame; false on a header
    /// that fails validation.
    bool step(const std::function<void(Buffer)>& sink, std::string* error) {
        if (!sized_) {
            if (frame_.size() != kFrameHeaderSize) {
                frame_.resize(kFrameHeaderSize);
            }
            const std::size_t take =
                std::min(kFrameHeaderSize - have_, end_ - pos_);
            std::memcpy(frame_.data() + have_, bounce_.data() + pos_, take);
            have_ += take;
            pos_ += take;
            if (have_ < kFrameHeaderSize) {
                return true;
            }
            // Validate the header before trusting its length field.
            std::uint32_t magic = 0;
            std::uint32_t len = 0;
            std::memcpy(&magic, frame_.data(), 4);
            std::memcpy(&len, frame_.data() + 12, 4);
            if (magic != kFrameMagic) {
                *error = "bad frame magic";
                return false;
            }
            if (len > kMaxPayload) {
                *error = "oversized frame (" + std::to_string(len) +
                         " bytes)";
                return false;
            }
            frame_.resize(kFrameHeaderSize + len);
            sized_ = true;
            if (len == 0) {
                finish(sink);
            }
            return true;
        }
        const std::size_t take =
            std::min(frame_.size() - have_, end_ - pos_);
        std::memcpy(frame_.data() + have_, bounce_.data() + pos_, take);
        have_ += take;
        pos_ += take;
        if (have_ == frame_.size()) {
            finish(sink);
        }
        return true;
    }

    void finish(const std::function<void(Buffer)>& sink) {
        Buffer done;
        done.swap(frame_);
        have_ = 0;
        sized_ = false;
        sink(std::move(done));
    }

    Buffer bounce_ = Buffer(64 << 10);
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
    Buffer frame_;
    std::size_t have_ = 0;  ///< bytes of frame_ filled
    bool sized_ = false;    ///< header validated, frame_ at full size
};

/// Queue of outbound frames awaiting socket room. Each entry keeps its
/// scatter-gather shape — sealed head plus borrowed tail — until the
/// bytes enter the kernel, so a parked zero-copy response never gets
/// flattened (the tail's owner stays pinned instead). flush() gathers
/// up to 16 spans across queued frames into one sendmsg(): head and
/// tail of a chunk-read response leave in a single syscall, and a burst
/// of small parked responses departs batched. Callers serialize access
/// (the connection's write mutex).
class FrameQueue {
  public:
    enum class Flush {
        kDrained,  ///< queue empty, kernel took everything
        kParked,   ///< kernel buffer full; arm EPOLLOUT for the rest
        kError,    ///< connection unusable
    };

    void push(Buffer head, SharedSlice tail) {
        bytes_ += head.size() + tail.size();
        q_.push_back(OutFrame{std::move(head), std::move(tail), 0, 0});
    }

    /// \p wrote (optional) accumulates bytes accepted by the kernel —
    /// the sender's wrote-anything retry decision needs it even when
    /// the flush ends in kError.
    Flush flush(int fd, std::size_t* wrote, std::string* error) {
        while (!q_.empty()) {
            iovec iov[kMaxIov];
            int iovs = 0;
            for (const OutFrame& f : q_) {
                if (iovs == kMaxIov) {
                    break;
                }
                if (f.head_off < f.head.size()) {
                    iov[iovs].iov_base =
                        const_cast<std::uint8_t*>(f.head.data()) +
                        f.head_off;
                    iov[iovs].iov_len = f.head.size() - f.head_off;
                    ++iovs;
                }
                if (iovs == kMaxIov) {
                    break;
                }
                if (f.tail_off < f.tail.size()) {
                    iov[iovs].iov_base =
                        const_cast<std::uint8_t*>(f.tail.bytes.data()) +
                        f.tail_off;
                    iov[iovs].iov_len = f.tail.size() - f.tail_off;
                    ++iovs;
                }
            }
            msghdr msg{};
            msg.msg_iov = iov;
            msg.msg_iovlen = static_cast<std::size_t>(iovs);
            // MSG_NOSIGNAL: a peer reset must surface as kError, not a
            // SIGPIPE process kill.
            const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    return Flush::kParked;
                }
                if (error != nullptr) {
                    *error = errno_string();
                }
                return Flush::kError;
            }
            advance(static_cast<std::size_t>(n));
            if (wrote != nullptr) {
                *wrote += static_cast<std::size_t>(n);
            }
        }
        return Flush::kDrained;
    }

    /// Drop everything unsent (releases borrowed-tail owners — store
    /// pins — promptly on a doomed connection).
    void clear() {
        q_.clear();
        bytes_ = 0;
    }

    [[nodiscard]] bool empty() const noexcept { return q_.empty(); }

    /// Unsent bytes currently queued.
    [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

  private:
    static constexpr int kMaxIov = 16;

    struct OutFrame {
        Buffer head;
        SharedSlice tail;
        std::size_t head_off;
        std::size_t tail_off;
    };

    void advance(std::size_t n) {
        bytes_ -= n;
        while (!q_.empty()) {
            OutFrame& f = q_.front();
            const std::size_t h = std::min(n, f.head.size() - f.head_off);
            f.head_off += h;
            n -= h;
            const std::size_t t = std::min(n, f.tail.size() - f.tail_off);
            f.tail_off += t;
            n -= t;
            if (f.head_off == f.head.size() &&
                f.tail_off == f.tail.size()) {
                q_.pop_front();
                continue;
            }
            break;  // partial frame remains; n is exhausted
        }
    }

    std::deque<OutFrame> q_;
    std::size_t bytes_ = 0;
};

constexpr std::uint32_t kConnEvents = EPOLLIN | EPOLLRDHUP;

}  // namespace

// ---- TcpTransport ----------------------------------------------------------

struct TcpTransport::MuxConn {
    int fd = -1;
    std::string peer;  ///< "host:port", for error messages

    /// Set (under pending_mu) the moment the connection is doomed; a
    /// dead connection accepts no new requests and is replaced by the
    /// next get_conn().
    std::atomic<bool> dead{false};

    /// Loop registration removed (or never to be installed). Flipped on
    /// the loop thread only; guards mod_fd/del_fd against a recycled fd
    /// number.
    std::atomic<bool> unregistered{false};

    std::atomic<std::uint64_t> next_corr{1};

    std::mutex send_mu;  ///< guards wq + epollout
    FrameQueue wq;
    bool epollout = false;  ///< EPOLLOUT armed (or arming is posted)

    std::mutex pending_mu;  // guards pending
    std::unordered_map<std::uint64_t, Promise<Buffer>> pending;

    FrameAssembler rd;  ///< loop thread only

    ~MuxConn() {
        if (fd >= 0) {
            ::close(fd);
        }
    }

    /// Fail every request still awaiting a response. Idempotent: the
    /// table is swapped out under the lock, so concurrent callers (the
    /// loop seeing EOF, a failed sender) each fail a disjoint set.
    void fail_all(const std::string& reason) {
        std::unordered_map<std::uint64_t, Promise<Buffer>> doomed;
        {
            const std::scoped_lock lock(pending_mu);
            doomed.swap(pending);
        }
        for (auto& [corr, promise] : doomed) {
            promise.set_exception(std::make_exception_ptr(
                RpcError("tcp " + peer + ": " + reason)));
        }
    }
};

TcpTransport::TcpTransport(std::string host, std::uint16_t port)
    : loop_(std::make_unique<net::EventLoop>()),
      default_endpoint_{std::move(host), port} {
    loop_->start();
}

TcpTransport::TcpTransport(std::unordered_map<NodeId, Endpoint> peers)
    : loop_(std::make_unique<net::EventLoop>()), peers_(std::move(peers)) {
    loop_->start();
}

TcpTransport::~TcpTransport() {
    std::unordered_map<std::string, std::shared_ptr<MuxConn>> conns;
    std::vector<std::shared_ptr<MuxConn>> graveyard;
    {
        const std::scoped_lock lock(mu_);
        conns.swap(conns_);
        graveyard.swap(graveyard_);
    }
    for (auto& [key, conn] : conns) {
        {
            const std::scoped_lock lock(conn->pending_mu);
            conn->dead.store(true);
        }
        ::shutdown(conn->fd, SHUT_RDWR);
    }
    // Joining the loop settles in-flight completions; whatever the loop
    // did not answer fails now.
    loop_->stop();
    for (auto& [key, conn] : conns) {
        conn->fail_all("transport destroyed");
    }
    // Destroying the loop drops the handler-captured references; fds
    // close in the MuxConn destructors as the last references fall here.
    loop_.reset();
}

void TcpTransport::add_peer(NodeId node, Endpoint endpoint) {
    const std::scoped_lock lock(peers_mu_);
    peers_[node] = std::move(endpoint);
}

Endpoint TcpTransport::endpoint_of(NodeId dst) const {
    const std::scoped_lock lock(peers_mu_);
    const auto it = peers_.find(dst);
    if (it != peers_.end()) {
        return it->second;
    }
    // Unknown node: an all-in-one daemon hosts every node not explicitly
    // mapped, so fall back to its address when one was configured.
    if (!default_endpoint_.host.empty()) {
        return default_endpoint_;
    }
    throw RpcError("no endpoint for node " + std::to_string(dst));
}

void TcpTransport::retire_locked(std::shared_ptr<MuxConn> conn) {
    // The socket is already shut down (by whoever declared it dead), so
    // the loop sees EOF promptly and unwinds the registration; the fd
    // closes when the last reference drops.
    graveyard_.push_back(std::move(conn));
}

void TcpTransport::reap_graveyard() {
    std::vector<std::shared_ptr<MuxConn>> doomed;
    {
        const std::scoped_lock lock(mu_);
        doomed.swap(graveyard_);
    }
    // Dropping our references is enough — the loop's del_fd task
    // releases the handler's copy, and ~MuxConn closes the fd.
    doomed.clear();
}

void TcpTransport::doom_conn(const std::shared_ptr<MuxConn>& conn,
                             const std::string& reason) {
    {
        // dead is flipped under pending_mu so no new request can
        // register against a connection that will never answer it.
        const std::scoped_lock lock(conn->pending_mu);
        conn->dead.store(true);
    }
    {
        // Parked request frames will never be sent; drop them.
        const std::scoped_lock lock(conn->send_mu);
        conn->wq.clear();
    }
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->fail_all(reason);
    loop_->post([loop = loop_.get(), conn] {
        if (!conn->unregistered.exchange(true)) {
            loop->del_fd(conn->fd);
        }
    });
}

std::shared_ptr<TcpTransport::MuxConn> TcpTransport::get_conn(NodeId dst) {
    reap_graveyard();
    const Endpoint ep = endpoint_of(dst);
    const std::string key = ep.host + ":" + std::to_string(ep.port);
    {
        const std::scoped_lock lock(mu_);
        const auto it = conns_.find(key);
        if (it != conns_.end()) {
            const std::shared_ptr<MuxConn>& conn = it->second;
            bool healthy = !conn->dead.load();
            if (healthy) {
                // An idle connection may have died silently (daemon
                // restart, idle-timeout close) in the window before the
                // loop processes the EOF event. Peek for EOF/stray bytes
                // — but only declare it dead while the pending table is
                // verifiably empty, so a request that registers
                // concurrently is never swept up.
                bool idle;
                {
                    const std::scoped_lock plock(conn->pending_mu);
                    idle = conn->pending.empty();
                }
                if (idle) {
                    char probe = 0;
                    const ssize_t n = ::recv(conn->fd, &probe, 1,
                                             MSG_PEEK | MSG_DONTWAIT);
                    if (n < 0 &&
                        (errno == EAGAIN || errno == EWOULDBLOCK)) {
                        // Healthy idle connection: nothing to read yet.
                    } else {
                        const std::scoped_lock plock(conn->pending_mu);
                        if (conn->pending.empty()) {
                            // Still idle and readable/EOF: stale. The
                            // shutdown below nudges the loop to finish
                            // the teardown (del_fd; nothing to fail).
                            conn->dead.store(true);
                            healthy = false;
                        }
                    }
                }
            }
            if (healthy) {
                return conn;
            }
            ::shutdown(conn->fd, SHUT_RDWR);
            retire_locked(std::move(it->second));
            conns_.erase(it);
        }
    }
    // Connect outside the lock — name resolution and the TCP handshake
    // must not stall unrelated peers.
    auto fresh = std::make_shared<MuxConn>();
    fresh->fd = connect_to(ep);
    fresh->peer = key;
    set_nonblocking(fresh->fd);
    {
        const std::scoped_lock lock(mu_);
        const auto [it, inserted] = conns_.emplace(key, fresh);
        if (!inserted) {
            if (!it->second->dead.load()) {
                // Lost a connect race: use the winner, discard ours
                // (never registered with the loop).
                std::shared_ptr<MuxConn> winner = it->second;
                fresh->unregistered.store(true);
                {
                    const std::scoped_lock plock(fresh->pending_mu);
                    fresh->dead.store(true);
                }
                ::shutdown(fresh->fd, SHUT_RDWR);
                retire_locked(std::move(fresh));
                return winner;
            }
            ::shutdown(it->second->fd, SHUT_RDWR);
            retire_locked(std::move(it->second));
            it->second = fresh;
        }
    }
    // Register with the loop. Sends need no registration, so a request
    // racing this post at worst waits one wakeup for its response.
    loop_->post([this, conn = fresh] { register_conn(conn); });
    return fresh;
}

void TcpTransport::register_conn(const std::shared_ptr<MuxConn>& conn) {
    loop_->add_fd(conn->fd, kConnEvents, [this, conn](std::uint32_t events) {
        if ((events & EPOLLOUT) != 0) {
            bool doomed = false;
            std::string err;
            {
                const std::scoped_lock lock(conn->send_mu);
                if (!conn->dead.load()) {
                    const auto st = conn->wq.flush(conn->fd, nullptr, &err);
                    if (st == FrameQueue::Flush::kDrained) {
                        conn->epollout = false;
                        if (!conn->unregistered.load()) {
                            loop_->mod_fd(conn->fd, kConnEvents);
                        }
                    } else if (st == FrameQueue::Flush::kError) {
                        doomed = true;
                    }
                    // kParked: kernel still full; stay armed.
                }
            }
            if (doomed) {
                doom_conn(conn, "send: " + err);
                return;
            }
        }
        if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) == 0) {
            return;
        }
        std::string reason = "connection closed by peer";
        bool desync = false;
        const auto st = conn->rd.pump(
            conn->fd,
            [&](Buffer frame) {
                const std::uint64_t corr = frame_corr(frame);
                Promise<Buffer> promise;
                bool found = false;
                {
                    const std::scoped_lock lock(conn->pending_mu);
                    const auto pit = conn->pending.find(corr);
                    if (pit != conn->pending.end()) {
                        promise = std::move(pit->second);
                        conn->pending.erase(pit);
                        found = true;
                    }
                }
                if (!found) {
                    // A response nothing asked for: the stream is
                    // desynced beyond recovery.
                    desync = true;
                    return;
                }
                // Completing the promise runs decode hooks (map_future);
                // they are lightweight by contract.
                promise.set_value(std::move(frame));
            },
            &reason);
        if (desync) {
            doom_conn(conn, "response with unknown correlation id");
            return;
        }
        if (st == FrameAssembler::Status::kAgain) {
            return;
        }
        doom_conn(conn, reason);
    });
}

Future<Buffer> TcpTransport::call_async(NodeId dst, ConstBytes frame) {
    if (frame.size() < kFrameHeaderSize) {
        throw RpcError("tcp send: short frame");
    }
    for (int attempt = 0;; ++attempt) {
        const std::shared_ptr<MuxConn> conn = get_conn(dst);
        const std::uint64_t corr = conn->next_corr.fetch_add(1);
        Promise<Buffer> promise;
        Future<Buffer> fut = promise.future();
        {
            const std::scoped_lock lock(conn->pending_mu);
            if (conn->dead.load()) {
                if (attempt == 0) {
                    continue;  // died under us; reconnect once
                }
                throw RpcError("tcp " + conn->peer +
                               ": connection dead before send");
            }
            conn->pending.emplace(corr, std::move(promise));
        }
        // The transport contract says the frame is fully consumed before
        // call_async returns, and the queue may outlive the caller's
        // buffer — so the correlation id is stamped into an owned copy.
        // (The one deliberate copy left on this path: zero-copy targets
        // responses, where the big bytes flow.)
        Buffer stamped(frame.begin(), frame.end());
        std::memcpy(stamped.data() + kFrameCorrOffset, &corr, sizeof corr);
        bool any_written = false;
        bool failed = false;
        std::string err = "send failed";
        {
            const std::scoped_lock lock(conn->send_mu);
            const std::size_t ahead = conn->wq.bytes();
            conn->wq.push(std::move(stamped), {});
            if (!conn->epollout) {
                std::size_t wrote = 0;
                const auto st = conn->wq.flush(conn->fd, &wrote, &err);
                if (st == FrameQueue::Flush::kParked) {
                    // Kernel buffer full: the loop finishes the write
                    // when the socket drains. A parked frame counts as
                    // sent — it will go out in order.
                    conn->epollout = true;
                    loop_->post([loop = loop_.get(), conn] {
                        if (!conn->unregistered.load()) {
                            loop->mod_fd(conn->fd, kConnEvents | EPOLLOUT);
                        }
                    });
                } else if (st == FrameQueue::Flush::kError) {
                    failed = true;
                    any_written = wrote > ahead;
                }
            }
        }
        if (!failed) {
            return fut;
        }
        // The stream is unusable (and, after a partial write, desynced).
        {
            const std::scoped_lock lock(conn->pending_mu);
            conn->pending.erase(corr);  // ours; we throw/retry instead
        }
        doom_conn(conn, "send failed on this connection");
        // Retry once on a fresh socket — but only when *nothing* of this
        // request reached the wire. Once bytes were written the server
        // may execute the call, and replaying a non-idempotent RPC
        // (assign, commit) is worse than surfacing the error.
        if (!any_written && attempt == 0) {
            continue;
        }
        throw RpcError("tcp " + conn->peer + ": send: " + err);
    }
}

// ---- TcpRpcServer ----------------------------------------------------------

struct TcpRpcServer::ServerConn {
    explicit ServerConn(int f) : fd(f) {}
    ~ServerConn() { ::close(fd); }

    ServerConn(const ServerConn&) = delete;
    ServerConn& operator=(const ServerConn&) = delete;

    int fd;
    net::EventLoop* loop = nullptr;
    std::size_t loop_idx = 0;

    /// Cleared when the connection is doomed: queued dispatch tasks
    /// skip their response writes.
    std::atomic<bool> ok{true};

    /// Requests accepted but not yet answered. An idle sweep never
    /// closes a connection with work in flight.
    std::atomic<std::uint32_t> busy{0};

    std::atomic<std::uint64_t> last_active_ms{0};

    FrameAssembler rd;  ///< loop thread only

    std::mutex wmu;  ///< guards wq, epollout, closed
    FrameQueue wq;
    bool epollout = false;
    /// Loop registration removed; set by close_conn (loop thread) so
    /// late response writes and posted EPOLLOUT arming stand down.
    bool closed = false;
};

TcpRpcServer::TcpRpcServer(Dispatcher& dispatcher, Options opts)
    : dispatcher_(dispatcher), opts_(std::move(opts)) {
    std::size_t workers = opts_.workers;
    if (workers == 0) {
        // Enough to keep slow handlers (blocking wait_published, large
        // chunk reads) from starving the quick ones, without flooding
        // few-core hosts with preempting workers.
        workers = std::max<std::size_t>(
            4, std::thread::hardware_concurrency());
    }
    workers_ = std::make_unique<ThreadPool>(workers);

    const std::size_t io_threads =
        opts_.io_threads != 0 ? opts_.io_threads : 2;
    reactor_ = std::make_unique<net::Reactor>(
        io_threads, [this](net::EventLoop& loop, std::size_t) {
            if (opts_.idle_timeout_ms != 0) {
                const auto period =
                    std::chrono::milliseconds(std::max<std::uint64_t>(
                        opts_.idle_timeout_ms / 4, 50));
                loop.set_tick(period,
                              [this, lp = &loop] { sweep_idle(lp); });
            }
        });

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) {
        throw RpcError("tcp socket: " + errno_string());
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts_.port);
    if (::inet_pton(AF_INET, opts_.bind_addr.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        throw RpcError("tcp bind: bad address " + opts_.bind_addr);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
        const std::string err = errno_string();
        ::close(listen_fd_);
        throw RpcError("tcp bind " + opts_.bind_addr + ":" +
                       std::to_string(opts_.port) + ": " + err);
    }
    // Connection bursts far beyond the old thread-per-connection scale
    // are the point of the reactor; give the kernel queue room to match.
    if (::listen(listen_fd_, 1024) != 0) {
        const std::string err = errno_string();
        ::close(listen_fd_);
        throw RpcError("tcp listen: " + err);
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    const MetricLabels labels{{"port", std::to_string(port_)}};
    loop_dispatch_.reserve(io_threads);
    for (std::size_t i = 0; i < io_threads; ++i) {
        loop_dispatch_.push_back(&MetricsRegistry::instance().counter(
            "rpc_loop_dispatch_total",
            {{"port", std::to_string(port_)},
             {"loop", std::to_string(i)}}));
    }
    metrics_.callback("rpc_server_worker_backlog", labels,
                      [this] { return workers_ ? workers_->backlog() : 0; });
    const auto conn_gauge = [this]() -> std::uint64_t {
        const std::scoped_lock lock(mu_);
        return conns_.size();
    };
    metrics_.callback("rpc_server_connections", labels, conn_gauge);
    metrics_.callback("rpc_connections", labels, conn_gauge);

    reactor_->loop(0).post([this] {
        reactor_->loop(0).add_fd(
            listen_fd_, EPOLLIN,
            [this](std::uint32_t events) { on_accept(events); });
    });
}

TcpRpcServer::TcpRpcServer(Dispatcher& dispatcher, std::uint16_t port,
                           const std::string& bind_addr, std::size_t workers)
    : TcpRpcServer(dispatcher, Options{port, bind_addr, workers}) {}

TcpRpcServer::~TcpRpcServer() { stop(); }

std::size_t TcpRpcServer::connection_count() const {
    const std::scoped_lock lock(mu_);
    return conns_.size();
}

void TcpRpcServer::stop() {
    // Unbind before tearing anything down: a concurrent registry
    // snapshot must not sample workers_ mid-reset.
    metrics_.release();
    {
        const std::scoped_lock lock(mu_);
        if (stopping_) {
            return;
        }
        stopping_ = true;
        // Doomed connections make queued dispatch tasks skip their
        // writes; the shutdowns surface as readiness events the loops
        // consume as EOF.
        ::shutdown(listen_fd_, SHUT_RDWR);
        for (auto& [ptr, conn] : conns_) {
            conn->ok.store(false);
            ::shutdown(conn->fd, SHUT_RDWR);
        }
    }
    // Joining the loops retires every read path: no request can arrive
    // past this point.
    reactor_->stop();
    // Draining the pool bounds on the slowest in-flight handler — its
    // response write is skipped (ok is false). The dedicated blocking-op
    // threads drain next (wait_published has a client-set timeout).
    workers_.reset();
    {
        std::unique_lock lock(mu_);
        conn_done_.wait(lock, [this] { return blocking_ops_ == 0; });
    }
    // Destroying the loops drops the handler-captured connection
    // references; clearing the map drops the rest, and the fds close in
    // the ServerConn destructors.
    reactor_.reset();
    {
        const std::scoped_lock lock(mu_);
        conns_.clear();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

void TcpRpcServer::on_accept(std::uint32_t /*events*/) {
    for (;;) {
        const int fd =
            ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0) {
            if (errno == EINTR) {
                continue;
            }
            return;  // drained (EAGAIN) or listener shut down
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto conn = std::make_shared<ServerConn>(fd);
        conn->last_active_ms.store(now_ms());
        net::EventLoop& loop = reactor_->next();
        conn->loop = &loop;
        for (std::size_t i = 0; i < reactor_->size(); ++i) {
            if (&reactor_->loop(i) == &loop) {
                conn->loop_idx = i;
                break;
            }
        }
        {
            const std::scoped_lock lock(mu_);
            if (stopping_) {
                return;  // conn's destructor closes the fd
            }
            conns_.emplace(conn.get(), conn);
        }
        register_conn(conn);
    }
}

void TcpRpcServer::register_conn(const std::shared_ptr<ServerConn>& conn) {
    // add_fd is loop-thread-only, and the accept handler runs on loop 0
    // while this connection may belong to a sibling loop.
    conn->loop->post([this, conn] {
        conn->loop->add_fd(
            conn->fd, kConnEvents, [this, conn](std::uint32_t events) {
                if ((events & EPOLLERR) != 0) {
                    close_conn(conn);
                    return;
                }
                if ((events & EPOLLOUT) != 0) {
                    on_writable(conn);
                    // on_writable closes on error; a closed connection
                    // must not be read.
                    bool closed;
                    {
                        const std::scoped_lock lock(conn->wmu);
                        closed = conn->closed;
                    }
                    if (closed) {
                        return;
                    }
                }
                if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) {
                    on_readable(conn, events);
                }
            });
    });
}

void TcpRpcServer::on_readable(const std::shared_ptr<ServerConn>& conn,
                               std::uint32_t /*events*/) {
    std::string err;
    const auto st = conn->rd.pump(
        conn->fd,
        [&](Buffer request) { handle_frame(conn, std::move(request)); },
        &err);
    switch (st) {
        case FrameAssembler::Status::kAgain:
            return;
        case FrameAssembler::Status::kEof:
            break;  // peer closed cleanly
        case FrameAssembler::Status::kError:
            // Malformed frame or connection reset: drop the connection.
            // The client's transport reconnects transparently.
            log_debug("rpc-server", "connection dropped: " + err);
            break;
    }
    close_conn(conn);
}

void TcpRpcServer::handle_frame(const std::shared_ptr<ServerConn>& conn,
                                Buffer request) {
    conn->last_active_ms.store(now_ms(), std::memory_order_relaxed);
    loop_dispatch_[conn->loop_idx]->add();
    const TimePoint received_at = Clock::now();
    conn->busy.fetch_add(1);
    // Requests that block by design must not occupy a pool worker:
    // enough parked wait_published calls would exhaust the pool and
    // stall the very commit frame that wakes them.
    if (Dispatcher::blocks_by_design(request)) {
        {
            const std::scoped_lock lock(mu_);
            ++blocking_ops_;
        }
        std::thread([this, conn, received_at,
                     req = std::move(request)]() mutable {
            answer(conn, req, received_at);
            conn->busy.fetch_sub(1);
            const std::scoped_lock lock(mu_);
            --blocking_ops_;
            conn_done_.notify_all();
        }).detach();
        return;
    }
    // Everything else goes to the pool: a slow handler must block
    // neither the loop nor its sibling connections. The task shares
    // ownership of the connection so the response write races neither
    // close nor fd-number reuse.
    workers_->post([this, conn, received_at,
                    req = std::move(request)]() mutable {
        answer(conn, req, received_at);
        conn->busy.fetch_sub(1);
    });
}

void TcpRpcServer::answer(const std::shared_ptr<ServerConn>& conn,
                          const Buffer& request, TimePoint received_at) {
    RpcResponse response =
        opts_.zero_copy
            ? dispatcher_.dispatch_sg(request, received_at)
            : RpcResponse(dispatcher_.dispatch(request, received_at));
    if (!conn->ok.load()) {
        return;  // connection doomed; spare the write
    }
    send_response(conn, std::move(response));
}

void TcpRpcServer::send_response(const std::shared_ptr<ServerConn>& conn,
                                 RpcResponse&& resp) {
    bool doom = false;
    {
        const std::scoped_lock lock(conn->wmu);
        if (conn->closed || !conn->ok.load()) {
            return;
        }
        conn->wq.push(std::move(resp.head), std::move(resp.tail));
        if (conn->epollout) {
            return;  // EPOLLOUT armed; the loop drains in order
        }
        std::string err;
        const auto st = conn->wq.flush(conn->fd, nullptr, &err);
        if (st == FrameQueue::Flush::kParked) {
            // Kernel buffer full (a slow or absent reader): park the
            // remainder and let writability events finish the job —
            // backpressure without a blocked thread.
            conn->epollout = true;
            if (conn->loop->on_loop_thread()) {
                conn->loop->mod_fd(conn->fd, kConnEvents | EPOLLOUT);
            } else {
                conn->loop->post([conn] {
                    const std::scoped_lock l2(conn->wmu);
                    if (!conn->closed && conn->epollout) {
                        conn->loop->mod_fd(conn->fd,
                                           kConnEvents | EPOLLOUT);
                    }
                });
            }
        } else if (st == FrameQueue::Flush::kError) {
            // Peer gone mid-response: doom the connection so sibling
            // responses stop writing into the void.
            conn->wq.clear();
            doom = true;
        }
    }
    if (doom) {
        conn->ok.store(false);
        // The loop consumes the shutdown as EOF and runs close_conn.
        ::shutdown(conn->fd, SHUT_RDWR);
    }
}

void TcpRpcServer::on_writable(const std::shared_ptr<ServerConn>& conn) {
    bool doom = false;
    {
        const std::scoped_lock lock(conn->wmu);
        if (conn->closed) {
            return;
        }
        std::string err;
        const auto st = conn->wq.flush(conn->fd, nullptr, &err);
        if (st == FrameQueue::Flush::kDrained) {
            conn->epollout = false;
            conn->loop->mod_fd(conn->fd, kConnEvents);
        } else if (st == FrameQueue::Flush::kError) {
            conn->wq.clear();
            doom = true;
        }
        // kParked: kernel still full; stay armed.
    }
    if (doom) {
        close_conn(conn);
    }
}

void TcpRpcServer::close_conn(const std::shared_ptr<ServerConn>& conn) {
    {
        const std::scoped_lock lock(conn->wmu);
        if (conn->closed) {
            return;
        }
        conn->closed = true;
        conn->wq.clear();  // releases any parked borrowed tails (pins)
    }
    conn->ok.store(false);
    conn->loop->del_fd(conn->fd);
    ::shutdown(conn->fd, SHUT_RDWR);
    {
        const std::scoped_lock lock(mu_);
        conns_.erase(conn.get());
        conn_done_.notify_all();
    }
    // In-flight dispatch tasks still hold references; the fd closes in
    // ~ServerConn when the last one finishes.
}

void TcpRpcServer::sweep_idle(net::EventLoop* loop) {
    const std::uint64_t now = now_ms();
    std::vector<std::shared_ptr<ServerConn>> victims;
    {
        const std::scoped_lock lock(mu_);
        for (const auto& [ptr, conn] : conns_) {
            if (conn->loop != loop) {
                continue;  // each loop sweeps only its own connections
            }
            if (conn->busy.load() != 0) {
                continue;
            }
            const std::uint64_t last =
                conn->last_active_ms.load(std::memory_order_relaxed);
            if (now - last < opts_.idle_timeout_ms) {
                continue;
            }
            victims.push_back(conn);
        }
    }
    for (const auto& conn : victims) {
        bool quiet;
        {
            const std::scoped_lock lock(conn->wmu);
            quiet = conn->wq.empty() && !conn->closed;
        }
        if (quiet) {
            // The tick runs on the owning loop thread, so this is the
            // loop-thread-only teardown path.
            close_conn(conn);
        }
    }
}

}  // namespace blobseer::rpc

/// \file test_rpc_transport.cpp
/// \brief Transport conformance suite, run against both SimTransport and
///        a TCP loopback server: every service RPC round-trips (sync and
///        async), responses complete out of order without head-of-line
///        blocking, server exceptions resurface as the right client
///        exception, and fault injection (Sim side) / connection loss
///        (TCP side) fails every in-flight future with RpcError.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "core/cluster.hpp"
#include "rpc/messages.hpp"
#include "rpc/protocol.hpp"
#include "rpc/service_client.hpp"
#include "rpc/sim_transport.hpp"
#include "rpc/tcp_transport.hpp"
#include "testing_util.hpp"

namespace blobseer::rpc {
namespace {

enum class Mode { kSim, kTcp };

class TransportConformance : public ::testing::TestWithParam<Mode> {
  protected:
    void SetUp() override {
        cluster_ =
            std::make_unique<core::Cluster>(testing::fast_config());
        if (GetParam() == Mode::kTcp) {
            server_ = std::make_unique<TcpRpcServer>(
                cluster_->dispatcher(), 0, "127.0.0.1");
            transport_ = std::make_unique<TcpTransport>("127.0.0.1",
                                                        server_->port());
        } else {
            const NodeId self =
                cluster_->network().add_node("conformance-client");
            transport_ = std::make_unique<SimTransport>(
                cluster_->network(), self, cluster_->dispatcher());
        }
        svc_ = std::make_unique<ServiceClient>(
            *transport_, cluster_->version_manager_nodes(),
            cluster_->provider_manager_node());
    }

    [[nodiscard]] bool is_sim() const { return GetParam() == Mode::kSim; }

    std::unique_ptr<core::Cluster> cluster_;
    std::unique_ptr<TcpRpcServer> server_;
    std::unique_ptr<Transport> transport_;
    std::unique_ptr<ServiceClient> svc_;
};

TEST_P(TransportConformance, VersionManagerRoundTrip) {
    const auto info = svc_->create_blob(4096, 2);
    EXPECT_NE(info.id, kInvalidBlob);
    EXPECT_EQ(info.chunk_size, 4096u);
    EXPECT_EQ(info.replication, 2u);
    EXPECT_EQ(svc_->blob_info(info.id).id, info.id);

    const auto ar = svc_->assign(info.id, std::nullopt, 4096);
    EXPECT_EQ(ar.version, 1u);
    EXPECT_EQ(ar.offset, 0u);
    EXPECT_EQ(ar.size_after, 4096u);
    svc_->commit(info.id, ar.version);

    const auto vi = svc_->get_version(info.id, kLatestVersion);
    EXPECT_EQ(vi.version, 1u);
    EXPECT_EQ(vi.status, version::VersionStatus::kPublished);

    const auto wp = svc_->wait_published(info.id, 1, seconds(5));
    EXPECT_EQ(wp.version, 1u);

    const auto history = svc_->history(info.id, 1, kLatestVersion);
    ASSERT_EQ(history.size(), 1u);
    EXPECT_EQ(history[0].version, 1u);

    const auto desc = svc_->descriptor_of(info.id, 1);
    EXPECT_EQ(desc.version, 1u);
    EXPECT_EQ(desc.size, 4096u);
}

TEST_P(TransportConformance, ChunkRoundTrip) {
    const NodeId dp = cluster_->data_provider(0).node();
    const chunk::ChunkKey key{7, 42};
    const Buffer payload = make_pattern(7, 1, 0, 10000);

    svc_->put_chunk(dp, key, payload);
    const auto whole = svc_->get_chunk(dp, key, 0, 0);
    EXPECT_EQ(whole.chunk_size, payload.size());
    EXPECT_EQ(whole.bytes, payload);

    const auto slice = svc_->get_chunk(dp, key, 5000, 1000);
    EXPECT_EQ(slice.chunk_size, payload.size());
    ASSERT_EQ(slice.bytes.size(), 1000u);
    EXPECT_EQ(0, std::memcmp(slice.bytes.data(), payload.data() + 5000,
                             1000));

    svc_->erase_chunk(dp, key);
    EXPECT_THROW((void)svc_->get_chunk(dp, key, 0, 0), NotFoundError);
}

TEST_P(TransportConformance, MetaRoundTrip) {
    const NodeId mp = cluster_->metadata_provider(0).node();
    const meta::MetaKey key{3, 1, {0, 4}};
    const meta::MetaNode node = meta::MetaNode::leaf({1, 2}, 99, 512);

    EXPECT_FALSE(svc_->meta_try_get(mp, key).has_value());
    svc_->meta_put(mp, {{key, node}});
    const auto got = svc_->meta_get(mp, key);
    EXPECT_TRUE(got.is_leaf());
    EXPECT_EQ(got.chunk_uid, 99u);
    EXPECT_EQ(got.replicas, (std::vector<NodeId>{1, 2}));
    EXPECT_TRUE(svc_->meta_try_get(mp, key).has_value());
    svc_->meta_erase(mp, key);
    EXPECT_THROW((void)svc_->meta_get(mp, key), NotFoundError);
}

TEST_P(TransportConformance, PlacementRoundTrip) {
    const auto plan = svc_->place(5, 2, 4096);
    ASSERT_EQ(plan.size(), 5u);
    for (const auto& targets : plan) {
        EXPECT_EQ(targets.size(), 2u);
    }
}

TEST_P(TransportConformance, ServerExceptionsMapToClientTypes) {
    // Unknown blob: NotFoundError end to end.
    EXPECT_THROW((void)svc_->blob_info(999), NotFoundError);
    // Invalid arguments: InvalidArgument end to end.
    EXPECT_THROW((void)svc_->create_blob(0, 1), InvalidArgument);
    // Unknown service node: RpcError.
    EXPECT_THROW(
        (void)svc_->get_chunk(kControlNode, chunk::ChunkKey{1, 1}, 0, 0),
        RpcError);
}

TEST_P(TransportConformance, TopologyHandshake) {
    const Topology t = fetch_topology(*transport_);
    EXPECT_EQ(t.vm_nodes, cluster_->version_manager_nodes());
    EXPECT_EQ(t.pm_node, cluster_->provider_manager_node());
    EXPECT_EQ(t.data_nodes.size(), cluster_->data_provider_count());
    EXPECT_EQ(t.meta_nodes.size(), cluster_->metadata_provider_count());
    EXPECT_GE(t.client_id, 1u << 20);
    // Each handshake mints a distinct client identity.
    const Topology t2 = fetch_topology(*transport_);
    EXPECT_NE(t.client_id, t2.client_id);
}

TEST_P(TransportConformance, LargePayloadRoundTrip) {
    const NodeId dp = cluster_->data_provider(1).node();
    const chunk::ChunkKey key{9, 1};
    const Buffer payload = make_pattern(9, 2, 0, 4 << 20);  // 4 MiB
    svc_->put_chunk(dp, key, payload);
    const auto back = svc_->get_chunk(dp, key, 0, 0);
    EXPECT_EQ(back.bytes, payload);
}

TEST_P(TransportConformance, ConcurrentCallsAreIsolated) {
    const NodeId dp = cluster_->data_provider(0).node();
    constexpr int kThreads = 8;
    constexpr int kOps = 25;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            try {
                for (int i = 0; i < kOps; ++i) {
                    const chunk::ChunkKey key{
                        100 + static_cast<BlobId>(t),
                        static_cast<std::uint64_t>(i)};
                    const Buffer payload =
                        make_pattern(key.blob, key.uid, 0, 2048);
                    svc_->put_chunk(dp, key, payload);
                    const auto back = svc_->get_chunk(dp, key, 0, 0);
                    if (back.bytes != payload) {
                        ++failures;
                    }
                }
            } catch (const Error&) {
                ++failures;
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    EXPECT_EQ(failures.load(), 0);
}

// ---- async API -------------------------------------------------------------

TEST_P(TransportConformance, AsyncRoundTripsMatchSync) {
    const NodeId dp = cluster_->data_provider(0).node();
    const NodeId mp = cluster_->metadata_provider(0).node();

    const chunk::ChunkKey key{11, 3};
    const Buffer payload = make_pattern(11, 3, 0, 5000);
    svc_->put_chunk_async(dp, key, payload).get();
    auto slice = svc_->get_chunk_async(dp, key, 1000, 2000).get();
    EXPECT_EQ(slice.chunk_size, payload.size());
    ASSERT_EQ(slice.bytes.size(), 2000u);
    EXPECT_EQ(0, std::memcmp(slice.bytes.data(), payload.data() + 1000,
                             2000));

    const meta::MetaKey mkey{11, 1, {0, 8}};
    svc_->meta_put_async(mp, {{mkey, meta::MetaNode::leaf({dp}, 7, 128)}})
        .get();
    const auto node = svc_->meta_get_async(mp, mkey).get();
    EXPECT_EQ(node.chunk_uid, 7u);

    // Service errors surface from get() with the mapped type.
    EXPECT_THROW(
        (void)svc_->get_chunk_async(dp, chunk::ChunkKey{99, 99}, 0, 0).get(),
        NotFoundError);
    // Delivery failures (unknown service node) surface as RpcError.
    EXPECT_THROW(
        (void)svc_->get_chunk_async(kControlNode, key, 0, 0).get(),
        RpcError);
}

TEST_P(TransportConformance, DeepWindowCollectsInAnyOrder) {
    // Issue a whole window of puts and gets, then collect the futures in
    // *reverse* issue order: correlation matching, not response
    // position, must pair them up.
    const NodeId dp = cluster_->data_provider(0).node();
    constexpr int kOps = 32;

    std::vector<Future<void>> puts;
    for (int i = 0; i < kOps; ++i) {
        const chunk::ChunkKey key{200, static_cast<std::uint64_t>(i)};
        puts.push_back(
            svc_->put_chunk_async(dp, key, make_pattern(200, i, 0, 512)));
    }
    for (int i = kOps; i-- > 0;) {
        puts[static_cast<std::size_t>(i)].get();
    }

    std::vector<Future<ServiceClient::ChunkSlice>> gets;
    for (int i = 0; i < kOps; ++i) {
        const chunk::ChunkKey key{200, static_cast<std::uint64_t>(i)};
        gets.push_back(svc_->get_chunk_async(dp, key, 0, 0));
    }
    for (int i = kOps; i-- > 0;) {
        const auto slice = gets[static_cast<std::size_t>(i)].get();
        EXPECT_EQ(slice.bytes, make_pattern(200, i, 0, 512))
            << "future " << i << " got another request's response";
    }
}

TEST_P(TransportConformance, SlowRequestDoesNotDelayConcurrentSmallOne) {
    if (is_sim()) {
        GTEST_SKIP() << "pins the multiplexed-connection + worker-pool "
                        "server (TCP)";
    }
    // Head-of-line regression: a request blocking server-side for 1.5 s
    // and a small meta_get travel the SAME multiplexed connection; the
    // small one must complete in roughly its own service time. Before
    // protocol v3 the serial connection would stall it behind the slow
    // response.
    const auto info = svc_->create_blob(4096, 1);
    (void)svc_->assign(info.id, std::nullopt, 4096);  // v1 pending forever

    std::thread slow([&] {
        // Never commits: blocks in the handler until the 1.5 s timeout.
        EXPECT_THROW((void)svc_->wait_published(info.id, 1,
                                                milliseconds(1500)),
                     TimeoutError);
    });
    // Let the slow request reach the server first.
    std::this_thread::sleep_for(milliseconds(100));

    const NodeId mp = cluster_->metadata_provider(0).node();
    const Stopwatch sw;
    (void)svc_->meta_try_get(mp, meta::MetaKey{1, 1, {0, 4}});
    const std::uint64_t small_us = sw.elapsed_us();
    slow.join();

    // Its own service time is microseconds; anything near the slow
    // request's 1.4 s remainder means it queued behind it.
    EXPECT_LT(small_us, 700'000u)
        << "small RPC was head-of-line blocked behind the slow one";
}

TEST_P(TransportConformance, SlowResponseCompletesAfterFastOne) {
    if (!is_sim()) {
        GTEST_SKIP() << "deterministic slowness uses the simulator's "
                        "degrade; the TCP ordering twin is "
                        "SlowRequestDoesNotDelayConcurrentSmallOne";
    }
    const NodeId slow_dp = cluster_->data_provider(0).node();
    const NodeId fast_dp = cluster_->data_provider(1).node();
    const chunk::ChunkKey key{12, 1};
    const Buffer payload = make_pattern(12, 1, 0, 1024);
    svc_->put_chunk(slow_dp, key, payload);
    svc_->put_chunk(fast_dp, key, payload);

    cluster_->degrade_data_provider(0, 1.0, milliseconds(400));
    auto slow = svc_->get_chunk_async(slow_dp, key, 0, 0);
    auto fast = svc_->get_chunk_async(fast_dp, key, 0, 0);
    EXPECT_EQ(fast.get().bytes, payload);
    // The fast response came back while the slow one is still sleeping
    // in the degraded provider's wire model.
    EXPECT_FALSE(slow.ready());
    EXPECT_EQ(slow.get().bytes, payload);
    cluster_->restore_data_provider(0);
}

// ---- fault injection (simulated wire) --------------------------------------

TEST_P(TransportConformance, KilledProviderSurfacesAsRpcError) {
    if (!is_sim()) {
        GTEST_SKIP() << "kill/partition are simulator features";
    }
    const NodeId dp = cluster_->data_provider(0).node();
    const chunk::ChunkKey key{5, 5};
    const Buffer payload = make_pattern(5, 5, 0, 1024);
    svc_->put_chunk(dp, key, payload);

    cluster_->kill_data_provider(0);
    EXPECT_THROW((void)svc_->get_chunk(dp, key, 0, 0), RpcError);
    EXPECT_THROW(svc_->put_chunk(dp, key, payload), RpcError);

    cluster_->recover_data_provider(0);
    EXPECT_EQ(svc_->get_chunk(dp, key, 0, 0).bytes, payload);
}

TEST_P(TransportConformance, PartitionSurfacesAsRpcErrorAndHeals) {
    if (!is_sim()) {
        GTEST_SKIP() << "kill/partition are simulator features";
    }
    auto& sim = dynamic_cast<SimTransport&>(*transport_);
    const NodeId vm = cluster_->version_manager_node();
    cluster_->network().partition(sim.self(), vm);
    EXPECT_THROW((void)svc_->create_blob(4096, 1), RpcError);
    cluster_->network().heal_partition(sim.self(), vm);
    EXPECT_NO_THROW((void)svc_->create_blob(4096, 1));
}

TEST_P(TransportConformance, KillMidFlightFailsEveryOutstandingFuture) {
    if (!is_sim()) {
        GTEST_SKIP() << "kill/partition are simulator features (TCP twin: "
                        "StopMidFlightFailsEveryOutstandingFuture)";
    }
    const NodeId dp = cluster_->data_provider(0).node();
    const chunk::ChunkKey key{13, 1};
    const Buffer payload = make_pattern(13, 1, 0, 2048);
    svc_->put_chunk(dp, key, payload);

    // 300 ms of injected latency keeps a window of gets in flight long
    // enough to kill the provider under them.
    cluster_->degrade_data_provider(0, 1.0, milliseconds(300));
    std::vector<Future<ServiceClient::ChunkSlice>> inflight;
    for (int i = 0; i < 6; ++i) {
        inflight.push_back(svc_->get_chunk_async(dp, key, 0, 0));
    }
    std::this_thread::sleep_for(milliseconds(50));
    cluster_->kill_data_provider(0);

    for (auto& fut : inflight) {
        EXPECT_THROW((void)fut.get(), RpcError);
    }
    cluster_->recover_data_provider(0);
    cluster_->restore_data_provider(0);
    EXPECT_EQ(svc_->get_chunk_async(dp, key, 0, 0).get().bytes, payload);
}

/// Failover in the windowed chunk upload: a write whose placement
/// includes a dead provider must still store every chunk (replacement
/// placement), and the bytes must read back intact — for BOTH transport
/// flavors the client API supports.
TEST_P(TransportConformance, WindowedUploadFailsOverDeadProvider) {
    if (!is_sim()) {
        GTEST_SKIP() << "provider kill needs the simulated cluster";
    }
    auto client = cluster_->make_client("failover-client");
    auto blob = client->create(4 << 10, 1);
    // Kill one provider AFTER the provider manager handed out liveness-
    // unaware placements? mark_dead keeps it out of future plans, so
    // kill without telling the manager: the network refuses delivery
    // and the upload window must fail over mid-write.
    cluster_->network().kill(cluster_->data_provider(0).node());

    const Buffer data = make_pattern(blob.id(), 1, 0, 64 << 10);  // 16 chunks
    const Version v = blob.write(0, data);
    Buffer back(data.size());
    blob.read(v, 0, back);
    EXPECT_EQ(back, data);
    cluster_->network().recover(cluster_->data_provider(0).node());
}

// ---- connection loss (real wire) -------------------------------------------

TEST_P(TransportConformance, StopMidFlightFailsEveryOutstandingFuture) {
    if (is_sim()) {
        GTEST_SKIP() << "connection loss is a TCP feature";
    }
    // wait_published on a never-committed version blocks server-side
    // for its full timeout, so raw async wait_published frames are
    // genuinely outstanding — all multiplexed on one connection — when
    // the daemon stops. Every future must fail with RpcError.
    TcpRpcServer doomed(cluster_->dispatcher(), 0, "127.0.0.1", 1);
    TcpTransport transport("127.0.0.1", doomed.port());
    ServiceClient svc(transport, cluster_->version_manager_nodes(),
                      cluster_->provider_manager_node());

    const auto info = svc.create_blob(4096, 1);
    (void)svc.assign(info.id, std::nullopt, 4096);  // v1 pending forever

    const NodeId vm = cluster_->version_manager_node();
    std::vector<Future<Buffer>> inflight;
    for (int i = 0; i < 4; ++i) {
        WireWriter w;
        w.u64(info.id);
        w.u64(1);
        w.u64(1500);  // ms the handler will block
        inflight.push_back(transport.call_async(
            vm, seal_request(MsgType::kWaitPublished, vm, std::move(w))));
    }
    // Let the requests reach the server and park in their handlers.
    std::this_thread::sleep_for(milliseconds(200));
    for (const auto& fut : inflight) {
        EXPECT_FALSE(fut.ready());
    }
    doomed.stop();  // connections die; handlers drain at their timeout

    for (auto& fut : inflight) {
        EXPECT_THROW((void)fut.get(), RpcError);
    }
}

TEST_P(TransportConformance, ParkedWaitersDoNotStarveTheCommit) {
    if (is_sim()) {
        GTEST_SKIP() << "worker pools are a TCP server feature";
    }
    // One pool worker and more parked wait_published calls than
    // workers. Were the waiters queued on the pool, the commit that
    // wakes them would sit behind them until each one timed out.
    TcpRpcServer::Options opts;
    opts.bind_addr = "127.0.0.1";
    opts.workers = 1;
    TcpRpcServer server(cluster_->dispatcher(), std::move(opts));
    TcpTransport waiter_conn("127.0.0.1", server.port());
    TcpTransport writer_conn("127.0.0.1", server.port());
    ServiceClient waiter(waiter_conn, cluster_->version_manager_nodes(),
                         cluster_->provider_manager_node());
    ServiceClient writer(writer_conn, cluster_->version_manager_nodes(),
                         cluster_->provider_manager_node());

    const auto info = writer.create_blob(4096, 1);
    const auto ar = writer.assign(info.id, std::nullopt, 4096);

    constexpr std::uint64_t kTimeoutMs = 5'000;
    const NodeId vm = cluster_->version_manager_node();
    std::vector<Future<version::VersionInfo>> waiters;
    for (int i = 0; i < 4; ++i) {
        waiters.push_back(waiter.call_async<op::WaitPublished>(
            vm, info.id, ar.version, kTimeoutMs));
    }
    // Let the waiters reach the server and park in their handlers.
    std::this_thread::sleep_for(milliseconds(200));
    for (const auto& w : waiters) {
        EXPECT_FALSE(w.ready());
    }

    const auto start = Clock::now();
    writer.commit(info.id, ar.version);
    for (auto& w : waiters) {
        const auto published = w.get();
        EXPECT_EQ(published.version, ar.version);
        EXPECT_EQ(published.status, version::VersionStatus::kPublished);
    }
    EXPECT_LT(Clock::now() - start, milliseconds(kTimeoutMs / 4));
}

TEST_P(TransportConformance, StoppedServerSurfacesAsRpcError) {
    if (is_sim()) {
        GTEST_SKIP() << "connection loss is a TCP feature";
    }
    (void)svc_->create_blob(4096, 1);  // warm the connection pool
    server_->stop();
    EXPECT_THROW((void)svc_->blob_info(1), RpcError);
}

TEST_P(TransportConformance, DaemonRestartReconnectsTransparently) {
    if (is_sim()) {
        GTEST_SKIP() << "connection loss is a TCP feature";
    }
    const auto info = svc_->create_blob(4096, 1);  // warm the pool
    const std::uint16_t port = server_->port();
    server_->stop();
    // Same dispatcher, same port: the daemon came back. The pooled
    // connection is stale; acquire() must detect that and reconnect
    // instead of surfacing an error (or replaying onto a dead socket).
    server_ = std::make_unique<TcpRpcServer>(cluster_->dispatcher(), port,
                                             "127.0.0.1");
    EXPECT_NO_THROW((void)svc_->blob_info(info.id));
}

// ---- reactor wire mechanics (real wire) ------------------------------------

namespace {

/// Raw loopback socket, optionally with a deliberately tiny receive
/// buffer so the server's writes hit EAGAIN after a few KiB.
int connect_raw(std::uint16_t port, int rcvbuf_bytes) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return -1;
    }
    if (rcvbuf_bytes > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                     sizeof(rcvbuf_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool write_all(int fd, const std::uint8_t* src, std::size_t n) {
    while (n > 0) {
        const ssize_t sent = ::send(fd, src, n, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        src += sent;
        n -= static_cast<std::size_t>(sent);
    }
    return true;
}

bool read_exact(int fd, std::uint8_t* dst, std::size_t n) {
    while (n > 0) {
        const ssize_t got = ::recv(fd, dst, n, 0);
        if (got < 0 && errno == EINTR) {
            continue;
        }
        if (got <= 0) {
            return false;
        }
        dst += got;
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

/// Pipeline \p count whole-chunk kChunkGet frames (corr 1..count) onto a
/// raw socket without reading anything back.
void pipeline_chunk_gets(int fd, NodeId dp, const chunk::ChunkKey& key,
                         std::uint64_t count) {
    for (std::uint64_t corr = 1; corr <= count; ++corr) {
        WireWriter w;
        put_chunk_key(w, key);
        w.u64(0);
        w.u64(0);  // 0 = whole chunk
        Buffer f = seal_request(MsgType::kChunkGet, dp, std::move(w));
        set_frame_corr(MutableBytes(f), corr);
        ASSERT_TRUE(write_all(fd, f.data(), f.size()));
    }
}

}  // namespace

TEST_P(TransportConformance, PartialWriteBackpressureDeliversAllResponses) {
    if (is_sim()) {
        GTEST_SKIP() << "socket backpressure is a TCP feature";
    }
    // A client that reads nothing while 64 whole-chunk responses
    // (16 MiB) head for a few-KiB receive window: the server's writes
    // go partial, the remainders park in the per-connection frame
    // queue, and EPOLLOUT drains them as the window reopens. Every
    // byte must still arrive, matched to its correlation id.
    const NodeId dp = cluster_->data_provider(0).node();
    const chunk::ChunkKey key{21, 1};
    const Buffer payload = make_pattern(21, 1, 0, 256 << 10);
    svc_->put_chunk(dp, key, payload);

    const int fd = connect_raw(server_->port(), 4096);
    ASSERT_GE(fd, 0);
    constexpr std::uint64_t kPipelined = 64;
    pipeline_chunk_gets(fd, dp, key, kPipelined);
    // Give every response time to land in the tiny window or park.
    std::this_thread::sleep_for(milliseconds(300));

    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < kPipelined; ++i) {
        Buffer frame(kFrameHeaderSize);
        ASSERT_TRUE(read_exact(fd, frame.data(), kFrameHeaderSize));
        std::uint32_t len = 0;
        std::memcpy(&len, frame.data() + 12, sizeof(len));
        frame.resize(kFrameHeaderSize + len);
        ASSERT_TRUE(
            read_exact(fd, frame.data() + kFrameHeaderSize, len));
        const FrameView fv = parse_frame(frame);
        EXPECT_EQ(fv.type, MsgType::kChunkGet);
        EXPECT_EQ(fv.status(), Status::kOk);
        EXPECT_TRUE(seen.insert(fv.corr).second)
            << "duplicate correlation id " << fv.corr;
        WireReader r(fv.payload);
        EXPECT_EQ(r.u64(), payload.size());
        const ConstBytes bytes = r.blob();
        ASSERT_EQ(bytes.size(), payload.size());
        EXPECT_EQ(0, std::memcmp(bytes.data(), payload.data(),
                                 payload.size()));
    }
    EXPECT_EQ(seen.size(), kPipelined);
    EXPECT_EQ(*seen.begin(), 1u);
    EXPECT_EQ(*seen.rbegin(), kPipelined);
    ::close(fd);
}

TEST_P(TransportConformance, SlowReaderDoesNotBlockLoopSiblings) {
    if (is_sim()) {
        GTEST_SKIP() << "event-loop scheduling is a TCP feature";
    }
    // One io thread serves both connections. The slow one never reads
    // its parked multi-MiB backlog; the sibling's small RPCs must still
    // turn around promptly — a parked writer costs an EPOLLOUT
    // registration, not the loop thread.
    TcpRpcServer::Options opts;
    opts.bind_addr = "127.0.0.1";
    opts.io_threads = 1;
    TcpRpcServer server(cluster_->dispatcher(), std::move(opts));

    const NodeId dp = cluster_->data_provider(0).node();
    const chunk::ChunkKey key{22, 1};
    const Buffer payload = make_pattern(22, 1, 0, 256 << 10);
    svc_->put_chunk(dp, key, payload);  // same dispatcher as `server`

    const int slow = connect_raw(server.port(), 4096);
    ASSERT_GE(slow, 0);
    pipeline_chunk_gets(slow, dp, key, 32);
    std::this_thread::sleep_for(milliseconds(200));  // responses park

    TcpTransport sibling("127.0.0.1", server.port());
    ServiceClient svc(sibling, cluster_->version_manager_nodes(),
                      cluster_->provider_manager_node());
    const auto t0 = Clock::now();
    for (int i = 0; i < 16; ++i) {
        const auto got = svc.get_chunk(
            dp, key, static_cast<std::uint64_t>(i) * 1024, 512);
        ASSERT_EQ(got.bytes.size(), 512u);
        EXPECT_EQ(0, std::memcmp(got.bytes.data(),
                                 payload.data() + i * 1024, 512));
    }
    EXPECT_LT(Clock::now() - t0, seconds(5))
        << "sibling RPCs starved behind a parked writer";
    ::close(slow);
}

TEST_P(TransportConformance, IdleConnectionsAreReaped) {
    if (is_sim()) {
        GTEST_SKIP() << "idle sweep is a TCP feature";
    }
    TcpRpcServer::Options opts;
    opts.bind_addr = "127.0.0.1";
    opts.idle_timeout_ms = 200;
    TcpRpcServer server(cluster_->dispatcher(), std::move(opts));

    TcpTransport active_t("127.0.0.1", server.port());
    ServiceClient active(active_t, cluster_->version_manager_nodes(),
                         cluster_->provider_manager_node());
    const auto info = active.create_blob(4096, 1);

    const int idle = connect_raw(server.port(), 0);
    ASSERT_GE(idle, 0);
    for (int i = 0; i < 200 && server.connection_count() < 2; ++i) {
        std::this_thread::sleep_for(milliseconds(10));
    }
    ASSERT_GE(server.connection_count(), 2u);

    // The active connection keeps traffic flowing (so the sweep must
    // not touch it); the idle one must be closed underneath it.
    bool eof = false;
    const auto deadline = Clock::now() + seconds(5);
    while (Clock::now() < deadline) {
        EXPECT_EQ(active.blob_info(info.id).id, info.id);
        std::uint8_t b = 0;
        const ssize_t got = ::recv(idle, &b, 1, MSG_DONTWAIT);
        if (got == 0) {
            eof = true;  // server closed the idle connection
            break;
        }
        ASSERT_LE(got, 0) << "unexpected bytes on an idle connection";
        std::this_thread::sleep_for(milliseconds(50));
    }
    EXPECT_TRUE(eof) << "idle connection was never reaped";
    for (int i = 0; i < 200 && server.connection_count() > 1; ++i) {
        std::this_thread::sleep_for(milliseconds(10));
    }
    EXPECT_EQ(server.connection_count(), 1u);
    // ...and the survivor still answers.
    EXPECT_EQ(active.blob_info(info.id).id, info.id);
    ::close(idle);
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportConformance,
                         ::testing::Values(Mode::kSim, Mode::kTcp),
                         [](const auto& info) {
                             return info.param == Mode::kSim ? "Sim"
                                                             : "Tcp";
                         });

}  // namespace
}  // namespace blobseer::rpc

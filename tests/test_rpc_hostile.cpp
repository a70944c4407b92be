/// \file test_rpc_hostile.cpp
/// \brief Hostile request payloads for every op of the op table, against a
///        live Dispatcher backed by a real in-process Cluster.
///
/// For each op a valid request is generated from the op's declared field
/// types, then sent:
///   * cut at every length short of the whole    -> must fail (non-OK);
///   * with one trailing byte                     -> must fail;
///   * with its first count prefix over-long      -> must fail;
///   * with seeded single-bit flips               -> any status, but the
///     dispatcher answers every frame with a well-formed response.
/// Afterwards a valid get-version on the same dispatcher must still
/// succeed. One TCP case does the same to a TcpRpcServer through raw
/// sockets and then gets an answer on a fresh connection.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/cluster.hpp"
#include "rpc/dispatcher.hpp"
#include "rpc/ops.hpp"
#include "rpc/service_client.hpp"
#include "rpc/tcp_transport.hpp"
#include "testing_util.hpp"

namespace blobseer::rpc {
namespace {

constexpr std::uint8_t kSampleBytes[] = {0xde, 0xad, 0xbe, 0xef};

template <class T>
inline constexpr bool kPrefixed =
    std::is_same_v<T, std::string> || std::is_same_v<T, ConstBytes> ||
    detail::kIsVector<T>;

/// A small valid value of any request field type. Numbers are 1 (blob 1,
/// version 1, ...), strings a numeric loopback address, so no flipped
/// request can name a host that needs resolving.
template <class T>
T sample() {
    if constexpr (std::is_same_v<T, bool>) {
        return true;
    } else if constexpr (std::is_integral_v<T>) {
        return 1;
    } else if constexpr (std::is_enum_v<T>) {
        return T{};
    } else if constexpr (std::is_same_v<T, std::string>) {
        return "127.0.0.1";
    } else if constexpr (std::is_same_v<T, ConstBytes>) {
        return ConstBytes(kSampleBytes);
    } else if constexpr (detail::kIsVector<T> || detail::kIsOptional<T>) {
        return T{sample<typename T::value_type>()};
    } else if constexpr (std::is_same_v<T, meta::MetaNode>) {
        return meta::MetaNode::leaf({2, 3}, 7, 40);
    } else {
        T v{};
        std::apply(
            [](auto&... f) {
                ((f = sample<std::remove_cvref_t<decltype(f)>>()), ...);
            },
            describe(v));
        return v;
    }
}

template <class O>
typename O::Request sample_request() {
    using Req = typename O::Request;
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        return Req{sample<std::tuple_element_t<I, Req>>()...};
    }(std::make_index_sequence<std::tuple_size_v<Req>>{});
}

/// Byte offset of the request's first top-level count/length prefix, or
/// -1 when every top-level field is fixed-size or a nested struct.
template <class O>
long first_prefix_offset(const typename O::Request& req) {
    long found = -1;
    WireWriter w;
    std::apply(
        [&](const auto&... f) {
            (
                [&] {
                    using F = std::remove_cvref_t<decltype(f)>;
                    if (found < 0 && kPrefixed<F>) {
                        found = static_cast<long>(w.size());
                    }
                    encode(w, f);
                }(),
                ...);
        },
        req);
    return found;
}

template <class S>
NodeId dst_for(const Topology& t) {
    if constexpr (std::is_same_v<S, provider::DataProvider>) {
        return t.data_nodes.at(0);
    } else if constexpr (std::is_same_v<S, version::VersionManager>) {
        return t.vm_nodes.at(0);
    } else if constexpr (std::is_same_v<S, dht::MetadataProvider>) {
        return t.meta_nodes.at(0);
    } else if constexpr (std::is_same_v<S, provider::ProviderManager>) {
        return t.pm_node;
    } else {
        return kControlNode;
    }
}

Buffer frame_of(MsgType type, NodeId dst, ConstBytes payload) {
    WireWriter w;
    w.raw(payload);
    return seal_request(type, dst, std::move(w));
}

/// Dispatches inline into one Dispatcher (no simulated wire).
class InlineTransport final : public Transport {
  public:
    explicit InlineTransport(Dispatcher& d) : d_(d) {}
    Future<Buffer> call_async(NodeId /*dst*/, ConstBytes frame) override {
        Promise<Buffer> p;
        Future<Buffer> f = p.future();
        p.set_value(d_.dispatch(frame));
        return f;
    }

  private:
    Dispatcher& d_;
};

class HostileTest : public ::testing::Test {
  protected:
    HostileTest() {
        core::ClusterConfig cfg = testing::fast_config();
        cfg.data_providers = 2;
        cfg.metadata_providers = 1;
        cluster_ = std::make_unique<core::Cluster>(cfg);
        transport_ = std::make_unique<InlineTransport>(cluster_->dispatcher());
        topo_ = fetch_topology(*transport_);
        svc_ = std::make_unique<ServiceClient>(*transport_, topo_.vm_nodes,
                                               topo_.pm_node, 77);
        // Blob 1 is what every sampled request names. Blob 2 is the
        // witness: no single bit flip turns id 1 into 2, so no flipped
        // request can retire or otherwise touch it.
        for (int i = 0; i < 2; ++i) {
            const BlobId blob = svc_->create_blob(4096, 1).id;
            const auto a = svc_->assign(blob, std::nullopt, 4096);
            svc_->commit(blob, a.version);
            (void)svc_->wait_published(blob, a.version, seconds(5));
        }
    }

    [[nodiscard]] Status send(MsgType type, NodeId dst, ConstBytes payload) {
        const Buffer resp = cluster_->dispatcher().dispatch(
            frame_of(type, dst, payload));
        const FrameView f = parse_frame(resp);  // throws if malformed
        EXPECT_TRUE(f.response);
        EXPECT_EQ(f.type, type);
        return f.status();
    }

    template <class O>
    void attack(std::mt19937_64& rng) {
        SCOPED_TRACE(O::name);
        const NodeId dst = dst_for<typename O::Service>(topo_);
        const typename O::Request req = sample_request<O>();
        WireWriter w;
        encode(w, req);
        const Buffer valid = w.take();

        for (std::size_t n = 0; n < valid.size(); ++n) {
            EXPECT_NE(send(O::type, dst, ConstBytes(valid.data(), n)),
                      Status::kOk)
                << "truncated to " << n << " of " << valid.size();
        }

        Buffer trailing = valid;
        trailing.push_back(0);
        EXPECT_NE(send(O::type, dst, trailing), Status::kOk);

        if (const long at = first_prefix_offset<O>(req); at >= 0) {
            // The sampled counts are < 128: a one-byte varint to replace.
            WireWriter huge;
            huge.raw(ConstBytes(valid.data(), static_cast<std::size_t>(at)));
            huge.varint(std::uint64_t{1} << 62);
            huge.raw(ConstBytes(valid).subspan(static_cast<std::size_t>(at) +
                                               1));
            EXPECT_NE(send(O::type, dst, huge.buffer()), Status::kOk);
        }

        for (int i = 0; i < 32 && !valid.empty(); ++i) {
            Buffer flipped = valid;
            const std::size_t bit = rng() % (flipped.size() * 8);
            flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            (void)send(O::type, dst, flipped);
        }
    }

    template <class... Ops>
    void attack_all(OpList<Ops...>) {
        std::mt19937_64 rng(0x5eed);
        (attack<Ops>(rng), ...);
    }

    std::unique_ptr<core::Cluster> cluster_;
    std::unique_ptr<InlineTransport> transport_;
    Topology topo_;
    std::unique_ptr<ServiceClient> svc_;
};

TEST_F(HostileTest, EveryOpRejectsMalformedPayloadsAndStaysLive) {
    attack_all(OpTable{});
    const version::VersionInfo vi = svc_->get_version(2, 1);
    EXPECT_EQ(vi.version, 1u);
    EXPECT_EQ(vi.status, version::VersionStatus::kPublished);
}

TEST_F(HostileTest, SampledRequestsDecode) {
    // The suite is only as strong as its valid baseline: every sampled
    // request must get past decoding (its service may still refuse it).
    std::size_t decoded = 0;
    [&]<class... Ops>(OpList<Ops...>) {
        (
            [&] {
                WireWriter w;
                encode(w, sample_request<Ops>());
                const Buffer resp = cluster_->dispatcher().dispatch(frame_of(
                    Ops::type, dst_for<typename Ops::Service>(topo_),
                    w.buffer()));
                const FrameView f = parse_frame(resp);
                const std::string what =
                    f.status() == Status::kOk ? "" : WireReader(f.payload).str();
                EXPECT_EQ(what.find("frame decode"), std::string::npos)
                    << Ops::name << ": " << what;
                ++decoded;
            }(),
            ...);
    }(OpTable{});
    EXPECT_EQ(decoded, 39u);
}

int connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
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

TEST_F(HostileTest, TcpServerSurvivesHostileFramesOnOtherConnections) {
    TcpRpcServer server(cluster_->dispatcher(), 0, "127.0.0.1");
    WireWriter body;
    body.u64(1);
    const Buffer valid = seal_request(MsgType::kBlobInfo,
                                      topo_.vm_nodes.at(0), std::move(body));

    std::vector<Buffer> hostile;
    hostile.push_back(Buffer(64, 0xff));  // bad magic
    hostile.push_back(Buffer(valid.begin(), valid.begin() + 20));  // cut
    Buffer oversized = valid;  // header claims a payload past the limit
    const std::uint32_t len = kMaxPayload + 1;
    std::memcpy(oversized.data() + 12, &len, sizeof len);
    hostile.push_back(oversized);
    Buffer unknown_tag = valid;
    unknown_tag[6] = 127;
    hostile.push_back(unknown_tag);
    Buffer trailing = frame_of(MsgType::kBlobInfo, topo_.vm_nodes.at(0),
                               Buffer{1, 0, 0, 0, 0, 0, 0, 0, 0});
    hostile.push_back(trailing);
    for (const Buffer& frame : hostile) {
        const int fd = connect_loopback(server.port());
        ASSERT_GE(fd, 0);
        EXPECT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(frame.size()));
        ::close(fd);
    }

    TcpTransport fresh("127.0.0.1", server.port());
    ServiceClient remote(fresh, topo_.vm_nodes, topo_.pm_node, 78);
    EXPECT_EQ(remote.blob_info(1).id, 1u);
    EXPECT_EQ(remote.get_version(2, 1).version, 1u);
}

}  // namespace
}  // namespace blobseer::rpc

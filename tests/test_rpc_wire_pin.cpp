/// \file test_rpc_wire_pin.cpp
/// \brief Byte-for-byte pin of every RPC of wire protocol v7.
///
/// For each of the 39 MsgType values this pins the tag, the to_string
/// name (perfbench and the metrics registry use it as a label), the
/// request payload ServiceClient encodes for a fixed argument set, and
/// the response payload a fresh in-process Cluster answers with. The
/// expected values are the wire format: a change to any of them is a
/// protocol change and needs a kWireVersion bump, not an edit here.
///
/// Exempt responses (not deterministic on a fresh cluster):
///  * metrics-dump — a snapshot of the process-wide metrics registry,
///    which every earlier test in the binary and the wall clock feed;
///  * trace-dump   — the process-wide span ring, same reason.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "core/cluster.hpp"
#include "rpc/protocol.hpp"
#include "rpc/service_client.hpp"
#include "testing_util.hpp"

namespace blobseer {
namespace {

using rpc::MsgType;

std::string hex(ConstBytes b) {
    std::string out;
    out.reserve(b.size() * 2);
    for (const std::uint8_t c : b) {
        char two[3];
        std::snprintf(two, sizeof two, "%02x", c);
        out += two;
    }
    return out;
}

/// First request and response payload seen for each op.
struct Exchange {
    std::string request;
    std::string response;
    rpc::Status status = rpc::Status::kOk;
};

/// Dispatches inline into a cluster's Dispatcher and records the first
/// exchange of every op it carries.
class RecordingTransport final : public rpc::Transport {
  public:
    explicit RecordingTransport(rpc::Dispatcher& d) : dispatcher_(d) {}

    Future<Buffer> call_async(NodeId dst, ConstBytes frame) override {
        Promise<Buffer> p;
        Future<Buffer> f = p.future();
        p.set_value(roundtrip(dst, frame));
        return f;
    }

    Buffer roundtrip(NodeId /*dst*/, ConstBytes frame) override {
        Buffer resp = dispatcher_.dispatch(frame);
        const rpc::FrameView req = rpc::parse_frame(frame);
        const rpc::FrameView rsp = rpc::parse_frame(resp);
        if (seen.count(req.type) == 0) {
            seen[req.type] = {hex(req.payload), hex(rsp.payload),
                              rsp.status()};
        }
        return resp;
    }

    std::map<MsgType, Exchange> seen;

  private:
    rpc::Dispatcher& dispatcher_;
};

struct Pin {
    MsgType type;
    std::uint16_t tag;
    const char* name;
    const char* request;
    const char* response;  ///< nullptr = exempt (see file comment)
};

// clang-format off
const Pin kPins[] = {
    {MsgType::kChunkPut, 1, "chunk-put", "0001000000000000000700000000000000281f1123bba773fe253bc5f5e0b8879805527750f3c728d5f4a4414f19f96acaaa3ab2d4b804871bbd", ""},
    {MsgType::kChunkGet, 2, "chunk-get", "000100000000000000070000000000000005000000000000000a00000000000000", "28000000000000000a73fe253bc5f5e0b88798"},
    {MsgType::kChunkErase, 3, "chunk-erase", "0001000000000000000800000000000000", ""},
    {MsgType::kChunkCheck, 4, "chunk-check", "0001000000000000000700000000000000012800000000000000", "01"},
    {MsgType::kChunkPushStart, 5, "chunk-push-start", "00010000000000000008000000000000000600000000000000", "0100000000000000"},
    {MsgType::kChunkPushSome, 6, "chunk-push-some", "0100000000000000000000000000000006010203040506", ""},
    {MsgType::kChunkPushEnd, 7, "chunk-push-end", "0100000000000000", ""},
    {MsgType::kChunkPullStart, 8, "chunk-pull-start", "0001000000000000000800000000000000", "0600000000000000"},
    {MsgType::kChunkPullSome, 9, "chunk-pull-some", "000100000000000000080000000000000002000000000000000300000000000000", "060000000000000003030405"},
    {MsgType::kChunkDecref, 10, "chunk-decref", "0001000000000000000700000000000000", "0100000000000000"},
    {MsgType::kDedupStatus, 11, "dedup-status", "", "010000000000000028000000000000000100000000000000000000000000000028000000000000000000000000000000010000000000000000000000000000000000000000000000"},
    {MsgType::kBlobCreate, 16, "blob-create", "000001000000000001000000", "0100000000000000000001000000000001000000"},
    {MsgType::kBlobClone, 17, "blob-clone", "01000000000000000100000000000000", "0200000000000000000001000000000001000000"},
    {MsgType::kBlobInfo, 18, "blob-info", "0100000000000000", "0100000000000000000001000000000001000000"},
    {MsgType::kAssign, 19, "assign", "0100000000000000000010000000000000", "0100000000000000000000000000000000000000000000000010000000000000ffffffffffffffff0000000000000000000000000000000000000001000000000001000000"},
    {MsgType::kCommit, 20, "commit", "01000000000000000100000000000000", ""},
    {MsgType::kGetVersion, 21, "get-version", "01000000000000000100000000000000", "0100000000000000001000000000000002010000000000000001000000000000000010000000000000"},
    {MsgType::kWaitPublished, 22, "wait-published", "010000000000000001000000000000008813000000000000", "0100000000000000001000000000000002010000000000000001000000000000000010000000000000"},
    {MsgType::kHistory, 23, "history", "010000000000000000000000000000000500000000000000", "02010000000000000002000000000000000000100000000000000010000000000000020000000000000000000001000000000064000000000000006400010000000000"},
    {MsgType::kPin, 24, "pin", "01000000000000000100000000000000", "01"},
    {MsgType::kUnpin, 25, "unpin", "01000000000000000100000000000000", ""},
    {MsgType::kRetire, 26, "retire", "01000000000000000100000000000000", "0001010000000000000000000000000000000010000000000000000000000000000000100000000000000101000000000000000100000000000000"},
    {MsgType::kDescriptorOf, 27, "descriptor-of", "01000000000000000100000000000000", "01000000000000000000000000000000001000000000000000000000000000000010000000000000"},
    {MsgType::kBlobCloneFrom, 28, "blob-clone-from", "000001000000000001000000010000000000000001000000000000000010000000000000", "0300000000000000000001000000000001000000"},
    {MsgType::kVmStatus, 29, "vm-status", "", "000000000300000000000000020000000000000001000000000000000000000000000000010000000000000001000000000000000200000000000000"},
    {MsgType::kMetaPut, 48, "meta-put", "0101000000000000000100000000000000000000000000000001000000000000000100020200000009000000070000000000000028000000", ""},
    {MsgType::kMetaGet, 49, "meta-get", "0100000000000000010000000000000000000000000000000100000000000000", "0100020200000009000000070000000000000028000000"},
    {MsgType::kMetaTryGet, 50, "meta-try-get", "0100000000000000010000000000000000000000000000000100000000000000", "010100020200000009000000070000000000000028000000"},
    {MsgType::kMetaErase, 51, "meta-erase", "0100000000000000010000000000000000000000000000000100000000000000", ""},
    {MsgType::kPlace, 64, "place", "0300000000000000010000000000010000000000", "03010200000001030000000102000000"},
    {MsgType::kMarkDead, 65, "mark-dead", "03000000", ""},
    {MsgType::kProviderJoin, 66, "provider-join", "056578742d61", "0000200000"},
    {MsgType::kProviderAnnounce, 67, "provider-announce", "00002000093132372e302e302e31591b00000100010000000000000007000000000000002800000000000000", ""},
    {MsgType::kProviderBeat, 68, "provider-beat", "0000200001000000000000000100010000000000000008000000000000000600000000000000010001000000000000000700000000000000", "01"},
    {MsgType::kReportFailure, 69, "report-failure", "000020004d000000", "01"},
    {MsgType::kRepairStatus, 70, "repair-status", "", "00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000020200000001000000000000000000ffffffffffffffff010000000000000028000000000000000300000001000000000000000000ffffffffffffffff00000000000000000000000000000000"},
    {MsgType::kTopology, 80, "topology", "", "0100000000010000000202000000030000000104000000010000000100000088130000000000000000100000000000000000000000"},
    {MsgType::kMetricsDump, 81, "metrics-dump", "", nullptr},
    {MsgType::kTraceDump, 82, "trace-dump", "88776655443322110300000000000000", nullptr},
};
// clang-format on

/// Drive every op once, in an order where each response is a pure
/// function of the requests before it.
std::map<MsgType, Exchange> run_script() {
    core::ClusterConfig cfg = testing::fast_config();
    cfg.data_providers = 2;
    cfg.metadata_providers = 1;
    core::Cluster cluster(cfg);
    RecordingTransport transport(cluster.dispatcher());
    const rpc::Topology topo = rpc::fetch_topology(transport);
    rpc::ServiceClient svc(transport, topo.vm_nodes, topo.pm_node, 77);
    const NodeId dp = topo.data_nodes.at(0);
    const NodeId mp = topo.meta_nodes.at(0);

    // Version manager.
    const version::BlobInfo blob = svc.create_blob(65536, 1);
    (void)svc.blob_info(blob.id);
    const version::AssignResult a = svc.assign(blob.id, std::nullopt, 4096);
    (void)svc.assign(blob.id, std::uint64_t{65536}, 100);
    svc.commit(blob.id, a.version);
    (void)svc.wait_published(blob.id, a.version, seconds(5));
    (void)svc.get_version(blob.id, a.version);
    (void)svc.history(blob.id, 0, 5);
    (void)svc.pin(blob.id, a.version);
    svc.unpin(blob.id, a.version);
    (void)svc.descriptor_of(blob.id, a.version);
    (void)svc.clone_blob(blob.id, a.version);
    (void)svc.clone_from(65536, 1, meta::TreeRef{blob.id, a.version, 4096});
    (void)svc.retire(blob.id, a.version);
    (void)svc.vm_status(topo.vm_nodes.at(0));

    // Data provider.
    const chunk::ChunkKey key{blob.id, 7};
    const Buffer payload = make_pattern(blob.id, 3, 0, 40);
    svc.put_chunk(dp, key, payload);
    (void)svc.get_chunk(dp, key, 5, 10);
    (void)svc.check_chunk(dp, key, true, 40);
    const chunk::ChunkKey pushed{blob.id, 8};
    const std::uint64_t xfer = svc.push_start(dp, pushed, 6);
    const std::uint8_t six[] = {1, 2, 3, 4, 5, 6};
    svc.push_some(dp, xfer, 0, six);
    svc.push_end(dp, xfer);
    (void)svc.pull_start(dp, pushed);
    (void)svc.pull_some(dp, pushed, 2, 3);
    (void)svc.chunk_decref(dp, key);
    svc.erase_chunk(dp, pushed);
    (void)svc.dedup_status(dp);

    // Metadata provider.
    const meta::MetaKey leaf_key{blob.id, a.version, {0, 1}};
    svc.meta_put(mp, {{leaf_key, meta::MetaNode::leaf({dp, 9}, 7, 40)}});
    (void)svc.meta_get(mp, leaf_key);
    (void)svc.meta_try_get(mp, leaf_key);
    svc.meta_erase(mp, leaf_key);

    // Provider manager (repair-status first: it reports beat ages,
    // which become wall-clock dependent once a provider has beaten).
    (void)svc.repair_status();
    (void)svc.place(3, 1, 65536);
    const auto joined = svc.provider_join("ext-a");
    svc.provider_announce(joined.node, "127.0.0.1", 7001,
                          {provider::ChunkHolding{key, 40}});
    (void)svc.provider_beat(joined.node, 1,
                            {provider::ChunkHolding{pushed, 6}}, {key});
    (void)svc.report_failure(joined.node);
    svc.mark_dead(topo.data_nodes.at(1));

    // Observability.
    (void)svc.metrics_dump();
    (void)svc.trace_dump(0x1122334455667788ull, 3);
    return std::move(transport.seen);
}

TEST(WirePin, EveryOpTagNameRequestAndResponse) {
    const std::map<MsgType, Exchange> seen = run_script();
    EXPECT_EQ(std::size(kPins), 39u);
    for (const Pin& p : kPins) {
        SCOPED_TRACE(p.name);
        EXPECT_EQ(static_cast<std::uint16_t>(p.type), p.tag);
        EXPECT_STREQ(rpc::to_string(p.type), p.name);
        EXPECT_TRUE(rpc::known_op(p.type)) << "missing from the op table";
        const auto it = seen.find(p.type);
        ASSERT_NE(it, seen.end()) << "op never exercised";
        EXPECT_EQ(it->second.request, p.request);
        EXPECT_EQ(it->second.status, rpc::Status::kOk);
        if (p.response != nullptr) {
            EXPECT_EQ(it->second.response, p.response);
        }
    }
}

}  // namespace
}  // namespace blobseer

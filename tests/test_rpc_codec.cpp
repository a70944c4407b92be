/// \file test_rpc_codec.cpp
/// \brief Wire-codec property tests: random messages round-trip
///        identically; truncated and corrupted frames raise RpcError and
///        never invoke UB.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "rpc/messages.hpp"
#include "rpc/protocol.hpp"
#include "rpc/wire.hpp"

namespace blobseer::rpc {
namespace {

// ---- primitives -------------------------------------------------------------

TEST(Wire, FixedWidthRoundTrip) {
    WireWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    r.expect_end();
}

TEST(Wire, VarintRoundTripBoundaries) {
    const std::uint64_t cases[] = {0,
                                   1,
                                   127,
                                   128,
                                   16383,
                                   16384,
                                   (1ULL << 32) - 1,
                                   1ULL << 32,
                                   ~0ULL};
    for (const std::uint64_t v : cases) {
        WireWriter w;
        w.varint(v);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        EXPECT_EQ(r.varint(), v) << v;
        r.expect_end();
    }
}

TEST(Wire, VarintRandomRoundTrip) {
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        // Bias towards small values but cover the whole range.
        const std::uint64_t v = rng() >> (rng() % 64);
        WireWriter w;
        w.varint(v);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        EXPECT_EQ(r.varint(), v);
    }
}

TEST(Wire, TruncatedReadsThrow) {
    WireWriter w;
    w.u64(42);
    Buffer buf = w.take();
    buf.resize(5);
    WireReader r{ConstBytes(buf)};
    EXPECT_THROW((void)r.u64(), RpcError);
}

TEST(Wire, OversizedBlobLengthThrows) {
    WireWriter w;
    w.varint(1ULL << 40);  // claims a terabyte of payload
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    EXPECT_THROW((void)r.blob(), RpcError);
}

TEST(Wire, OverlongVarintThrows) {
    const Buffer buf(11, 0xff);  // 11 continuation bytes
    WireReader r{ConstBytes(buf)};
    EXPECT_THROW((void)r.varint(), RpcError);
}

TEST(Wire, TrailingBytesDetected) {
    WireWriter w;
    w.u32(1);
    w.u8(9);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    (void)r.u32();
    EXPECT_THROW(r.expect_end(), RpcError);
}

// ---- random message generators ----------------------------------------------

meta::MetaNode random_node(Rng& rng) {
    if (rng() % 2 == 0) {
        std::vector<NodeId> replicas;
        const std::size_t n = rng() % 5;
        for (std::size_t i = 0; i < n; ++i) {
            replicas.push_back(static_cast<NodeId>(rng()));
        }
        return meta::MetaNode::leaf(std::move(replicas), rng(),
                                    static_cast<std::uint32_t>(rng()));
    }
    meta::ChildRef l{rng(), rng()};
    meta::ChildRef r{rng(), rng()};
    return meta::MetaNode::inner(l, r);
}

meta::WriteDescriptor random_descriptor(Rng& rng) {
    meta::WriteDescriptor d;
    d.version = rng();
    d.offset = rng();
    d.size = rng();
    d.size_before = rng();
    d.size_after = rng();
    return d;
}

version::AssignResult random_assign(Rng& rng) {
    version::AssignResult a;
    a.version = rng();
    a.offset = rng();
    a.size_before = rng();
    a.size_after = rng();
    a.base = meta::TreeRef{rng(), rng(), rng()};
    const std::size_t n = rng() % 6;
    for (std::size_t i = 0; i < n; ++i) {
        a.concurrent.push_back(random_descriptor(rng));
    }
    a.chunk_size = rng();
    a.replication = static_cast<std::uint32_t>(rng());
    return a;
}

bool equal(const meta::MetaNode& a, const meta::MetaNode& b) {
    return a.kind == b.kind && a.left == b.left && a.right == b.right &&
           a.replicas == b.replicas && a.chunk_uid == b.chunk_uid &&
           a.chunk_bytes == b.chunk_bytes;
}

// ---- composite round trips ---------------------------------------------------

TEST(Codec, MetaNodeRandomRoundTrip) {
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        const meta::MetaNode n = random_node(rng);
        WireWriter w;
        put_meta_node(w, n);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        const meta::MetaNode back = get_meta_node(r);
        r.expect_end();
        EXPECT_TRUE(equal(n, back));
    }
}

TEST(Codec, MetaNodeMinBytesIsTheShortestEncoding) {
    // min_bytes bounds the count prefix of a meta-put batch: it must be
    // the size of the shortest node, an empty-replica uid leaf.
    WireWriter hole;
    put_meta_node(hole, meta::MetaNode::leaf({}, 0, 0));
    EXPECT_EQ(hole.size(), Wire<meta::MetaNode>::min_bytes);
    WireWriter cas;
    put_meta_node(cas, meta::MetaNode::cas_leaf({}, 1, 2, 3));
    EXPECT_GT(cas.size(), Wire<meta::MetaNode>::min_bytes);
    Rng rng(17);
    for (int i = 0; i < 500; ++i) {
        WireWriter w;
        put_meta_node(w, random_node(rng));
        EXPECT_GE(w.size(), Wire<meta::MetaNode>::min_bytes);
    }
    static_assert(wire_min<meta::KeyedNode>() ==
                  meta::kMetaKeyWireSize + Wire<meta::MetaNode>::min_bytes);
}

TEST(Codec, MetaNodeBatchRoundTrip) {
    Rng rng(19);
    std::vector<meta::KeyedNode> batch;
    for (std::uint64_t i = 0; i < 40; ++i) {
        batch.emplace_back(meta::MetaKey{rng(), rng(), {i, 1}},
                           random_node(rng));
    }
    WireWriter w;
    encode(w, batch);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    const auto back = decode<std::vector<meta::KeyedNode>>(r);
    r.expect_end();
    ASSERT_EQ(back.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(back[i].first, batch[i].first);
        EXPECT_TRUE(equal(back[i].second, batch[i].second));
    }
}

TEST(Codec, AssignResultRandomRoundTrip) {
    Rng rng(13);
    for (int i = 0; i < 300; ++i) {
        const version::AssignResult a = random_assign(rng);
        WireWriter w;
        put_assign_result(w, a);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        const version::AssignResult back = get_assign_result(r);
        r.expect_end();
        EXPECT_EQ(back.version, a.version);
        EXPECT_EQ(back.offset, a.offset);
        EXPECT_EQ(back.size_before, a.size_before);
        EXPECT_EQ(back.size_after, a.size_after);
        EXPECT_EQ(back.base.blob, a.base.blob);
        EXPECT_EQ(back.base.version, a.base.version);
        EXPECT_EQ(back.base.size, a.base.size);
        EXPECT_EQ(back.chunk_size, a.chunk_size);
        EXPECT_EQ(back.replication, a.replication);
        ASSERT_EQ(back.concurrent.size(), a.concurrent.size());
        for (std::size_t k = 0; k < a.concurrent.size(); ++k) {
            EXPECT_EQ(back.concurrent[k].version, a.concurrent[k].version);
            EXPECT_EQ(back.concurrent[k].offset, a.concurrent[k].offset);
            EXPECT_EQ(back.concurrent[k].size, a.concurrent[k].size);
        }
    }
}

TEST(Codec, RetireInfoRoundTrip) {
    Rng rng(17);
    version::VersionManager::RetireInfo info;
    for (int i = 0; i < 7; ++i) {
        info.retired.push_back(rng());
        info.descriptors.push_back(random_descriptor(rng));
        info.pinned.push_back(rng());
    }
    info.keep_from = rng();
    WireWriter w;
    put_retire_info(w, info);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    const auto back = get_retire_info(r);
    r.expect_end();
    EXPECT_EQ(back.retired, info.retired);
    EXPECT_EQ(back.pinned, info.pinned);
    EXPECT_EQ(back.keep_from, info.keep_from);
    ASSERT_EQ(back.descriptors.size(), info.descriptors.size());
}

TEST(Codec, PlacementPlanRoundTrip) {
    Rng rng(19);
    provider::PlacementPlan plan;
    for (int i = 0; i < 9; ++i) {
        std::vector<NodeId> targets;
        const std::size_t n = rng() % 4;
        for (std::size_t k = 0; k < n; ++k) {
            targets.push_back(static_cast<NodeId>(rng()));
        }
        plan.push_back(std::move(targets));
    }
    WireWriter w;
    put_placement_plan(w, plan);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    EXPECT_EQ(get_placement_plan(r), plan);
    r.expect_end();
}

TEST(Codec, TopologyRoundTrip) {
    Topology t;
    t.vm_nodes = {0, 9};
    t.pm_node = 1;
    t.data_nodes = {2, 3, 4};
    t.meta_nodes = {5, 6};
    t.meta_replication = 2;
    t.default_replication = 3;
    t.publish_timeout_ms = 12345;
    t.client_id = 1u << 20;
    // v6: external provider daemons carried as dial endpoints.
    t.provider_endpoints = {{1u << 21, "10.0.0.7", 40001},
                            {(1u << 21) + 1, "dp-b.example", 40002}};
    WireWriter w;
    put_topology(w, t);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    EXPECT_EQ(get_topology(r), t);
    r.expect_end();
}

// ---- membership & repair (protocol v6) --------------------------------------

chunk::ChunkKey random_key(Rng& rng) {
    chunk::ChunkKey k;
    k.blob = rng();
    k.uid = rng();
    k.kind = (rng() % 2 == 0) ? chunk::ChunkKey::Kind::kUid
                              : chunk::ChunkKey::Kind::kContent;
    return k;
}

TEST(Codec, ChunkHoldingsRandomRoundTrip) {
    Rng rng(29);
    for (int i = 0; i < 200; ++i) {
        std::vector<provider::ChunkHolding> v;
        const std::size_t n = rng() % 8;
        for (std::size_t k = 0; k < n; ++k) {
            v.push_back({random_key(rng), rng()});
        }
        WireWriter w;
        put_chunk_holdings(w, v);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        EXPECT_EQ(get_chunk_holdings(r), v);
        r.expect_end();
    }
}

TEST(Codec, ChunkKeysRandomRoundTrip) {
    Rng rng(31);
    for (int i = 0; i < 200; ++i) {
        std::vector<chunk::ChunkKey> v;
        const std::size_t n = rng() % 8;
        for (std::size_t k = 0; k < n; ++k) {
            v.push_back(random_key(rng));
        }
        WireWriter w;
        put_chunk_keys(w, v);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        EXPECT_EQ(get_chunk_keys(r), v);
        r.expect_end();
    }
}

TEST(Codec, ProviderHealthRoundTrip) {
    provider::ProviderHealth h;
    h.node = 1u << 21;
    h.alive = true;
    h.heartbeating = true;
    h.beats = 420;
    h.last_beat_age_ms = 1234;
    h.chunks = 77;
    h.bytes = 1ULL << 33;
    WireWriter w;
    put_provider_health(w, h);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    EXPECT_EQ(get_provider_health(r), h);
    r.expect_end();

    // The never-beaten sentinel (~0) must survive the wire unchanged —
    // the CLI renders it as "never", not as a huge age.
    provider::ProviderHealth silent;
    silent.node = 3;
    silent.last_beat_age_ms = ~0ull;
    WireWriter w2;
    put_provider_health(w2, silent);
    const Buffer buf2 = w2.take();
    WireReader r2{ConstBytes(buf2)};
    EXPECT_EQ(get_provider_health(r2).last_beat_age_ms, ~0ull);
    r2.expect_end();
}

TEST(Codec, RepairStatusRoundTrip) {
    Rng rng(37);
    provider::RepairStatus s;
    s.backlog = rng();
    s.high_water = rng();
    s.enqueued = rng();
    s.completed = rng();
    s.skipped = rng();
    s.failed = rng();
    s.deferred = rng();
    s.under_replicated = rng();
    for (int i = 0; i < 5; ++i) {
        provider::ProviderHealth h;
        h.node = static_cast<NodeId>(rng());
        h.alive = rng() % 2 == 0;
        h.heartbeating = rng() % 2 == 0;
        h.beats = rng();
        h.last_beat_age_ms = rng();
        h.chunks = rng();
        h.bytes = rng();
        s.providers.push_back(h);
    }
    WireWriter w;
    put_repair_status(w, s);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    EXPECT_EQ(get_repair_status(r), s);
    r.expect_end();
}

TEST(Codec, VersionStatusRejectsUnknownValue) {
    Buffer buf{0x17};
    WireReader r{ConstBytes(buf)};
    EXPECT_THROW((void)get_version_status(r), RpcError);
}

// ---- frames ------------------------------------------------------------------

TEST(Frame, RequestRoundTrip) {
    WireWriter body;
    body.u64(77);
    const Buffer frame = seal_request(MsgType::kGetVersion, 9,
                                      std::move(body));
    const FrameView f = parse_frame(frame);
    EXPECT_FALSE(f.response);
    EXPECT_EQ(f.type, MsgType::kGetVersion);
    EXPECT_EQ(f.dst(), 9u);
    WireReader r(f.payload);
    EXPECT_EQ(r.u64(), 77u);
    r.expect_end();
}

TEST(Frame, ErrorResponseCarriesStatusAndMessage) {
    const Buffer frame =
        seal_error(MsgType::kChunkGet, Status::kNotFound, "gone");
    const FrameView f = parse_frame(frame);
    EXPECT_TRUE(f.response);
    EXPECT_EQ(f.status(), Status::kNotFound);
    WireReader r(f.payload);
    EXPECT_THROW(throw_status(f.status(), r.str()), NotFoundError);
}

TEST(Frame, EveryTruncationThrows) {
    WireWriter body;
    body.u64(1);
    body.str("hello");
    const Buffer frame = seal_request(MsgType::kAssign, 3, std::move(body));
    for (std::size_t n = 0; n < frame.size(); ++n) {
        EXPECT_THROW((void)parse_frame(ConstBytes(frame.data(), n)),
                     RpcError)
            << "prefix length " << n;
    }
}

TEST(Frame, RandomCorruptionNeverUB) {
    // Flip bytes all over valid frames; parse + payload decode must
    // either succeed or throw RpcError — anything else (crash, UB,
    // foreign exception) fails the test.
    Rng rng(23);
    WireWriter body;
    body.u64(4);
    body.u64(2);
    const Buffer pristine =
        seal_request(MsgType::kGetVersion, 1, std::move(body));
    for (int i = 0; i < 4000; ++i) {
        Buffer frame = pristine;
        const std::size_t flips = 1 + rng() % 4;
        for (std::size_t k = 0; k < flips; ++k) {
            frame[rng() % frame.size()] ^=
                static_cast<std::uint8_t>(1 + rng() % 255);
        }
        try {
            const FrameView f = parse_frame(frame);
            WireReader r(f.payload);
            (void)r.u64();
            (void)r.u64();
            r.expect_end();
        } catch (const RpcError&) {
            // expected failure mode
        }
    }
}

TEST(Frame, PayloadLengthMismatchThrows) {
    WireWriter body;
    body.u64(1);
    Buffer frame = seal_request(MsgType::kCommit, 0, std::move(body));
    frame.push_back(0x00);  // extra byte the header does not announce
    EXPECT_THROW((void)parse_frame(frame), RpcError);
}

// ---- v7 header layout (wire ABI pin) -----------------------------------------

TEST(FrameV7, GoldenHeaderLayout) {
    // Byte-exact pin of the 40-byte v7 header. If this test breaks, the
    // wire ABI changed: bump kWireVersion and update DESIGN.md §7.
    static_assert(kWireVersion == 8);
    static_assert(kFrameHeaderSize == 40);
    static_assert(kFrameCorrOffset == 16);
    static_assert(kFrameTraceOffset == 24);

    WireWriter body;
    body.u64(0x1122334455667788ULL);
    Buffer frame = seal_request(MsgType::kGetVersion, 0x0a0b0c0d,
                                std::move(body));
    set_frame_corr(frame, 0x00c0ffee00c0ffeeULL);
    trace::TraceContext ctx;
    ctx.trace_id = 0xfeedfacecafebeefULL;
    ctx.span_id = 0x21436587u;
    ctx.flags = trace::TraceContext::kSampled;
    set_frame_trace(frame, ctx);

    ASSERT_EQ(frame.size(), kFrameHeaderSize + 8);
    const std::uint8_t expected_header[kFrameHeaderSize] = {
        0x50, 0x52, 0x53, 0x42,  //  0: magic "PRSB" little-endian
        0x08,                    //  4: wire version
        0x00,                    //  5: kind = request
        0x15, 0x00,              //  6: MsgType::kGetVersion tag (21)
        0x0d, 0x0c, 0x0b, 0x0a,  //  8: destination node id
        0x08, 0x00, 0x00, 0x00,  // 12: payload length
        0xee, 0xff, 0xc0, 0x00, 0xee, 0xff, 0xc0, 0x00,  // 16: corr id
        0xef, 0xbe, 0xfe, 0xca, 0xce, 0xfa, 0xed, 0xfe,  // 24: trace id
        0x87, 0x65, 0x43, 0x21,  // 32: span id
        0x01,                    // 36: flags (sampled)
        0x00, 0x00, 0x00,        // 37: reserved, zero
    };
    for (std::size_t i = 0; i < kFrameHeaderSize; ++i) {
        EXPECT_EQ(frame[i], expected_header[i]) << "header byte " << i;
    }
    EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kGetVersion), 21)
        << "update the golden bytes if the tag moved";
}

TEST(FrameV7, TraceContextRoundTrip) {
    Buffer frame = seal_request(MsgType::kAssign, 1, WireWriter{});
    // Untraced by default: sealed frames carry an all-zero context.
    EXPECT_EQ(frame_trace(frame), trace::TraceContext{});

    trace::TraceContext ctx;
    ctx.trace_id = 0xabcdef0123456789ULL;
    ctx.span_id = 0xdeadbeefu;
    ctx.flags = trace::TraceContext::kSampled;
    set_frame_trace(frame, ctx);
    EXPECT_EQ(frame_trace(frame), ctx);

    // The context must survive parse_frame untouched (and not disturb
    // the rest of the header).
    const FrameView f = parse_frame(frame);
    EXPECT_EQ(f.type, MsgType::kAssign);
    EXPECT_EQ(f.dst(), 1u);
    EXPECT_EQ(frame_trace(frame), ctx);
}

TEST(FrameV7, TraceAccessorsRejectShortFrames) {
    Buffer runt(kFrameHeaderSize - 1, 0);
    EXPECT_THROW((void)frame_trace(runt), RpcError);
    trace::TraceContext ctx;
    ctx.trace_id = 1;
    EXPECT_THROW(set_frame_trace(runt, ctx), RpcError);
}

// ---- observability payload codecs --------------------------------------------

TEST(MetricsCodec, SampleRoundTripsEveryKind) {
    MetricSample s;
    s.name = "rpc_server_latency_us";
    s.labels = {{"op", "chunk-put"}, {"node", "3"}};
    s.kind = MetricKind::kHistogram;
    s.value = 1;
    s.high_water = 2;
    s.count = 17;
    s.sum = 123456;
    s.min = 3;
    s.max = 99999;
    s.buckets = {{1, 4}, {255, 9}, {1023, 4}};

    WireWriter w;
    put_metric_sample(w, s);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    const MetricSample got = get_metric_sample(r);
    r.expect_end();
    EXPECT_EQ(got, s);
}

TEST(MetricsCodec, SnapshotRoundTrip) {
    MetricsSnapshot snap;
    for (int i = 0; i < 5; ++i) {
        MetricSample s;
        s.name = "series_" + std::to_string(i);
        s.labels = {{"i", std::to_string(i)}};
        s.kind = static_cast<MetricKind>(i);
        s.value = static_cast<std::uint64_t>(i) * 1000;
        snap.samples.push_back(std::move(s));
    }
    WireWriter w;
    put_metrics_snapshot(w, snap);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    const MetricsSnapshot got = get_metrics_snapshot(r);
    r.expect_end();
    EXPECT_EQ(got, snap);
}

TEST(TraceCodec, SpanRecordRoundTrip) {
    trace::SpanRecord s;
    s.trace_id = 0x1234567890abcdefULL;
    s.span_id = 42;
    s.parent_span = 7;
    s.start_unix_us = 1'700'000'000'000'000ULL;
    s.queue_us = 12;
    s.duration_us = 345;
    s.bytes = 65536;
    s.node = 9;
    s.kind = trace::SpanRecord::kServer;
    s.status = 2;
    s.set_op("chunk-push-some");

    WireWriter w;
    put_span_record(w, s);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    const trace::SpanRecord got = get_span_record(r);
    r.expect_end();
    EXPECT_EQ(std::memcmp(&got, &s, sizeof(s)), 0);
}

TEST(TraceCodec, SpanRecordVectorRoundTripAndTruncationThrows) {
    std::vector<trace::SpanRecord> spans(3);
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
        spans[i].trace_id = 0xabc;
        spans[i].span_id = i + 1;
        spans[i].set_op("op");
    }
    WireWriter w;
    put_span_records(w, spans);
    const Buffer buf = w.take();
    {
        WireReader r{ConstBytes(buf)};
        const auto got = get_span_records(r);
        r.expect_end();
        ASSERT_EQ(got.size(), spans.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(std::memcmp(&got[i], &spans[i], sizeof spans[i]), 0);
        }
    }
    for (std::size_t n = 0; n < buf.size(); ++n) {
        WireReader r{ConstBytes(buf.data(), n)};
        EXPECT_THROW((void)get_span_records(r), RpcError)
            << "prefix length " << n;
    }
}

}  // namespace
}  // namespace blobseer::rpc

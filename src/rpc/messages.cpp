#include "rpc/messages.hpp"

#include "common/error.hpp"

namespace blobseer::rpc {

void Wire<meta::MetaNode>::put(WireWriter& w, const meta::MetaNode& n) {
    w.u8(static_cast<std::uint8_t>(n.kind));
    w.u8(n.cas ? 1 : 0);  // flags (v5): bit 0 = content-addressed leaf
    if (n.is_leaf()) {
        encode(w, n.replicas);
        w.u64(n.chunk_uid);
        if (n.cas) {
            w.u64(n.chunk_uid_hi);
        }
        w.u32(n.chunk_bytes);
    } else {
        w.u64(n.left.blob);
        w.u64(n.left.version);
        w.u64(n.right.blob);
        w.u64(n.right.version);
    }
}

meta::MetaNode Wire<meta::MetaNode>::get(WireReader& r) {
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(meta::MetaNode::Kind::kLeaf)) {
        throw RpcError("frame decode: bad meta-node kind " +
                       std::to_string(kind));
    }
    const std::uint8_t flags = r.u8();
    if (flags > 1) {
        throw RpcError("frame decode: bad meta-node flags " +
                       std::to_string(flags));
    }
    meta::MetaNode n;
    n.kind = static_cast<meta::MetaNode::Kind>(kind);
    n.cas = (flags & 1) != 0;
    if (n.is_leaf()) {
        decode(r, n.replicas);
        n.chunk_uid = r.u64();
        if (n.cas) {
            n.chunk_uid_hi = r.u64();
        }
        n.chunk_bytes = r.u32();
    } else {
        n.left.blob = r.u64();
        n.left.version = r.u64();
        n.right.blob = r.u64();
        n.right.version = r.u64();
    }
    return n;
}

void Wire<trace::SpanRecord>::put(WireWriter& w, const trace::SpanRecord& s) {
    w.u64(s.trace_id);
    w.u32(s.span_id);
    w.u32(s.parent_span);
    w.u64(s.start_unix_us);
    w.u64(s.queue_us);
    w.u64(s.duration_us);
    w.u64(s.bytes);
    w.u32(s.node);
    w.u8(s.kind);
    w.u8(s.status);
    w.str(s.op_name());
}

trace::SpanRecord Wire<trace::SpanRecord>::get(WireReader& r) {
    trace::SpanRecord s;
    s.trace_id = r.u64();
    s.span_id = r.u32();
    s.parent_span = r.u32();
    s.start_unix_us = r.u64();
    s.queue_us = r.u64();
    s.duration_us = r.u64();
    s.bytes = r.u64();
    s.node = r.u32();
    s.kind = r.u8();
    if (s.kind > trace::SpanRecord::kServer) {
        throw RpcError("frame decode: bad span kind " +
                       std::to_string(s.kind));
    }
    s.status = r.u8();
    s.set_op(r.str());
    return s;
}

void Wire<Topology>::put(WireWriter& w, const Topology& t) {
    encode(w, describe(t));
}

Topology Wire<Topology>::get(WireReader& r) {
    Topology t;
    auto fields = describe(t);
    decode(r, fields);
    if (t.vm_nodes.empty() || t.vm_nodes.size() > kMaxBlobShards) {
        throw RpcError("frame decode: topology advertises " +
                       std::to_string(t.vm_nodes.size()) +
                       " version-manager shards");
    }
    return t;
}

}  // namespace blobseer::rpc

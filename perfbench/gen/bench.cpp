#include "bench.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "cas/sha256.hpp"
#include "codec/codec.hpp"
#include "codec/lz4.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"
#include "content.hpp"
#include "core/remote.hpp"
#include "deploy.hpp"
#include "rpc/protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using blobseer::BlobId;
using blobseer::Buffer;
using blobseer::Version;
using blobseer::core::BlobSeerClient;
using blobseer::version::VersionInfo;

constexpr std::size_t kClients = 4;
/// Set-ups timed per untraced run; setup_s is their median and the last
/// deployment is the one measured.
constexpr int kSetups = 5;
constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;

enum OpKind : int { kWrite, kRead, kStat, kClone, kKinds };
constexpr const char* kKindName[kKinds] = {"write", "read", "stat", "clone"};

/// A read returned bytes the seed says are not there. Aborts the run.
struct Mismatch : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// One client RPC of a traced operation, reduced to what the report needs.
struct SpanRow {
    std::uint16_t type = 0;
    std::uint8_t kind = 0;  ///< OpKind of the enclosing operation
    std::uint32_t span_id = 0;
    std::uint64_t trace_id = 0;
    std::int64_t rtt_ns = 0;
    std::uint64_t bytes = 0;
};

/// What one client saw during the measured phase.
struct Tally {
    std::array<std::vector<Sample>, kKinds> samples;
    std::array<std::uint64_t, kKinds> bytes{};
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_error;
    // Traced runs only.
    std::array<double, kKinds> wall_us{};
    std::array<double, kKinds> union_us{};
    std::uint64_t spans_outside = 0;
    std::vector<SpanRow> rows;

    void merge(const Tally& o) {
        for (int k = 0; k < kKinds; ++k) {
            samples[k].insert(samples[k].end(), o.samples[k].begin(), o.samples[k].end());
            bytes[k] += o.bytes[k];
            wall_us[k] += o.wall_us[k];
            union_us[k] += o.union_us[k];
        }
        attempted += o.attempted;
        failed += o.failed;
        if (first_error.empty()) {
            first_error = o.first_error;
        }
        spans_outside += o.spans_outside;
        rows.insert(rows.end(), o.rows.begin(), o.rows.end());
    }
};

struct LoadClient {
    std::shared_ptr<TimingTransport> timing;  // traced runs only
    std::unique_ptr<BlobSeerClient> client;
    Tally tally;
};

/// Where writes, and where reads, stats and clones, were measured.
struct Phases {
    Window write;
    Window read;
};

/// Runs operations on the load clients and keeps the run's fatal state.
class Harness {
  public:
    explicit Harness(bool traced) : traced_(traced) {}

    [[nodiscard]] bool aborted() const { return abort_.load(); }

    void fail(const std::string& why) {
        const std::scoped_lock lock(mu_);
        if (error_.empty()) {
            error_ = why;
        }
        abort_ = true;
    }

    [[nodiscard]] std::string error() const {
        const std::scoped_lock lock(mu_);
        return error_;
    }

    /// Time one operation. A failed operation (any blobseer::Error) is
    /// counted and skipped; anything else propagates and aborts the run.
    template <typename F>
    bool op(LoadClient& c, OpKind kind, std::uint64_t bytes, F&& fn) {
        Tally& t = c.tally;
        ++t.attempted;
        std::optional<blobseer::trace::TraceScope> scope;
        if (traced_) {
            // The benchmark operation is the trace root: stat and clone are
            // not traced by the client itself, and for write/read the
            // client keeps an outer root instead of minting its own.
            current_op() = std::make_shared<OpRecord>();
            blobseer::trace::TraceContext ctx;
            ctx.trace_id = blobseer::trace::new_trace_id();
            ctx.span_id = blobseer::trace::new_span_id();
            ctx.flags = blobseer::trace::TraceContext::kSampled;
            scope.emplace(ctx);
        }
        const std::int64_t t0 = steady_ns();
        try {
            fn();
        } catch (const blobseer::Error& e) {
            ++t.failed;
            if (t.first_error.empty()) {
                t.first_error = std::string(kKindName[kind]) + ": " + e.what();
            }
            current_op().reset();
            return false;
        }
        const std::int64_t t1 = steady_ns();
        t.samples[kind].push_back(Sample{t1, static_cast<double>(t1 - t0) / 1e3, bytes});
        t.bytes[kind] += bytes;
        if (traced_) {
            const std::shared_ptr<OpRecord> rec = std::move(current_op());
            record_spans(t, kind, t0, t1, *rec);
        }
        return true;
    }

    /// Run body(i) on one thread per load client until all return,
    /// watching the daemons meanwhile. Returns the window from the start
    /// to the last client's finish.
    Window run_clients(std::vector<LoadClient>& clients, Deployment& dep,
                       const std::function<void(std::size_t)>& body) {
        std::vector<std::int64_t> finish(clients.size(), 0);
        std::atomic<std::size_t> running{clients.size()};
        const std::int64_t start = steady_ns();
        {
            std::vector<std::jthread> threads;
            for (std::size_t i = 0; i < clients.size(); ++i) {
                threads.emplace_back([&, i] {
                    try {
                        body(i);
                    } catch (const std::exception& e) {
                        fail(std::string("client ") + std::to_string(i) + ": " + e.what());
                    }
                    finish[i] = steady_ns();
                    running.fetch_sub(1);
                });
            }
            while (running.load() > 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                if (const std::string dead = dep.dead_daemon(); !dead.empty()) {
                    fail(dead);
                }
            }
        }
        std::int64_t last = start;
        for (const auto f : finish) {
            last = std::max(last, f);
        }
        return Window{start, last};
    }

  private:
    static void record_spans(Tally& t, OpKind kind, std::int64_t t0,
                             std::int64_t t1, OpRecord& rec) {
        const std::scoped_lock lock(rec.mu);
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        iv.reserve(rec.spans.size());
        for (const auto& s : rec.spans) {
            iv.emplace_back(s.start_ns, s.end_ns);
            if (s.start_ns < t0 || s.end_ns > t1) {
                ++t.spans_outside;
            }
            t.rows.push_back(SpanRow{s.type, static_cast<std::uint8_t>(kind),
                                     s.span_id, s.trace_id, s.end_ns - s.start_ns,
                                     s.bytes_out + s.bytes_in});
        }
        t.wall_us[kind] += static_cast<double>(t1 - t0) / 1e3;
        t.union_us[kind] += static_cast<double>(union_length(std::move(iv), t0, t1)) / 1e3;
    }

    bool traced_;
    std::atomic<bool> abort_{false};
    mutable std::mutex mu_;  // guards error_
    std::string error_;
};

[[nodiscard]] bool before(std::chrono::steady_clock::time_point deadline,
                          const Harness& h) {
    return !h.aborted() && std::chrono::steady_clock::now() < deadline;
}

[[nodiscard]] std::chrono::steady_clock::time_point deadline_after(double s) {
    return std::chrono::steady_clock::now() +
           std::chrono::microseconds(static_cast<std::int64_t>(s * 1e6));
}

// ---- workloads ---------------------------------------------------------------

class Workload {
  public:
    explicit Workload(std::uint64_t seed) : seed_(seed), pool_(seed) {}
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    [[nodiscard]] virtual DaemonConfig daemons() const = 0;
    /// Opens a client connection of its own to the deployment.
    using Connect = std::function<std::unique_ptr<BlobSeerClient>()>;

    /// Create the workload's blobs and write its preload through \p control
    /// (and through extra connections from \p connect, if it writes in
    /// parallel).
    virtual void preload(BlobSeerClient& control, const Connect& connect) = 0;
    /// Run the measured phase(s).
    virtual Phases measure(Harness& h, std::vector<LoadClient>& clients,
                           Deployment& dep, double seconds) = 0;
    /// A sample of the chunks the workload writes, for the in-process
    /// codec and hashing rates.
    [[nodiscard]] virtual std::vector<Buffer> sample_chunks() const = 0;
    /// Human-readable sizes for the run record.
    [[nodiscard]] virtual std::map<std::string, std::string> shape() const = 0;

    [[nodiscard]] std::uint64_t preload_bytes() const { return preload_bytes_; }

  protected:
    [[nodiscard]] Rng client_rng(std::size_t c) const {
        return Rng(seed_ ^ mix(0xc11e47ULL + c));
    }

    std::uint64_t seed_;
    ContentPool pool_;
    std::uint64_t preload_bytes_ = 0;
};

/// Paper E1: every client writes its own region of one shared blob in
/// 1 MiB operations, pass after pass, then all read random 1 MiB ranges
/// of the latest snapshot. The read working set fits every provider's RAM
/// cache, so this is the bulk wire path with the tiers and CAS idle.
class E1Stripe final : public Workload {
  public:
    static constexpr std::uint64_t kChunk = 64 * kKiB;
    static constexpr std::uint64_t kOp = 1 * kMiB;
    static constexpr std::uint64_t kRegion = 16 * kMiB;
    static constexpr std::uint64_t kPasses = 8;
    static constexpr std::uint64_t kBlobBytes = kClients * kRegion;

    using Workload::Workload;

    DaemonConfig daemons() const override {
        // Each provider holds 2/3 of the 64 MiB snapshot (replication 2
        // over three providers): ~43 MiB, under the 64 MiB RAM tier.
        return DaemonConfig{"two-tier-log", false, false, 64, 0};
    }

    void preload(BlobSeerClient& control, const Connect&) override {
        blob_ = control.create(kChunk, 2).id();
        preload_bytes_ = 0;
    }

    Phases measure(Harness& h, std::vector<LoadClient>& cl, Deployment& dep,
                   double seconds) override {
        Phases ph;
        ph.write = h.run_clients(cl, dep, [&](std::size_t c) {
            Buffer buf(kOp);
            for (std::uint64_t pass = 0; pass < kPasses; ++pass) {
                for (std::uint64_t off = c * kRegion; off < (c + 1) * kRegion; off += kOp) {
                    if (h.aborted()) {
                        return;
                    }
                    fill(pass, off, buf);
                    if (!h.op(cl[c], kWrite, kOp, [&] { (void)cl[c].client->write(blob_, off, buf); })) {
                        // The region's content is no longer known; nothing
                        // after this can be verified.
                        throw std::runtime_error("e1_stripe write failed: " +
                                                 cl[c].tally.first_error);
                    }
                }
            }
        });
        if (h.aborted()) {
            return ph;
        }
        const Version final_version = kClients * kPasses * (kRegion / kOp);
        const auto deadline = deadline_after(seconds);
        ph.read = h.run_clients(cl, dep, [&](std::size_t c) {
            Rng rng = client_rng(c);
            Buffer buf(kOp);
            BlobSeerClient& client = *cl[c].client;
            for (std::uint64_t i = 1; before(deadline, h); ++i) {
                VersionInfo vi;
                if (!h.op(cl[c], kStat, 0, [&] { vi = client.stat(blob_); })) {
                    continue;
                }
                if (vi.version < final_version || vi.size != kBlobBytes) {
                    throw Mismatch("e1_stripe: latest snapshot is v" + std::to_string(vi.version) +
                                   " of " + std::to_string(vi.size) + " bytes after all " +
                                   std::to_string(final_version) + " writes were acknowledged");
                }
                const std::uint64_t off = rng.below((kBlobBytes - kOp) / kChunk + 1) * kChunk;
                if (h.op(cl[c], kRead, kOp, [&] { (void)client.read(blob_, vi.version, off, buf); })) {
                    verify(off, buf);
                }
                if (i % 16 == 0) {
                    (void)h.op(cl[c], kClone, 0, [&] { (void)client.clone(blob_, vi.version); });
                }
            }
        });
        return ph;
    }

    std::vector<Buffer> sample_chunks() const override {
        std::vector<Buffer> out;
        for (std::uint64_t g = 0; g < 64; ++g) {
            Buffer b(kChunk);
            pool_.fill(tag(kPasses - 1, g), false, b);
            out.push_back(std::move(b));
        }
        return out;
    }

    std::map<std::string, std::string> shape() const override {
        return {{"chunk_bytes", std::to_string(kChunk)},
                {"op_bytes", std::to_string(kOp)},
                {"region_bytes_per_client", std::to_string(kRegion)},
                {"write_passes", std::to_string(kPasses)},
                {"snapshot_bytes", std::to_string(kBlobBytes)}};
    }

  private:
    static std::uint64_t tag(std::uint64_t pass, std::uint64_t chunk) {
        return make_tag(1, (pass << 32) | chunk);
    }

    void fill(std::uint64_t pass, std::uint64_t off, Buffer& buf) const {
        for (std::uint64_t j = 0; j < buf.size() / kChunk; ++j) {
            pool_.fill(tag(pass, off / kChunk + j), false,
                       std::span(buf).subspan(j * kChunk, kChunk));
        }
    }

    void verify(std::uint64_t off, const Buffer& buf) const {
        for (std::uint64_t j = 0; j < buf.size() / kChunk; ++j) {
            const std::uint64_t g = off / kChunk + j;
            if (!pool_.matches(tag(kPasses - 1, g), false,
                               std::span(buf).subspan(j * kChunk, kChunk))) {
                throw Mismatch("e1_stripe: chunk " + std::to_string(g) +
                               " does not hold the last pass");
            }
        }
    }

    BlobId blob_ = 0;
};

/// Paper E3 / log aggregation: clients append self-describing 4 KiB
/// records to one shared blob, wait for their version to publish, stat
/// the latest snapshot and read four random records of it. The blob is
/// preloaded just past 2^13 chunks, so the metadata tree keeps its depth
/// until 2^14: about 8k appends, more than a 10 s run makes. Bulk bytes are negligible; per-RPC hop cost and the
/// version manager's publication order dominate.
class AppendSmall final : public Workload {
  public:
    static constexpr std::uint64_t kRec = 4 * kKiB;
    static constexpr std::uint64_t kPreloadWrites = 4;
    static constexpr std::uint64_t kPreloadRecords = (1u << 13) + 4;
    static constexpr std::uint64_t kPreloadClient = 0xff;

    using Workload::Workload;

    DaemonConfig daemons() const override {
        // Preload plus a run's appends stay under ~64 MiB of records, ~43
        // MiB per provider: the log fits the 64 MiB RAM tier.
        return DaemonConfig{"two-tier-log", false, false, 64, 0};
    }

    void preload(BlobSeerClient& control, const Connect& connect) override {
        blob_ = control.create(kRec, 2).id();
        // The preload writes run in parallel, each over its own connection,
        // into disjoint ranges; 4 KiB chunks make one large write slow.
        const std::uint64_t per_write = kPreloadRecords / kPreloadWrites;
        std::vector<std::string> errors(kPreloadWrites);
        {
            std::vector<std::jthread> writers;
            for (std::uint64_t w = 0; w < kPreloadWrites; ++w) {
                writers.emplace_back([&, w] {
                    try {
                        const auto client = connect();
                        Buffer buf(per_write * kRec);
                        for (std::uint64_t j = 0; j < per_write; ++j) {
                            pool_.fill(tag(kPreloadClient, w * per_write + j), false,
                                       std::span(buf).subspan(j * kRec, kRec));
                        }
                        (void)client->write(blob_, w * per_write * kRec, buf);
                    } catch (const std::exception& e) {
                        errors[w] = e.what();
                    }
                });
            }
        }
        for (const auto& e : errors) {
            if (!e.empty()) {
                throw std::runtime_error("append_small preload: " + e);
            }
        }
        preload_bytes_ = kPreloadRecords * kRec;
    }

    Phases measure(Harness& h, std::vector<LoadClient>& cl, Deployment& dep,
                   double seconds) override {
        const auto deadline = deadline_after(seconds);
        const Window s = h.run_clients(cl, dep, [&](std::size_t c) {
            Rng rng = client_rng(c);
            Buffer rec(kRec);
            Buffer got(kRec);
            BlobSeerClient& client = *cl[c].client;
            Version last_acked = 0;
            Version last_seen = 0;
            for (std::uint64_t seq = 0; before(deadline, h); ++seq) {
                pool_.fill(tag(c, seq), false, rec);
                Version v = 0;
                if (h.op(cl[c], kWrite, kRec, [&] {
                        v = client.append(blob_, rec);
                        (void)client.wait_published(blob_, v);
                    })) {
                    last_acked = v;
                }
                VersionInfo vi;
                if (!h.op(cl[c], kStat, 0, [&] { vi = client.stat(blob_); })) {
                    continue;
                }
                if (vi.version < last_acked || vi.version < last_seen) {
                    throw Mismatch("append_small: client " + std::to_string(c) +
                                   " saw latest v" + std::to_string(vi.version) +
                                   " after v" + std::to_string(std::max(last_acked, last_seen)));
                }
                if (vi.size != preload_bytes_ + (vi.version - kPreloadWrites) * kRec) {
                    throw Mismatch("append_small: snapshot v" + std::to_string(vi.version) +
                                   " is " + std::to_string(vi.size) +
                                   " bytes, not one record per appended version");
                }
                last_seen = vi.version;
                for (int r = 0; r < 4; ++r) {
                    const std::uint64_t idx = rng.below(vi.size / kRec);
                    if (h.op(cl[c], kRead, kRec,
                             [&] { (void)client.read(blob_, vi.version, idx * kRec, got); })) {
                        verify(idx, got);
                    }
                }
                if ((seq + 1) % 16 == 0) {
                    (void)h.op(cl[c], kClone, 0, [&] { (void)client.clone(blob_, vi.version); });
                }
            }
        });
        return Phases{s, s};
    }

    std::vector<Buffer> sample_chunks() const override {
        std::vector<Buffer> out;
        for (std::uint64_t j = 0; j < 256; ++j) {
            Buffer b(kRec);
            pool_.fill(tag(j % kClients, j), false, b);
            out.push_back(std::move(b));
        }
        return out;
    }

    std::map<std::string, std::string> shape() const override {
        return {{"record_bytes", std::to_string(kRec)},
                {"preload_records", std::to_string(kPreloadRecords)},
                {"preload_writes", std::to_string(kPreloadWrites)}};
    }

  private:
    static std::uint64_t tag(std::uint64_t client, std::uint64_t seq) {
        return make_tag(2, (client << 40) | seq);
    }

    void verify(std::uint64_t idx, const Buffer& got) const {
        const auto claimed = pool_.claimed_tag(got);
        const bool ok =
            claimed.has_value() &&
            (idx < kPreloadRecords ? *claimed == tag(kPreloadClient, idx)
                                   : ((*claimed >> 40) & 0xffff) < kClients) &&
            pool_.matches(*claimed, false, got);
        if (!ok) {
            throw Mismatch("append_small: record " + std::to_string(idx) +
                           " is not a record any client appended");
        }
    }

    BlobId blob_ = 0;
};

/// VM-image deployment: clients clone one base image, write 1 MiB into
/// the clone (half of it copies of base chunks, so content addressing
/// skips them), and read 16 random chunks back. Both cache tiers are far
/// smaller than each provider's share of the image, so reads miss through
/// the compressed file cache into the engine. Clones are never deleted:
/// deleting them makes the compactor run, but then disk bytes per user
/// byte swings with 64 MiB segment granularity (IQR 33% of the median
/// over five seeds), too much for an end-to-end metric.
class VmClone final : public Workload {
  public:
    static constexpr std::uint64_t kChunk = 64 * kKiB;
    static constexpr std::uint64_t kBaseChunks = 768;  // 48 MiB image
    static constexpr std::uint64_t kWriteChunks = 16;
    static constexpr std::uint64_t kReadsPerClone = 16;
    static constexpr std::uint64_t kPreloadChunksPerWrite = 64;

    using Workload::Workload;

    DaemonConfig daemons() const override {
        // Each provider holds ~32 MiB of the image; 4 MiB RAM + 8 MiB of
        // compressed file cache cannot hold it.
        return DaemonConfig{"three-tier-log", true, true, 4, 8};
    }

    void preload(BlobSeerClient& control, const Connect&) override {
        base_ = control.create(kChunk, 2).id();
        Buffer buf(kPreloadChunksPerWrite * kChunk);
        for (std::uint64_t first = 0; first < kBaseChunks; first += kPreloadChunksPerWrite) {
            for (std::uint64_t j = 0; j < kPreloadChunksPerWrite; ++j) {
                const auto [t, z] = base_chunk(first + j);
                pool_.fill(t, z, std::span(buf).subspan(j * kChunk, kChunk));
            }
            base_version_ = control.write(base_, first * kChunk, buf);
        }
        preload_bytes_ = kBaseChunks * kChunk;
    }

    Phases measure(Harness& h, std::vector<LoadClient>& cl, Deployment& dep,
                   double seconds) override {
        const auto deadline = deadline_after(seconds);
        const Window s = h.run_clients(cl, dep, [&](std::size_t c) {
            Rng rng = client_rng(c);
            Buffer wbuf(kWriteChunks * kChunk);
            Buffer got(kChunk);
            std::array<std::pair<std::uint64_t, bool>, kWriteChunks> layout;
            BlobSeerClient& client = *cl[c].client;
            for (std::uint64_t iter = 0; before(deadline, h); ++iter) {
                BlobId clone = 0;
                if (!h.op(cl[c], kClone, 0,
                          [&] { clone = client.clone(base_, base_version_).id(); })) {
                    continue;
                }
                const std::uint64_t first = rng.below(kBaseChunks / kWriteChunks) * kWriteChunks;
                for (std::uint64_t j = 0; j < kWriteChunks; ++j) {
                    layout[j] = j % 2 == 0
                                    ? base_chunk(rng.below(kBaseChunks))
                                    : std::pair{make_tag(4, (std::uint64_t{c} << 48) |
                                                                (iter << 8) | j),
                                                (j / 2) % 2 == 0};
                    pool_.fill(layout[j].first, layout[j].second,
                               std::span(wbuf).subspan(j * kChunk, kChunk));
                }
                Version v = 0;
                if (!h.op(cl[c], kWrite, wbuf.size(),
                          [&] { v = client.write(clone, first * kChunk, wbuf); })) {
                    continue;
                }
                VersionInfo vi;
                if (h.op(cl[c], kStat, 0, [&] { vi = client.stat(clone); }) &&
                    (vi.version != v || vi.size != kBaseChunks * kChunk)) {
                    throw Mismatch("vm_clone: clone's latest is v" + std::to_string(vi.version) +
                                   " (" + std::to_string(vi.size) + " bytes) after its write v" +
                                   std::to_string(v));
                }
                for (std::uint64_t r = 0; r < kReadsPerClone; ++r) {
                    const std::uint64_t i = rng.below(kBaseChunks);
                    if (!h.op(cl[c], kRead, kChunk,
                              [&] { (void)client.read(clone, v, i * kChunk, got); })) {
                        continue;
                    }
                    const auto [t, z] = i >= first && i < first + kWriteChunks
                                            ? layout[i - first]
                                            : base_chunk(i);
                    if (!pool_.matches(t, z, got)) {
                        throw Mismatch("vm_clone: chunk " + std::to_string(i) +
                                       " of a clone holds neither its own write nor the base");
                    }
                }
            }
        });
        return Phases{s, s};
    }

    std::vector<Buffer> sample_chunks() const override {
        std::vector<Buffer> out;
        for (std::uint64_t i = 0; i < 64; ++i) {
            Buffer b(kChunk);
            const auto [t, z] = base_chunk(i);
            pool_.fill(t, z, b);
            out.push_back(std::move(b));
        }
        return out;
    }

    std::map<std::string, std::string> shape() const override {
        return {{"chunk_bytes", std::to_string(kChunk)},
                {"base_image_bytes", std::to_string(kBaseChunks * kChunk)},
                {"write_bytes", std::to_string(kWriteChunks * kChunk)},
                {"reads_per_clone", std::to_string(kReadsPerClone)}};
    }

  private:
    /// Base chunk \p i: its tag, and whether it is LZ4-compressible (even
    /// chunks are, odd ones are random).
    static std::pair<std::uint64_t, bool> base_chunk(std::uint64_t i) {
        return {make_tag(3, i), i % 2 == 0};
    }

    BlobId base_ = 0;
    Version base_version_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "e1_stripe") {
        return std::make_unique<E1Stripe>(seed);
    }
    if (name == "append_small") {
        return std::make_unique<AppendSmall>(seed);
    }
    if (name == "vm_clone") {
        return std::make_unique<VmClone>(seed);
    }
    return nullptr;
}

// ---- one deployment ------------------------------------------------------------

/// A deployment with its control client and load clients. Members are
/// destroyed clients first, daemons last.
struct Live {
    std::unique_ptr<Deployment> dep;
    std::unique_ptr<BlobSeerClient> control;
    std::vector<LoadClient> clients;

    /// Close every connection, then stop the daemons; returns problems.
    std::string tear_down() {
        clients.clear();
        control.reset();
        return dep ? dep->stop() : std::string{};
    }
};

Live set_up(const Options& o, Workload& w, bool traced, const fs::path& root) {
    Live l;
    l.dep = std::make_unique<Deployment>(o.serverd, root, w.daemons());
    l.control = std::make_unique<BlobSeerClient>(
        blobseer::core::connect_tcp("127.0.0.1", l.dep->port()));
    if (l.control->data_nodes().size() != Deployment::kProviders) {
        throw std::runtime_error("manager advertises " +
                                 std::to_string(l.control->data_nodes().size()) +
                                 " data providers, expected " +
                                 std::to_string(Deployment::kProviders));
    }
    const std::uint16_t port = l.dep->port();
    w.preload(*l.control, [port] {
        return std::make_unique<BlobSeerClient>(blobseer::core::connect_tcp("127.0.0.1", port));
    });
    for (std::size_t i = 0; i < kClients; ++i) {
        LoadClient lc;
        auto env = blobseer::core::connect_tcp("127.0.0.1", l.dep->port());
        if (traced) {
            lc.timing = std::make_shared<TimingTransport>(env.transport);
            env.transport = lc.timing;
            env.trace = true;
        }
        lc.client = std::make_unique<BlobSeerClient>(std::move(env));
        l.clients.push_back(std::move(lc));
    }
    return l;
}

/// Client-side counters summed over the load clients.
struct ClientCounters {
    std::uint64_t meta_hits = 0;
    std::uint64_t meta_misses = 0;
    std::uint64_t retries = 0;
    std::uint64_t cas_skipped = 0;
    std::uint64_t cas_sent = 0;
    std::uint64_t inflight_high_water = 0;

    static ClientCounters read(std::vector<LoadClient>& clients) {
        ClientCounters c;
        for (auto& lc : clients) {
            const auto& s = lc.client->stats();
            c.meta_hits += lc.client->meta_cache().hits();
            c.meta_misses += lc.client->meta_cache().misses();
            c.retries += s.chunk_retries.get();
            c.cas_skipped += s.cas_bytes_skipped.get();
            c.cas_sent += s.cas_bytes_sent.get();
            c.inflight_high_water = std::max(c.inflight_high_water,
                                             s.inflight_chunk_rpcs.high_water());
        }
        return c;
    }
};


/// In-process rate of \p fn over \p chunks, in MB/s of chunk bytes,
/// repeated for at least 200 ms on this thread.
template <typename F>
double in_process_rate(const std::vector<Buffer>& chunks, F&& fn) {
    std::uint64_t bytes = 0;
    const std::int64_t t0 = steady_ns();
    std::int64_t t1 = t0;
    while (t1 - t0 < 200'000'000) {
        for (const auto& c : chunks) {
            fn(c);
            bytes += c.size();
        }
        t1 = steady_ns();
    }
    return static_cast<double>(bytes) / 1e6 / (static_cast<double>(t1 - t0) / 1e9);
}

/// The RPC types the per-layer report breaks out.
constexpr blobseer::rpc::MsgType kReportedOps[] = {
    blobseer::rpc::MsgType::kAssign,        blobseer::rpc::MsgType::kCommit,
    blobseer::rpc::MsgType::kGetVersion,    blobseer::rpc::MsgType::kWaitPublished,
    blobseer::rpc::MsgType::kBlobInfo,      blobseer::rpc::MsgType::kBlobClone,
    blobseer::rpc::MsgType::kPlace,         blobseer::rpc::MsgType::kMetaPut,
    blobseer::rpc::MsgType::kMetaGet,       blobseer::rpc::MsgType::kChunkPut,
    blobseer::rpc::MsgType::kChunkGet,      blobseer::rpc::MsgType::kChunkCheck,
};

struct PassOut {
    MetricMap e2e;
    MetricMap layers;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_failure;
    std::vector<std::string> manager_flags;
    std::vector<std::string> provider_flags;
};

/// Per-layer metrics of a traced pass.
MetricMap layer_metrics(const Tally& t, const Workload& w, double measured_s, const ClientCounters& c0,
                        const ClientCounters& c1,
                        const std::vector<blobseer::MetricsSnapshot>& m0,
                        const std::vector<blobseer::MetricsSnapshot>& m1,
                        const ServerProbe& probe, std::uint64_t probe_rpcs,
                        std::uint64_t unattributed) {
    MetricMap m;
    const auto put = [&m](const std::string& name, double v, const char* unit) {
        m[name] = Metric{v, unit, 0, 0};
    };
    const auto ops_of = [&](OpKind k) { return static_cast<double>(t.samples[k].size()); };
    double ops = 0;
    for (int k = 0; k < kKinds; ++k) {
        ops += ops_of(static_cast<OpKind>(k));
    }
    const double writes = ops_of(kWrite);
    const double reads = ops_of(kRead);
    const auto d = [&](const char* name, const char* label = "", const char* value = "",
                       bool sum = false) {
        return static_cast<double>(metric_delta(m0, m1, name, label, value, sum));
    };
    // Providers only (daemons 1..3): the manager runs log engines for
    // metadata and the version journal, not for chunks.
    const std::vector<blobseer::MetricsSnapshot> p0(m0.begin() + 1, m0.end());
    const std::vector<blobseer::MetricsSnapshot> p1(m1.begin() + 1, m1.end());
    const auto dp = [&](const char* name) {
        return static_cast<double>(metric_delta(p0, p1, name));
    };

    // core
    for (const OpKind k : {kWrite, kRead}) {
        const std::string pre = std::string("core.") + kKindName[k] + ".";
        const double n = ops_of(k);
        put(pre + "wall_us_mean", ratio(t.wall_us[k], n), "us");
        put(pre + "rpc_union_us_mean", ratio(t.union_us[k], n), "us");
        put(pre + "self_us_mean", ratio(t.wall_us[k] - t.union_us[k], n), "us");
    }
    put("core.rpc_spans_outside_op", static_cast<double>(t.spans_outside), "count");
    put("core.meta_cache.hit_ratio",
        ratio(static_cast<double>(c1.meta_hits - c0.meta_hits),
              static_cast<double>(c1.meta_hits - c0.meta_hits + c1.meta_misses - c0.meta_misses)),
        "ratio");
    put("core.inflight_high_water", static_cast<double>(c1.inflight_high_water), "count");
    put("core.chunk_retries_per_op", ratio(static_cast<double>(c1.retries - c0.retries), ops),
        "1/op");

    // rpc, per op type
    struct OpAcc {
        double calls = 0, rtt_us = 0, matched = 0, queue_us = 0, transit_us = 0;
    };
    std::map<std::uint16_t, OpAcc> acc;
    double wire_bytes = 0;
    double total_rtt = 0;
    double meta_puts_in_writes = 0;
    double meta_gets_in_reads = 0;
    double matched_total = 0;
    const auto& spans = probe.server_spans();
    for (const auto& r : t.rows) {
        OpAcc& a = acc[r.type];
        const double rtt = static_cast<double>(r.rtt_ns) / 1e3;
        a.calls += 1;
        a.rtt_us += rtt;
        total_rtt += rtt;
        wire_bytes += static_cast<double>(r.bytes);
        const auto type = static_cast<blobseer::rpc::MsgType>(r.type);
        if (type == blobseer::rpc::MsgType::kMetaPut && r.kind == kWrite) {
            meta_puts_in_writes += 1;
        }
        if ((type == blobseer::rpc::MsgType::kMetaGet ||
             type == blobseer::rpc::MsgType::kMetaTryGet) &&
            r.kind == kRead) {
            meta_gets_in_reads += 1;
        }
        if (const auto it = spans.find({r.trace_id, r.span_id}); it != spans.end()) {
            a.matched += 1;
            matched_total += 1;
            a.queue_us += static_cast<double>(it->second.queue_us);
            a.transit_us += rtt - static_cast<double>(it->second.queue_us) -
                            static_cast<double>(it->second.duration_us);
        }
    }
    // Budget check over the op types that carry 90% of client RPC time.
    std::vector<std::pair<double, std::uint16_t>> by_time;
    for (const auto& [type, a] : acc) {
        by_time.emplace_back(a.rtt_us, type);
    }
    std::sort(by_time.rbegin(), by_time.rend());
    double covered = 0;
    double worst_residual = 0;
    for (const auto& [rtt_total, type] : by_time) {
        if (covered >= 0.9 * total_rtt) {
            break;
        }
        covered += rtt_total;
        const OpAcc& a = acc[type];
        const char* name = blobseer::rpc::to_string(static_cast<blobseer::rpc::MsgType>(type));
        const double handler = ratio(d("rpc_server_latency_us", "op", name, true),
                                     d("rpc_server_latency_us", "op", name));
        const double rtt = ratio(a.rtt_us, a.calls);
        const double parts = ratio(a.queue_us, a.matched) + handler + ratio(a.transit_us, a.matched);
        worst_residual = std::max(worst_residual, std::abs(parts - rtt) / rtt);
    }
    for (const auto type : kReportedOps) {
        const char* name = blobseer::rpc::to_string(type);
        const OpAcc a = acc.count(static_cast<std::uint16_t>(type))
                            ? acc[static_cast<std::uint16_t>(type)]
                            : OpAcc{};
        const std::string pre = std::string("rpc.") + name + ".";
        put(pre + "calls_per_op", ratio(a.calls, ops), "1/op");
        put(pre + "rtt_mean_us", ratio(a.rtt_us, a.calls), "us");
        put(pre + "queue_mean_us", ratio(a.queue_us, a.matched), "us");
        put(pre + "handler_mean_us",
            ratio(d("rpc_server_latency_us", "op", name, true), d("rpc_server_latency_us", "op", name)),
            "us");
        put(pre + "transit_mean_us", ratio(a.transit_us, a.matched), "us");
    }
    const double user_bytes =
        static_cast<double>(t.bytes[kWrite]) + static_cast<double>(t.bytes[kRead]);
    put("rpc.wire_bytes_per_user_byte", ratio(wire_bytes, user_bytes), "B/B");
    put("rpc.budget_residual_max", worst_residual, "ratio");

    // net
    put("net.loop_dispatches_per_op",
        ratio(d("rpc_loop_dispatch_total") - static_cast<double>(probe_rpcs), ops), "1/op");
    put("net.worker_backlog_peak",
        static_cast<double>(probe.sampled_peak("rpc_server_worker_backlog")), "count");

    // version
    const std::uint64_t hw0 = metric_high_water(m0[0], "vm_publish_backlog");
    const std::uint64_t hw1 = metric_high_water(m1[0], "vm_publish_backlog");
    put("version.publish_backlog_peak",
        static_cast<double>(hw1 > hw0 ? hw1 : probe.sampled_peak("vm_publish_backlog")), "count");
    put("version.assigns_per_s", ratio(d("vm_assigns_total"), measured_s), "1/s");

    // meta
    put("meta.puts_per_write", ratio(meta_puts_in_writes, writes), "1/op");
    put("meta.gets_per_read", ratio(meta_gets_in_reads, reads), "1/op");

    // provider
    put("provider.dedup_hit_ratio",
        ratio(dp("dedup_check_hits_total"),
              dp("dedup_check_hits_total") + dp("dedup_check_misses_total")),
        "ratio");

    // chunk (RAM tier)
    put("chunk.ram_hit_ratio",
        ratio(dp("tier_ram_hits_total"), dp("tier_ram_hits_total") + dp("tier_ram_misses_total")),
        "ratio");
    put("chunk.demotions_per_read", ratio(dp("tier_demotions_total"), reads), "1/op");
    put("chunk.promotions_per_read", ratio(dp("tier_promotions_total"), reads), "1/op");

    // cache (compressed file tier)
    put("cache.file_hit_ratio",
        ratio(dp("file_cache_hits_total"),
              dp("file_cache_hits_total") + dp("file_cache_misses_total")),
        "ratio");
    put("cache.evictions_per_read", ratio(dp("file_cache_evictions_total"), reads), "1/op");
    put("cache.crc_failures", dp("file_cache_crc_failures_total"), "count");

    // codec
    put("codec.compact_ratio",
        ratio(dp("engine_compact_raw_bytes_in_total"), dp("engine_compact_stored_bytes_out_total")),
        "ratio");
    const auto chunks = w.sample_chunks();
    const blobseer::codec::Lz4Codec lz4;
    std::vector<Buffer> frames;
    for (const auto& c : chunks) {
        frames.push_back(blobseer::codec::encode_frame(lz4, c));
    }
    std::uint64_t raw_bytes = 0;
    std::uint64_t frame_bytes = 0;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        raw_bytes += chunks[i].size();
        frame_bytes += frames[i].size();
    }
    // Rate in MB/s of decoded (raw) bytes.
    put("codec.lz4_decompress_MBps",
        in_process_rate(frames,
                        [&](const Buffer& f) {
                            const Buffer raw = blobseer::codec::decode_frame(lz4, f);
                            if (raw.empty()) {
                                throw std::runtime_error("empty LZ4 decode");
                            }
                        }) *
            ratio(static_cast<double>(raw_bytes), static_cast<double>(frame_bytes)),
        "MB/s");

    // cas
    put("cas.sha256_MBps", in_process_rate(chunks, [](const Buffer& c) {
            volatile auto first = blobseer::cas::sha256(c)[0];
            (void)first;
        }),
        "MB/s");
    put("cas.bytes_skipped_share",
        ratio(static_cast<double>(c1.cas_skipped - c0.cas_skipped),
              static_cast<double>(c1.cas_skipped - c0.cas_skipped + c1.cas_sent - c0.cas_sent)),
        "ratio");

    // engine (providers)
    put("engine.appends_per_write", ratio(dp("engine_appends_total"), writes), "1/op");
    put("engine.gets_per_read", ratio(dp("engine_gets_total"), reads), "1/op");
    put("engine.zero_copy_share",
        ratio(dp("engine_ref_gets_mmap_total"),
              dp("engine_ref_gets_mmap_total") + dp("engine_ref_gets_copy_total")),
        "ratio");
    put("engine.compactions", dp("engine_compactions_total"), "count");

    // trace quality
    put("trace.server_span_match_share", ratio(matched_total, static_cast<double>(t.rows.size())),
        "ratio");
    put("trace.ring_capture_share",
        ratio(static_cast<double>(probe.collected()), d("trace_spans_recorded_total")), "ratio");
    put("trace.unattributed_rpcs", static_cast<double>(unattributed), "count");
    return m;
}

PassOut run_pass(const Options& o, bool traced, int setups) {
    PassOut out;
    Harness h(traced);
    std::unique_ptr<Workload> w = make_workload(o.workload, o.seed);
    std::vector<double> setup_s;
    Live live;
    for (int i = 0; i < setups; ++i) {
        const std::int64_t t0 = steady_ns();
        live = set_up(o, *w, traced, o.work / ("deploy-" + std::to_string(i)));
        setup_s.push_back(static_cast<double>(steady_ns() - t0) / 1e9);
        if (i + 1 < setups) {
            if (const std::string p = live.tear_down(); !p.empty()) {
                throw std::runtime_error("set-up teardown: " + p);
            }
        }
    }
    out.manager_flags = live.dep->manager_flags();
    out.provider_flags = live.dep->provider_flags();
    Deployment& dep = *live.dep;

    std::optional<ServerProbe> probe;
    std::vector<blobseer::MetricsSnapshot> m0;
    std::vector<std::uint64_t> rpcs0;
    if (traced) {
        std::vector<blobseer::NodeId> nodes = {blobseer::rpc::kControlNode};
        for (const auto n : live.control->data_nodes()) {
            nodes.push_back(n);
        }
        probe.emplace(*live.control, nodes);
        m0 = probe->snapshot_metrics();
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            rpcs0.push_back(probe->control_rpcs(i));
        }
        probe->start();
    }
    const ClientCounters c0 = ClientCounters::read(live.clients);
    const std::uint64_t cpu0 = dep.cpu_us();
    const std::int64_t t0 = steady_ns();
    const Phases ph = w->measure(h, live.clients, dep, o.seconds);
    if (h.aborted()) {
        // Unwinding joins the probe first, then tears the deployment down.
        throw std::runtime_error(h.error());
    }
    const double measured_s = static_cast<double>(steady_ns() - t0) / 1e9;
    const std::uint64_t cpu1 = dep.cpu_us();
    const ClientCounters c1 = ClientCounters::read(live.clients);
    std::vector<blobseer::MetricsSnapshot> m1;
    std::uint64_t probe_rpcs = 0;
    if (traced) {
        probe->stop();
        m1 = probe->snapshot_metrics();
        for (std::size_t i = 0; i < rpcs0.size(); ++i) {
            probe_rpcs += probe->control_rpcs(i) - rpcs0[i];
        }
    }
    const std::uint64_t rss_kib = dep.peak_rss_kib();
    const std::uint64_t disk = dep.provider_engine_bytes();

    Tally t;
    std::uint64_t unattributed = 0;
    for (const auto& lc : live.clients) {
        t.merge(lc.tally);
        if (lc.timing) {
            unattributed += lc.timing->unattributed();
        }
    }
    out.attempted = t.attempted;
    out.failed = t.failed;
    out.first_failure = t.first_error;

    MetricMap& e = out.e2e;
    const auto add_kind = [&](OpKind k, const Window& win, bool throughput, bool tail) {
        const std::string name = kKindName[k];
        const Windowed wd = windowed(t.samples[k], win);
        const std::size_t n = t.samples[k].size();
        if (throughput) {
            e[name + "_MBps"] = Metric{wd.mbps, "MB/s", n, 0};
        }
        e[name + "_p50_us"] = Metric{wd.p50, "us", n, 0};
        if (tail) {
            // Support of the reported tail: samples of the whole run above it.
            const auto beyond = static_cast<std::size_t>(std::count_if(
                t.samples[k].begin(), t.samples[k].end(),
                [&](const Sample& smp) { return smp.us > wd.p95; }));
            e[name + "_p95_us"] = Metric{wd.p95, "us", n, beyond};
        }
    };
    add_kind(kWrite, ph.write, true, true);
    add_kind(kRead, ph.read, true, true);
    add_kind(kStat, ph.read, false, false);
    add_kind(kClone, ph.read, false, false);
    const double written = static_cast<double>(t.bytes[kWrite]);
    const std::uint64_t completed = t.attempted - t.failed;
    e["server_cpu_us_per_op"] =
        Metric{ratio(static_cast<double>(cpu1 - cpu0), static_cast<double>(completed)), "us", completed, 0};
    e["server_rss_MiB"] = Metric{static_cast<double>(rss_kib) / 1024.0, "MiB", 0, 0};
    e["disk_bytes_per_user_byte"] =
        Metric{ratio(static_cast<double>(disk), written + static_cast<double>(w->preload_bytes())),
               "B/B", 0, 0};
    e["failed_op_share"] =
        Metric{ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)), "ratio",
               t.attempted, 0};
    std::sort(setup_s.begin(), setup_s.end());
    e["setup_s"] = Metric{percentile_sorted(setup_s, 50), "s", setup_s.size(), 0};

    if (traced) {
        out.layers = layer_metrics(t, *w, measured_s, c0, c1, m0, m1, *probe, probe_rpcs,
                                   unattributed);
    }
    probe.reset();
    if (const std::string p = live.tear_down(); !p.empty()) {
        throw std::runtime_error("teardown: " + p);
    }
    return out;
}

}  // namespace

bool known_workload(const std::string& name) {
    return make_workload(name, 0) != nullptr;
}

Result run(const Options& o) {
    Result r;
    try {
        const auto shape = make_workload(o.workload, o.seed)->shape();
        r.info.insert(shape.begin(), shape.end());
        r.info["clients"] = std::to_string(kClients);
        r.info["fsync_appends"] = "off (engine default)";
        if (!o.trace) {
            PassOut p = run_pass(o, false, kSetups);
            r.end_to_end = std::move(p.e2e);
            r.attempted = p.attempted;
            r.failed = p.failed;
            r.manager_flags = p.manager_flags;
            r.provider_flags = p.provider_flags;
            if (!p.first_failure.empty()) {
                r.info["first_failure"] = p.first_failure;
            }
        } else {
            // Untraced then traced, each on a fresh deployment: the ratio
            // of the two is the tracing overhead.
            const PassOut plain = run_pass(o, false, 1);
            PassOut traced = run_pass(o, true, 1);
            r.per_layer = std::move(traced.layers);
            for (const auto& [name, m] : traced.e2e) {
                if (name == "setup_s" || name == "failed_op_share") {
                    continue;
                }
                r.per_layer["trace_overhead." + name] =
                    Metric{ratio(m.value, plain.e2e.at(name).value), "ratio", 0, 0};
            }
            r.end_to_end = std::move(traced.e2e);
            r.attempted = plain.attempted + traced.attempted;
            r.failed = plain.failed + traced.failed;
            r.manager_flags = traced.manager_flags;
            r.provider_flags = traced.provider_flags;
        }
    } catch (const std::exception& e) {
        r.correct = false;
        r.error = e.what();
    }
    return r;
}

}  // namespace perfbench

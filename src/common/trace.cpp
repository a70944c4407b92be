#include "common/trace.hpp"

#include <bit>
#include <chrono>

#include "common/hash.hpp"
#include "common/metrics.hpp"

namespace blobseer::trace {
namespace {

thread_local TraceContext tls_context;

/// Id source: a process-wide counter pushed through mix64, seeded from
/// the wall clock so two daemons started at different times don't mint
/// colliding trace ids.
std::atomic<std::uint64_t>& id_counter() {
    static std::atomic<std::uint64_t> counter{static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count())};
    return counter;
}

std::uint64_t next_id() noexcept {
    return mix64(id_counter().fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

TraceContext current() noexcept { return tls_context; }

void set_current(const TraceContext& ctx) noexcept { tls_context = ctx; }

std::uint64_t new_trace_id() noexcept {
    std::uint64_t id = next_id();
    while (id == 0) {
        id = next_id();  // 0 means "untraced"; skip it
    }
    return id;
}

std::uint32_t new_span_id() noexcept {
    std::uint32_t id = static_cast<std::uint32_t>(next_id());
    while (id == 0) {
        id = static_cast<std::uint32_t>(next_id());
    }
    return id;
}

std::uint64_t now_unix_us() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : slots_(std::max<std::size_t>(capacity, 1)) {}

void TraceBuffer::record(const SpanRecord& rec) noexcept {
    const auto words = std::bit_cast<std::array<std::uint64_t, kWords>>(rec);

    Slot& slot =
        slots_[head_.fetch_add(1, std::memory_order_relaxed) % slots_.size()];
    std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 ||
        !slot.seq.compare_exchange_strong(seq, seq + 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
        // Another writer owns the slot (ring wrapped a full lap while it
        // was mid-write). Dropping beats spinning on the RPC path.
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    for (std::size_t i = 0; i < kWords; ++i) {
        slot.words[i].store(words[i], std::memory_order_release);
    }
    slot.seq.store(seq + 2, std::memory_order_release);
    recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanRecord> TraceBuffer::snapshot(std::uint64_t trace_id,
                                              std::size_t max) const {
    std::vector<SpanRecord> out;
    out.reserve(std::min(max, slots_.size()));
    for (const Slot& slot : slots_) {
        if (out.size() >= max) {
            break;
        }
        const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
        if (before == 0 || (before & 1) != 0) {
            continue;  // never written, or write in progress
        }
        // Acquire loads keep the re-check of seq after them; a word a
        // recycling writer stored (release, after its odd seq) makes
        // that re-check see the odd seq. No fence: TSan rejects those.
        std::array<std::uint64_t, kWords> words;
        for (std::size_t i = 0; i < kWords; ++i) {
            words[i] = slot.words[i].load(std::memory_order_acquire);
        }
        if (slot.seq.load(std::memory_order_relaxed) != before) {
            continue;  // torn read: a writer recycled the slot
        }
        const auto rec = std::bit_cast<SpanRecord>(words);
        if (trace_id != 0 && rec.trace_id != trace_id) {
            continue;
        }
        out.push_back(rec);
    }
    return out;
}

TraceBuffer& buffer() {
    static TraceBuffer* instance = [] {
        auto* buf = new TraceBuffer();
        // Expose ring health through the registry; the buffer outlives
        // every snapshot, so callback binding is safe for process life.
        auto& registry = MetricsRegistry::instance();
        (void)registry.bind_callback("trace_spans_recorded_total", {},
                                     [buf] { return buf->recorded(); });
        (void)registry.bind_callback("trace_spans_dropped_total", {},
                                     [buf] { return buf->dropped(); });
        return buf;
    }();
    return *instance;
}

}  // namespace blobseer::trace

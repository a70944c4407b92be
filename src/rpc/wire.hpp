/// \file wire.hpp
/// \brief Binary wire codec primitives: bounded little-endian readers and
///        writers.
///
/// Every cross-node message in BlobSeer is serialized with these two
/// classes (see DESIGN.md §7). The format is deliberately boring:
/// fixed-width little-endian integers for protocol-critical fields,
/// LEB128 varints for counts and lengths, length-prefixed byte strings
/// for payloads. There is no schema compiler: messages.hpp turns each
/// type's declared field list into calls on these two classes, which
/// keeps the wire format auditable byte by byte.
///
/// Safety contract: WireReader never reads past the end of its buffer and
/// never invokes UB on malformed input; every violation (truncation,
/// over-long varint, oversized length prefix) throws RpcError. This is
/// what the codec fuzz/property tests in tests/test_rpc_codec.cpp pin
/// down.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/buffer.hpp"
#include "common/error.hpp"

namespace blobseer::rpc {

/// Append-only little-endian serializer producing a Buffer.
class WireWriter {
  public:
    WireWriter() = default;
    explicit WireWriter(std::size_t reserve) { buf_.reserve(reserve); }

    void u8(std::uint8_t v) { buf_.push_back(v); }

    void u16(std::uint16_t v) { fixed(v); }
    void u32(std::uint32_t v) { fixed(v); }
    void u64(std::uint64_t v) { fixed(v); }

    /// LEB128 varint: 1 byte for values < 128, up to 10 bytes for 2^64-1.
    void varint(std::uint64_t v) {
        while (v >= 0x80) {
            buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        buf_.push_back(static_cast<std::uint8_t>(v));
    }

    /// Raw bytes, no length prefix (caller's framing must imply the size).
    void raw(ConstBytes bytes) {
        buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    }

    /// Length-prefixed byte string.
    void blob(ConstBytes bytes) {
        varint(bytes.size());
        raw(bytes);
    }

    void str(std::string_view s) {
        varint(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
    [[nodiscard]] const Buffer& buffer() const noexcept { return buf_; }
    [[nodiscard]] Buffer take() noexcept { return std::move(buf_); }

    template <typename T>
    void fixed(T v) {
        // Little-endian store; portable on the LE targets we build for,
        // and a single memcpy the optimizer turns into a plain store.
        const std::size_t n = buf_.size();
        buf_.resize(n + sizeof(T));
        std::memcpy(buf_.data() + n, &v, sizeof(T));
    }

  private:
    Buffer buf_;
};

/// Bounded deserializer over a borrowed byte span. Throws RpcError on any
/// attempt to read past the end — malformed frames must never be UB.
class WireReader {
  public:
    explicit WireReader(ConstBytes data) : data_(data) {}

    [[nodiscard]] std::uint8_t u8() {
        need(1);
        return data_[pos_++];
    }

    [[nodiscard]] std::uint16_t u16() { return fixed<std::uint16_t>(); }
    [[nodiscard]] std::uint32_t u32() { return fixed<std::uint32_t>(); }
    [[nodiscard]] std::uint64_t u64() { return fixed<std::uint64_t>(); }

    [[nodiscard]] std::uint64_t varint() {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            const std::uint8_t b = u8();
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0) {
                return v;
            }
        }
        throw RpcError("frame decode: varint longer than 64 bits");
    }

    /// Collection-count prefix: a varint validated against the bytes
    /// actually present (each element encodes to at least
    /// \p min_element_bytes). Decoders size their reserve() from this,
    /// so a hostile count in a tiny frame cannot amplify into a huge
    /// allocation before the truncation is noticed.
    [[nodiscard]] std::uint64_t varint_count(
        std::uint64_t min_element_bytes) {
        const std::uint64_t n = varint();
        const std::uint64_t per = min_element_bytes == 0
                                      ? 1
                                      : min_element_bytes;
        if (n > remaining() / per) {
            throw RpcError("frame decode: count " + std::to_string(n) +
                           " exceeds payload capacity");
        }
        return n;
    }

    /// Length-prefixed byte string; the returned span borrows the frame.
    [[nodiscard]] ConstBytes blob() {
        const std::uint64_t n = varint();
        need(n);
        const ConstBytes out = data_.subspan(pos_, n);
        pos_ += n;
        return out;
    }

    [[nodiscard]] std::string str() {
        const ConstBytes b = blob();
        return {reinterpret_cast<const char*>(b.data()), b.size()};
    }

    [[nodiscard]] std::size_t remaining() const noexcept {
        return data_.size() - pos_;
    }

    /// Decoders call this last: trailing garbage means a codec mismatch.
    void expect_end() const {
        if (remaining() != 0) {
            throw RpcError("frame decode: " + std::to_string(remaining()) +
                           " trailing bytes");
        }
    }

    template <typename T>
    [[nodiscard]] T fixed() {
        need(sizeof(T));
        T v;
        std::memcpy(&v, data_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

  private:
    void need(std::uint64_t n) const {
        if (n > remaining()) {
            throw RpcError("frame decode: truncated (need " +
                           std::to_string(n) + " bytes, have " +
                           std::to_string(remaining()) + ")");
        }
    }

    ConstBytes data_;
    std::size_t pos_ = 0;
};

}  // namespace blobseer::rpc

// Little-endian byte helpers shared by the binary codecs: the XRL wire
// frames (ipc/wire) and the RouteBatch delta encoding (stage/batch).
//
// The put_* writers append to any byte container whose elements are one
// byte wide (std::vector<uint8_t> or std::string). ByteReader is a
// bounds-checked cursor: every getter returns nullopt rather than read
// past the end, and the variable-length getters check a decoded length
// against the bytes actually left *before* allocating, so a hostile
// length field costs nothing.
#ifndef XRP_NET_LE_BYTES_HPP
#define XRP_NET_LE_BYTES_HPP

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace xrp::net {

template <class Out>
void put_u8(Out& out, uint8_t v) {
    out.push_back(static_cast<typename Out::value_type>(v));
}
template <class Out>
void put_u16(Out& out, uint16_t v) {
    put_u8(out, static_cast<uint8_t>(v));
    put_u8(out, static_cast<uint8_t>(v >> 8));
}
template <class Out>
void put_u32(Out& out, uint32_t v) {
    for (int i = 0; i < 4; ++i) put_u8(out, static_cast<uint8_t>(v >> (8 * i)));
}
template <class Out>
void put_u64(Out& out, uint64_t v) {
    for (int i = 0; i < 8; ++i) put_u8(out, static_cast<uint8_t>(v >> (8 * i)));
}
template <class Out>
void put_str16(Out& out, const std::string& s) {
    put_u16(out, static_cast<uint16_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}
template <class Out>
void put_bytes32(Out& out, const std::vector<uint8_t>& b) {
    put_u32(out, static_cast<uint32_t>(b.size()));
    out.insert(out.end(), b.begin(), b.end());
}

class ByteReader {
public:
    ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

    size_t remaining() const { return size_ - pos_; }

    bool take(void* out, size_t n) {
        if (remaining() < n) return false;
        if (n != 0) std::memcpy(out, data_ + pos_, n);
        pos_ += n;
        return true;
    }

    std::optional<uint8_t> u8() {
        if (remaining() < 1) return std::nullopt;
        return data_[pos_++];
    }
    std::optional<uint16_t> u16() {
        uint8_t b[2];
        if (!take(b, 2)) return std::nullopt;
        return static_cast<uint16_t>(b[0] | (b[1] << 8));
    }
    std::optional<uint32_t> u32() {
        uint8_t b[4];
        if (!take(b, 4)) return std::nullopt;
        return static_cast<uint32_t>(b[0]) |
               (static_cast<uint32_t>(b[1]) << 8) |
               (static_cast<uint32_t>(b[2]) << 16) |
               (static_cast<uint32_t>(b[3]) << 24);
    }
    std::optional<uint64_t> u64() {
        uint8_t b[8];
        if (!take(b, 8)) return std::nullopt;
        uint64_t v = 0;
        for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
        return v;
    }
    std::optional<std::string> str16() {
        auto len = u16();
        if (!len || *len > remaining()) return std::nullopt;
        std::string s(*len, '\0');
        take(s.data(), *len);
        return s;
    }
    std::optional<std::string> str32() {
        auto len = u32();
        if (!len || *len > remaining()) return std::nullopt;
        std::string s(*len, '\0');
        take(s.data(), *len);
        return s;
    }
    std::optional<std::vector<uint8_t>> bytes32() {
        auto len = u32();
        if (!len || *len > remaining()) return std::nullopt;
        std::vector<uint8_t> v(*len);
        take(v.data(), *len);
        return v;
    }

private:
    const uint8_t* data_;
    size_t size_;
    size_t pos_ = 0;
};

}  // namespace xrp::net

#endif

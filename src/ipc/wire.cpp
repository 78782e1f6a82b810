#include "ipc/wire.hpp"

namespace xrp::ipc {

namespace {

using net::put_bytes32;
using net::put_str16;
using net::put_u16;
using net::put_u32;
using net::put_u64;
using net::put_u8;

void encode_atom(const xrl::XrlAtom& a, std::vector<uint8_t>& out) {
    put_u8(out, static_cast<uint8_t>(a.type()));
    put_str16(out, a.name());
    struct Visitor {
        std::vector<uint8_t>& out;
        void operator()(uint32_t v) { put_u32(out, v); }
        void operator()(int32_t v) { put_u32(out, static_cast<uint32_t>(v)); }
        void operator()(uint64_t v) { put_u64(out, v); }
        void operator()(bool v) { put_u8(out, v ? 1 : 0); }
        void operator()(const std::string& v) {
            put_u32(out, static_cast<uint32_t>(v.size()));
            out.insert(out.end(), v.begin(), v.end());
        }
        void operator()(net::IPv4 v) { put_u32(out, v.to_host()); }
        void operator()(net::IPv4Net v) {
            put_u32(out, v.masked_addr().to_host());
            put_u8(out, static_cast<uint8_t>(v.prefix_len()));
        }
        void operator()(const net::IPv6& v) {
            put_u64(out, v.hi());
            put_u64(out, v.lo());
        }
        void operator()(const net::IPv6Net& v) {
            put_u64(out, v.masked_addr().hi());
            put_u64(out, v.masked_addr().lo());
            put_u8(out, static_cast<uint8_t>(v.prefix_len()));
        }
        void operator()(const net::Mac& v) {
            out.insert(out.end(), v.octets().begin(), v.octets().end());
        }
        void operator()(const std::vector<uint8_t>& v) { put_bytes32(out, v); }
        void operator()(const xrl::XrlAtomList& v) {
            put_u16(out, static_cast<uint16_t>(v.size()));
            for (const auto& item : v) encode_atom(item, out);
        }
    };
    std::visit(Visitor{out}, a.value());
}

// Smallest encoded atom: u8 type, u16 empty name, 1-byte (bool) value.
constexpr size_t kMinAtomBytes = 4;

std::optional<xrl::XrlAtom> decode_atom(WireReader& r, int depth) {
    auto type = r.u8();
    if (!type || *type > static_cast<uint8_t>(xrl::AtomType::kList))
        return std::nullopt;
    auto name = r.str16();
    if (!name) return std::nullopt;
    switch (static_cast<xrl::AtomType>(*type)) {
        case xrl::AtomType::kU32: {
            auto v = r.u32();
            if (!v) return std::nullopt;
            return xrl::XrlAtom(std::move(*name), *v);
        }
        case xrl::AtomType::kI32: {
            auto v = r.u32();
            if (!v) return std::nullopt;
            return xrl::XrlAtom(std::move(*name), static_cast<int32_t>(*v));
        }
        case xrl::AtomType::kU64: {
            auto v = r.u64();
            if (!v) return std::nullopt;
            return xrl::XrlAtom(std::move(*name), *v);
        }
        case xrl::AtomType::kBool: {
            auto v = r.u8();
            if (!v) return std::nullopt;
            return xrl::XrlAtom(std::move(*name), *v != 0);
        }
        case xrl::AtomType::kText: {
            auto v = r.str32();
            if (!v) return std::nullopt;
            return xrl::XrlAtom(std::move(*name), std::move(*v));
        }
        case xrl::AtomType::kIPv4: {
            auto v = r.u32();
            if (!v) return std::nullopt;
            return xrl::XrlAtom(std::move(*name), net::IPv4(*v));
        }
        case xrl::AtomType::kIPv4Net: {
            auto v = r.u32();
            auto len = r.u8();
            if (!v || !len || *len > 32) return std::nullopt;
            return xrl::XrlAtom(std::move(*name),
                                net::IPv4Net(net::IPv4(*v), *len));
        }
        case xrl::AtomType::kIPv6: {
            auto hi = r.u64();
            auto lo = r.u64();
            if (!hi || !lo) return std::nullopt;
            return xrl::XrlAtom(std::move(*name), net::IPv6(*hi, *lo));
        }
        case xrl::AtomType::kIPv6Net: {
            auto hi = r.u64();
            auto lo = r.u64();
            auto len = r.u8();
            if (!hi || !lo || !len || *len > 128) return std::nullopt;
            return xrl::XrlAtom(std::move(*name),
                                net::IPv6Net(net::IPv6(*hi, *lo), *len));
        }
        case xrl::AtomType::kMac: {
            std::array<uint8_t, 6> o;
            if (!r.take(o.data(), o.size())) return std::nullopt;
            return xrl::XrlAtom(std::move(*name), net::Mac(o));
        }
        case xrl::AtomType::kBinary: {
            auto v = r.bytes32();
            if (!v) return std::nullopt;
            return xrl::XrlAtom(std::move(*name), std::move(*v));
        }
        case xrl::AtomType::kList: {
            // Every atom takes at least kMinAtomBytes, so a count the
            // remaining bytes cannot hold is malformed.
            auto count = r.u16();
            if (!count || depth >= kMaxAtomDepth ||
                *count > r.remaining() / kMinAtomBytes)
                return std::nullopt;
            xrl::XrlAtomList items;
            items.reserve(*count);
            for (uint16_t i = 0; i < *count; ++i) {
                auto item = decode_atom(r, depth + 1);
                if (!item) return std::nullopt;
                items.push_back(std::move(*item));
            }
            return xrl::XrlAtom(std::move(*name), std::move(items));
        }
    }
    return std::nullopt;
}

}  // namespace

void encode_args(const xrl::XrlArgs& args, std::vector<uint8_t>& out) {
    put_u16(out, static_cast<uint16_t>(args.size()));
    for (const auto& a : args.atoms()) encode_atom(a, out);
}

std::optional<xrl::XrlArgs> decode_args(WireReader& r) {
    auto count = r.u16();
    if (!count) return std::nullopt;
    xrl::XrlArgs args;
    for (uint16_t i = 0; i < *count; ++i) {
        auto a = decode_atom(r, 0);
        if (!a) return std::nullopt;
        args.add(std::move(*a));
    }
    return args;
}

void encode_request(const RequestFrame& f, std::vector<uint8_t>& out) {
    put_u8(out, static_cast<uint8_t>(FrameKind::kRequest));
    put_u32(out, f.seq);
    put_str16(out, f.method);
    encode_args(f.args, out);
    if (f.trace.valid()) {
        put_u8(out, kTraceMarker);
        put_u64(out, f.trace.trace_id);
        put_u32(out, f.trace.hop);
    }
}

void encode_response(const ResponseFrame& f, std::vector<uint8_t>& out) {
    put_u8(out, static_cast<uint8_t>(FrameKind::kResponse));
    put_u32(out, f.seq);
    put_u8(out, static_cast<uint8_t>(f.error.code()));
    put_str16(out, f.error.note());
    encode_args(f.args, out);
}

std::optional<FrameKind> decode_frame(const uint8_t* data, size_t size,
                                      RequestFrame& req, ResponseFrame& resp) {
    WireReader r(data, size);
    auto kind = r.u8();
    if (!kind) return std::nullopt;
    if (*kind == static_cast<uint8_t>(FrameKind::kRequest)) {
        auto seq = r.u32();
        auto method = r.str16();
        if (!seq || !method) return std::nullopt;
        auto args = decode_args(r);
        if (!args) return std::nullopt;
        telemetry::TraceContext trace;
        if (r.remaining() != 0) {
            // Only the optional trace trailer may follow the args.
            auto marker = r.u8();
            auto id = r.u64();
            auto hop = r.u32();
            if (!marker || *marker != kTraceMarker || !id || !hop ||
                r.remaining() != 0)
                return std::nullopt;
            trace.trace_id = *id;
            trace.hop = *hop;
        }
        req.seq = *seq;
        req.method = std::move(*method);
        req.args = std::move(*args);
        req.trace = trace;
        return FrameKind::kRequest;
    }
    if (*kind == static_cast<uint8_t>(FrameKind::kResponse)) {
        auto seq = r.u32();
        auto code = r.u8();
        auto note = r.str16();
        if (!seq || !code || !note ||
            *code > static_cast<uint8_t>(xrl::ErrorCode::kTargetDead))
            return std::nullopt;
        auto args = decode_args(r);
        if (!args || r.remaining() != 0) return std::nullopt;
        resp.seq = *seq;
        resp.error =
            xrl::XrlError(static_cast<xrl::ErrorCode>(*code), std::move(*note));
        resp.args = std::move(*args);
        return FrameKind::kResponse;
    }
    return std::nullopt;
}

}  // namespace xrp::ipc

// Binary wire codec for XRLs (§6.1: "internally XRLs are encoded more
// efficiently" than the textual form).
//
// All integers are little-endian. An encoded frame is:
//   request:  u8 kind=1 | u32 seq | u16 method_len | method | args [trace]
//   response: u8 kind=2 | u32 seq | u8 error_code | u16 note_len | note | args
// and an encoded args block is:
//   u16 count | count * atom
//   atom: u8 type | u16 name_len | name | value
// TCP prepends a u32 frame length; UDP uses one datagram per frame.
//
// [trace] is an optional 13-byte trailer on requests only:
//   u8 marker='T' | u64 trace_id | u32 hop
// carrying the telemetry trace context across process/transport hops.
// Frames without the trailer decode exactly as before (backward
// compatible); a request whose tail is neither empty nor a well-formed
// trailer is malformed.
//
// Every frame is hostile input: decoding bounds each length field by the
// bytes actually left before allocating, and list atoms nest at most
// kMaxAtomDepth deep, so a frame costs memory and stack proportional to
// its size, never to what it claims.
#ifndef XRP_IPC_WIRE_HPP
#define XRP_IPC_WIRE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/le_bytes.hpp"
#include "telemetry/trace.hpp"
#include "xrl/args.hpp"
#include "xrl/error.hpp"

namespace xrp::ipc {

enum class FrameKind : uint8_t { kRequest = 1, kResponse = 2 };

// First byte of the optional request trace trailer.
inline constexpr uint8_t kTraceMarker = 0x54;  // 'T'

// Deepest list nesting a decoder accepts (a top-level atom is depth 0).
inline constexpr int kMaxAtomDepth = 32;

struct RequestFrame {
    uint32_t seq = 0;
    std::string method;  // keyed full method, e.g. "bgp/1.0/set_local_as#ab12..."
    xrl::XrlArgs args;
    // Invalid (trace_id 0) unless the caller is tracing; encoded as the
    // optional trailer described above.
    telemetry::TraceContext trace;
};

struct ResponseFrame {
    uint32_t seq = 0;
    xrl::XrlError error;
    xrl::XrlArgs args;
};

// Appends to `out`; never fails (all atom states are encodable).
void encode_args(const xrl::XrlArgs& args, std::vector<uint8_t>& out);
void encode_request(const RequestFrame& f, std::vector<uint8_t>& out);
void encode_response(const ResponseFrame& f, std::vector<uint8_t>& out);

// Cursor-based decoding; returns nullopt on truncated or malformed input.
using WireReader = net::ByteReader;

std::optional<xrl::XrlArgs> decode_args(WireReader& r);
// Decodes a frame (without any transport length prefix). Returns the kind
// and fills exactly one of the two out-params.
std::optional<FrameKind> decode_frame(const uint8_t* data, size_t size,
                                      RequestFrame& req, ResponseFrame& resp);

}  // namespace xrp::ipc

#endif

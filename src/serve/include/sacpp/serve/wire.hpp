#pragma once
// Length-prefixed binary framing for SolveRequest / SolveResult.
//
// Frame layout (all integers little-endian regardless of host):
//
//   u32 length     — byte count of everything AFTER this field
//   u32 magic      — kRequestMagic ("SRQ1") or kResultMagic ("SRS1")
//   u8  version    — kWireVersion; bumped on any layout change
//   ... fixed payload fields (see wire.cpp)
//
// The same frames travel over a byte stream (examples/mg_server.cpp speaks
// them over TCP) or over msg::World, whose payloads are doubles: to_doubles /
// from_doubles pack the byte frame into a double vector with an explicit
// byte count, so no byte is invented or lost in the round trip.
//
// Decoding is defensive: decode_* never throws and never reads past the
// span it was given; a malformed frame yields `false` plus a diagnostic so
// a server can reject one bad client message without dying.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sacpp/serve/job.hpp"

namespace sacpp::msg {
class Comm;
}  // namespace sacpp::msg

namespace sacpp::serve {

inline constexpr std::uint32_t kRequestMagic = 0x31515253;  // "SRQ1"
inline constexpr std::uint32_t kResultMagic = 0x31535253;   // "SRS1"
// v2: request carries backend; v3: trace context (trace_id, parent span,
// sampling flags) appended to requests, trace_id echoed on results.  Every
// peer speaks v3; decoders reject any other version.
inline constexpr std::uint8_t kWireVersion = 3;

// Largest frame either side will accept; a length prefix beyond this is
// treated as corruption rather than honoured with a giant allocation.
inline constexpr std::size_t kMaxFrameBytes = 4096;

std::vector<std::uint8_t> encode_request(const SolveRequest& req);
std::vector<std::uint8_t> encode_result(const SolveResult& res);

// Bytes the complete frame starting at data[0] occupies (length prefix
// included), or 0 if `data` does not yet hold the full frame — the caller
// keeps reading.  A length prefix above kMaxFrameBytes is reported through
// decode_* (frame_size still returns the nominal size, clamped).
std::size_t frame_size(std::span<const std::uint8_t> data) noexcept;

// Decode one complete frame (as delimited by frame_size).  On failure the
// output is untouched and `error` (if non-null) gets a diagnostic.
bool decode_request(std::span<const std::uint8_t> frame, SolveRequest* out,
                    std::string* error = nullptr);
bool decode_result(std::span<const std::uint8_t> frame, SolveResult* out,
                   std::string* error = nullptr);

// msg::World transport: byte frames packed into double payloads.
// Layout: doubles[0] = exact byte count, doubles[1..] = frame bytes memcpy'd
// 8 per double (zero-padded tail).
std::vector<double> frame_to_doubles(std::span<const std::uint8_t> frame);
std::vector<std::uint8_t> frame_from_doubles(std::span<const double> packed);

// Convenience: ship one frame over a Comm as two messages on `tag` — a
// one-double header carrying the packed length, then the packed payload
// (msg recv needs the exact size up front, hence the header).
void send_frame(msg::Comm& comm, int dest, int tag,
                std::span<const std::uint8_t> frame);
std::vector<std::uint8_t> recv_frame(msg::Comm& comm, int source, int tag);

}  // namespace sacpp::serve

#pragma once
// Shared length-prefixed frame codec (docs/net.md#wire-format).
//
// Every byte stream in this repo frames its traffic the same way: a u32
// little-endian length prefix counting the bytes AFTER the field, then the
// payload.  serve's SRQ1/SRS1 frames (src/serve/wire.hpp) follow it, the
// socket transport's tagged message frames (tcp_transport.hpp) follow it,
// and this header is the one reassembly all of them share.
//
// A lying length prefix is REJECTED: the assembler poisons itself and
// reports kMalformed from then on, because a stream that has lied about a
// frame boundary has no trustworthy resync point.  The malformed-frame and
// lying-length-header negatives live in tests/net_codec_test.cpp, and
// tests/serve_wire_test.cpp runs serve's frames through it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sacpp::net {

enum class FrameResult : std::uint8_t {
  kFrame,      // a complete frame was peeled off
  kNeedMore,   // buffered bytes do not yet hold a full frame
  kMalformed,  // length prefix exceeds the cap; assembler is poisoned
};

// Incremental reassembler: feed() stream chunks in, next() peels complete
// frames (length prefix INCLUDED, so serve::decode_* consume the result
// unchanged) off the front.
class FrameAssembler {
 public:
  // `max_frame_bytes` caps the frame BODY (bytes after the prefix), the
  // same convention as serve::kMaxFrameBytes.
  explicit FrameAssembler(std::size_t max_frame_bytes);

  void feed(std::span<const std::uint8_t> chunk);

  // On kFrame, *frame holds the next complete frame and the internal buffer
  // advances past it.  On kMalformed (if `error` is non-null) *error names
  // the claimed and permitted sizes; every later call also reports
  // kMalformed — drop the connection.
  FrameResult next(std::vector<std::uint8_t>* frame,
                   std::string* error = nullptr);

  std::size_t buffered() const noexcept { return buffer_.size(); }
  std::size_t max_frame_bytes() const noexcept { return max_frame_bytes_; }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  bool poisoned_ = false;
  std::string poison_;
};

// Prepend the u32 LE length prefix to `payload`.
std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> payload);

// Append `v` little-endian (shared by frame builders on both sides of the
// transport and by tests forging malformed headers).
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
std::uint32_t get_u32(std::span<const std::uint8_t> in) noexcept;

// Blocking write of the whole buffer to a (blocking) socket/pipe fd; short
// writes are resumed, SIGPIPE suppressed.  False when the peer went away.
bool write_all(int fd, std::span<const std::uint8_t> bytes);

// Blocking frame reader over an fd — the shared replacement for the
// reader loops mg_server and mg_loadgen each grew.  Returns true with a
// frame, false when the connection is done: a clean EOF at a frame boundary
// leaves `error` (if non-null) empty; a malformed frame or an EOF mid-frame
// sets it.
class FdFrameReader {
 public:
  FdFrameReader(int fd, std::size_t max_frame_bytes);

  bool next(std::vector<std::uint8_t>* frame, std::string* error = nullptr);

 private:
  int fd_;
  FrameAssembler assembler_;
};

}  // namespace sacpp::net

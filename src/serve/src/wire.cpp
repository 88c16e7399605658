#include "sacpp/serve/wire.hpp"

#include <cstdio>
#include <cstring>

#include "sacpp/check/session.hpp"
#include "sacpp/common/error.hpp"
#include "sacpp/msg/msg.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::serve {

namespace {

// Largest legal double-packed frame: the byte-count word plus the padded
// frame bytes (4-byte length prefix + kMaxFrameBytes body).  recv_frame
// validates a peer's claimed length against this before allocating, so a
// lying header cannot force a giant allocation.
constexpr std::size_t kMaxPackedDoubles =
    1 + (sizeof(std::uint32_t) + kMaxFrameBytes + sizeof(double) - 1) /
            sizeof(double);

// Session-monitor probe (docs/static_analysis.md): when checked mode is on
// and a SessionMonitor is bound to this thread, every frame boundary becomes
// a typed protocol event — the frame magic is the event kind, and a result
// frame's status byte is its choice branch (ok / shed / error in the spec).
void note_frame(check::Dir dir, std::span<const std::uint8_t> frame) {
  if (!sac::active_config().check) [[likely]] {
    return;
  }
  if (check::bound_monitor() == nullptr) return;
  std::uint32_t magic = 0;
  if (frame.size() >= 2 * sizeof(std::uint32_t)) {
    for (int i = 0; i < 4; ++i) {
      magic |= static_cast<std::uint32_t>(
                   frame[sizeof(std::uint32_t) + static_cast<std::size_t>(i)])
               << (8 * i);
    }
  }
  std::uint32_t branch = check::kAnyBranch;
  // length(4) + magic(4) + version(1) + id(8) = result status byte offset.
  constexpr std::size_t kStatusOffset = 17;
  if (magic == kResultMagic && frame.size() > kStatusOffset) {
    branch = frame[kStatusOffset];
  }
  check::note_channel_event(dir, magic, branch);
}

// ---------------------------------------------------------------------------
// Little-endian scalar packing (explicit byte shifts so the wire format is
// identical on any host endianness).
// ---------------------------------------------------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

// Bounded cursor over a frame; `ok` latches false on any out-of-bounds read
// so decoders can finish parsing unconditionally and check once.
struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || data.size() - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data[pos++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        data[pos] | (static_cast<std::uint16_t>(data[pos + 1]) << 8));
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string bytes(std::size_t n) {
    if (!need(n)) return {};
    std::string s(reinterpret_cast<const char*>(data.data() + pos), n);
    pos += n;
    return s;
  }
};

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

// Writes the length prefix once the body is complete.
void seal(std::vector<std::uint8_t>& frame) {
  const std::uint32_t body =
      static_cast<std::uint32_t>(frame.size() - sizeof(std::uint32_t));
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(body >> (8 * i));
  }
}

// Shared prologue: peel the length prefix, check magic + version, and hand
// back a reader positioned at the first payload field.  A cross-version peer
// gets a diagnostic naming ITS version and the one this build speaks — "bad
// magic" alone would send an operator diffing byte dumps when the real story
// is a version skew.
bool open_frame(std::span<const std::uint8_t> frame, std::uint32_t want_magic,
                const char* what, Reader* r, std::string* error) {
  r->data = frame;
  const std::uint32_t body = r->u32();
  if (!r->ok || frame.size() != sizeof(std::uint32_t) + body) {
    return fail(error, std::string("serve wire: truncated ") + what +
                           " frame (" + std::to_string(frame.size()) +
                           " bytes)");
  }
  if (body > kMaxFrameBytes) {
    return fail(error, std::string("serve wire: ") + what +
                           " frame length " + std::to_string(body) +
                           " exceeds the " +
                           std::to_string(kMaxFrameBytes) + "-byte cap");
  }
  const std::uint32_t magic = r->u32();
  if (!r->ok || magic != want_magic) {
    char found[16];
    std::snprintf(found, sizeof(found), "0x%08x", magic);
    return fail(error, std::string("serve wire: bad ") + what + " magic " +
                           found + " (not an " + what + " frame)");
  }
  const std::uint8_t version = r->u8();
  if (!r->ok || version != kWireVersion) {
    return fail(error, std::string("serve wire: peer sent ") + what +
                           " frame version " + std::to_string(version) +
                           "; this build speaks version " +
                           std::to_string(kWireVersion));
  }
  return true;
}

}  // namespace

const char* priority_name(Priority p) noexcept {
  switch (p) {
    case Priority::kHigh:
      return "high";
    case Priority::kNormal:
      return "normal";
    case Priority::kLow:
      return "low";
  }
  return "?";
}

const char* solve_status_name(SolveStatus s) noexcept {
  switch (s) {
    case SolveStatus::kOk:
      return "ok";
    case SolveStatus::kWrongAnswer:
      return "wrong-answer";
    case SolveStatus::kShedDeadline:
      return "shed-deadline";
    case SolveStatus::kShedCapacity:
      return "shed-capacity";
    case SolveStatus::kDeadlineMiss:
      return "deadline-miss";
    case SolveStatus::kError:
      return "error";
  }
  return "?";
}

bool solve_completed(SolveStatus s) noexcept {
  return s == SolveStatus::kOk || s == SolveStatus::kWrongAnswer ||
         s == SolveStatus::kDeadlineMiss;
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_request(const SolveRequest& req) {
  std::vector<std::uint8_t> frame;
  frame.reserve(64);
  put_u32(frame, 0);  // length placeholder, sealed below
  put_u32(frame, kRequestMagic);
  put_u8(frame, kWireVersion);
  put_u64(frame, req.id);
  put_u8(frame, static_cast<std::uint8_t>(req.cls));
  put_u8(frame, static_cast<std::uint8_t>(req.variant));
  put_u8(frame, static_cast<std::uint8_t>(req.priority));
  put_u8(frame, static_cast<std::uint8_t>(req.stencil_mode));
  put_u8(frame, static_cast<std::uint8_t>(req.backend));
  put_u8(frame, req.record_norms ? 1 : 0);
  put_u32(frame, req.nit);
  put_u32(frame, req.gang);
  put_i64(frame, req.deadline_ns);
  // v3 trace context rides at the end so all v2 field offsets are stable.
  put_u64(frame, req.trace_id);
  put_u64(frame, req.trace_parent);
  put_u8(frame, req.trace_flags);
  seal(frame);
  return frame;
}

std::vector<std::uint8_t> encode_result(const SolveResult& res) {
  std::vector<std::uint8_t> frame;
  frame.reserve(96 + res.error.size());
  put_u32(frame, 0);
  put_u32(frame, kResultMagic);
  put_u8(frame, kWireVersion);
  put_u64(frame, res.id);
  put_u8(frame, static_cast<std::uint8_t>(res.status));
  put_u8(frame, res.verified ? 1 : 0);
  put_u32(frame, res.gang);
  put_f64(frame, res.final_norm);
  put_f64(frame, res.seconds);
  put_i64(frame, res.queue_ns);
  put_i64(frame, res.e2e_ns);
  // Diagnostics are bounded so a pathological error string cannot push the
  // frame over kMaxFrameBytes.
  std::string err = res.error;
  constexpr std::size_t kMaxError = 512;
  if (err.size() > kMaxError) err.resize(kMaxError);
  put_u16(frame, static_cast<std::uint16_t>(err.size()));
  frame.insert(frame.end(), err.begin(), err.end());
  put_u64(frame, res.trace_id);  // v3: echo for client-side stitching
  seal(frame);
  return frame;
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

std::size_t frame_size(std::span<const std::uint8_t> data) noexcept {
  if (data.size() < sizeof(std::uint32_t)) return 0;
  std::uint32_t body = 0;
  for (int i = 0; i < 4; ++i) {
    body |= static_cast<std::uint32_t>(data[static_cast<std::size_t>(i)])
            << (8 * i);
  }
  // Corrupt lengths are clamped so stream readers detect the problem via
  // decode_* instead of waiting forever for gigabytes that never come.
  if (body > kMaxFrameBytes) body = static_cast<std::uint32_t>(kMaxFrameBytes);
  const std::size_t total = sizeof(std::uint32_t) + body;
  return data.size() >= total ? total : 0;
}

bool decode_request(std::span<const std::uint8_t> frame, SolveRequest* out,
                    std::string* error) {
  Reader r;
  if (!open_frame(frame, kRequestMagic, "request", &r, error)) return false;
  SolveRequest req;
  req.id = r.u64();
  const std::uint8_t cls = r.u8();
  const std::uint8_t variant = r.u8();
  const std::uint8_t priority = r.u8();
  const std::uint8_t stencil = r.u8();
  const std::uint8_t backend = r.u8();
  req.record_norms = r.u8() != 0;
  req.nit = r.u32();
  req.gang = r.u32();
  req.deadline_ns = r.i64();
  req.trace_id = r.u64();
  req.trace_parent = r.u64();
  req.trace_flags = r.u8();
  if (!r.ok || r.pos != frame.size()) {
    return fail(error, "serve wire: request frame has wrong payload size");
  }
  if (cls > static_cast<std::uint8_t>(mg::MgClass::C)) {
    return fail(error, "serve wire: request class " + std::to_string(cls) +
                           " out of range");
  }
  if (variant > static_cast<std::uint8_t>(mg::Variant::kSacDirect)) {
    return fail(error, "serve wire: request variant " +
                           std::to_string(variant) + " out of range");
  }
  if (priority >= kPriorityLanes) {
    return fail(error, "serve wire: request priority " +
                           std::to_string(priority) + " out of range");
  }
  if (stencil > static_cast<std::uint8_t>(sac::StencilMode::kPlanes)) {
    return fail(error, "serve wire: request stencil mode " +
                           std::to_string(stencil) + " out of range");
  }
  if (backend == 2) {
    return fail(error,
                "serve wire: request backend 2 names the retired "
                "simd-portable engine");
  }
  if (backend > static_cast<std::uint8_t>(sac::BackendKind::kJit)) {
    return fail(error, "serve wire: request backend " +
                           std::to_string(backend) + " out of range");
  }
  req.cls = static_cast<mg::MgClass>(cls);
  req.variant = static_cast<mg::Variant>(variant);
  req.priority = static_cast<Priority>(priority);
  req.stencil_mode = static_cast<sac::StencilMode>(stencil);
  req.backend = static_cast<sac::BackendKind>(backend);
  *out = req;
  return true;
}

bool decode_result(std::span<const std::uint8_t> frame, SolveResult* out,
                   std::string* error) {
  Reader r;
  if (!open_frame(frame, kResultMagic, "result", &r, error)) return false;
  SolveResult res;
  res.id = r.u64();
  const std::uint8_t status = r.u8();
  res.verified = r.u8() != 0;
  res.gang = r.u32();
  res.final_norm = r.f64();
  res.seconds = r.f64();
  res.queue_ns = r.i64();
  res.e2e_ns = r.i64();
  const std::uint16_t err_len = r.u16();
  res.error = r.bytes(err_len);
  res.trace_id = r.u64();
  if (!r.ok || r.pos != frame.size()) {
    return fail(error, "serve wire: result frame has wrong payload size");
  }
  if (status > static_cast<std::uint8_t>(SolveStatus::kError)) {
    return fail(error, "serve wire: result status " + std::to_string(status) +
                           " out of range");
  }
  res.status = static_cast<SolveStatus>(status);
  *out = std::move(res);
  return true;
}

// ---------------------------------------------------------------------------
// msg::World transport
// ---------------------------------------------------------------------------

std::vector<double> frame_to_doubles(std::span<const std::uint8_t> frame) {
  const std::size_t words = (frame.size() + sizeof(double) - 1) / sizeof(double);
  std::vector<double> packed(1 + words, 0.0);
  packed[0] = static_cast<double>(frame.size());
  if (!frame.empty()) {
    std::memcpy(packed.data() + 1, frame.data(), frame.size());
  }
  return packed;
}

std::vector<std::uint8_t> frame_from_doubles(std::span<const double> packed) {
  SACPP_REQUIRE(!packed.empty(), "serve wire: empty double-packed frame");
  const auto bytes = static_cast<std::size_t>(packed[0]);
  SACPP_REQUIRE(bytes <= (packed.size() - 1) * sizeof(double),
                "serve wire: double-packed frame shorter than its header "
                "claims");
  std::vector<std::uint8_t> frame(bytes);
  if (bytes != 0) std::memcpy(frame.data(), packed.data() + 1, bytes);
  return frame;
}

void send_frame(msg::Comm& comm, int dest, int tag,
                std::span<const std::uint8_t> frame) {
  note_frame(check::Dir::kSend, frame);
  const std::vector<double> packed = frame_to_doubles(frame);
  const double header = static_cast<double>(packed.size());
  comm.send(dest, tag, std::span<const double>(&header, 1));
  comm.send(dest, tag, packed);
}

std::vector<std::uint8_t> recv_frame(msg::Comm& comm, int source, int tag) {
  double header = 0.0;
  comm.recv(source, tag, std::span<double>(&header, 1));
  // The header is peer-controlled: bound it by the largest packed frame the
  // wire format admits BEFORE sizing the reassembly buffer.  Without this
  // check a declared length beyond the cap turns into an attacker-sized
  // allocation (and a recv that can never be satisfied).
  SACPP_REQUIRE(header >= 1.0 &&
                    header <= static_cast<double>(kMaxPackedDoubles),
                "serve wire: declared frame length exceeds the reassembly "
                "buffer cap");
  std::vector<double> packed(static_cast<std::size_t>(header), 0.0);
  comm.recv(source, tag, packed);
  std::vector<std::uint8_t> frame = frame_from_doubles(packed);
  note_frame(check::Dir::kRecv, frame);
  return frame;
}

}  // namespace sacpp::serve

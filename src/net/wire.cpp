#include "net/wire.hpp"

namespace bellamy::net {

bool is_known_type(std::uint16_t type) {
  const unsigned request = type & ~0x80u;  // a response is its request | 0x80
  return request >= static_cast<unsigned>(MsgType::kPredictRequest) &&
         request <= static_cast<unsigned>(MsgType::kReportRunRequest);
}

const char* to_string(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kTruncated: return "truncated frame";
    case WireStatus::kVersionMismatch: return "wire version mismatch";
    case WireStatus::kUnknownType: return "unknown message type";
    case WireStatus::kWrongType: return "unexpected message type";
    case WireStatus::kOversizedFrame: return "oversized frame";
    case WireStatus::kTrailingBytes: return "trailing bytes after payload";
    case WireStatus::kMalformed: return "malformed field";
    case WireStatus::kChecksumMismatch: return "frame checksum mismatch";
  }
  return "unknown wire status";
}

// ---------------------------------------------------------------------------
// Frame parsing
// ---------------------------------------------------------------------------

WireStatus parse_body(const std::uint8_t* data, std::size_t size, FrameView& out) {
  WireReader r(data, size);
  if (!r.u16(out.version) || !r.u16(out.type)) return WireStatus::kTruncated;
  // Version first: an old-version peer must hear the honest kVersionMismatch,
  // not a checksum complaint about a trailer it never wrote.
  if (out.version != kWireVersion) return WireStatus::kVersionMismatch;
  if (size < 4 + kFrameChecksumBytes) return WireStatus::kTruncated;
  // Checksum before the type: a corrupted type byte is CORRUPTION, not an
  // unknown message — only checksum-clean bytes reach any further decoding.
  const std::size_t body_size = size - kFrameChecksumBytes;
  std::uint64_t stored = 0;
  std::memcpy(&stored, data + body_size, sizeof stored);
  if (util::fnv1a64_bytes(data, body_size) != stored) return WireStatus::kChecksumMismatch;
  if (!is_known_type(out.type)) return WireStatus::kUnknownType;
  out.payload = data + 4;
  out.payload_size = body_size - 4;
  return WireStatus::kOk;
}

WireStatus parse_frame(const std::uint8_t* data, std::size_t size, FrameView& out) {
  WireReader r(data, size);
  std::uint32_t len = 0;
  if (!r.u32(len)) return WireStatus::kTruncated;
  if (len > kMaxFrameBytes) return WireStatus::kOversizedFrame;
  // Cannot even hold version + type + checksum.
  if (len < 4 + kFrameChecksumBytes) return WireStatus::kOversizedFrame;
  if (size - 4 < len) return WireStatus::kTruncated;
  if (size - 4 > len) return WireStatus::kTrailingBytes;
  return parse_body(data + 4, len, out);
}

}  // namespace bellamy::net

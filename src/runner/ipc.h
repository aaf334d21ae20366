// Pipe-based frame protocol between the sweep supervisor and its worker
// subprocesses (runner/supervisor.h).
//
// Wire format, little-endian, per frame:
//   u32  payload length
//   u8   frame type
//   ...  payload
//
// Frame types and payloads:
//   REQUEST    supervisor -> worker: u64 point index.  The worker runs the
//              point's attempt loop and answers with one RESULT.
//   RESULT     worker -> supervisor: a serialized PointResult.  Doubles
//              travel as raw IEEE-754 bits, so the committed CSV is
//              bit-identical to an in-process run.
//   HEARTBEAT  worker -> supervisor, empty payload: liveness.  Sent on
//              startup, after every RESULT, and between attempts / during
//              backoff sleeps.  A worker holding an in-flight point that
//              stays silent past the hang deadline is presumed wedged and
//              SIGKILLed.
//   CRASH      worker -> supervisor: the breadcrumb text line
//              ("point=<i> attempt=<a> phase=<step>"), written by the
//              fatal-signal handler (util/breadcrumb.h) right before the
//              signal is re-raised.  The frame type value must stay 4 —
//              the breadcrumb module hard-codes it to avoid a util ->
//              runner dependency.
//
// Shutdown is pipe closure: a worker whose request pipe reaches EOF exits
// cleanly.  A truncated or garbled frame (e.g. a signal landing mid-write)
// reads as kError and the supervisor treats the worker as crashed — the
// protocol never trusts a partially received frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/sweep_runner.h"

namespace nvsram::runner::ipc {

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kResult = 2,
  kHeartbeat = 3,
  kCrash = 4,  // hard-coded in util/breadcrumb.cpp; do not renumber
};

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::vector<std::uint8_t> payload;
};

enum class ReadStatus { kFrame, kEof, kError };

// Writes one frame, retrying on EINTR / short writes.  Returns false when
// the peer is gone (EPIPE) or the fd errors out.
bool write_frame(int fd, FrameType type, const void* payload, std::size_t n);
inline bool write_frame(int fd, FrameType type) {
  return write_frame(fd, type, nullptr, 0);
}

// Blocking read of one complete frame.  kEof only at a clean frame
// boundary; EOF or garbage mid-frame is kError.  Payloads are capped at
// 256 MiB as a sanity bound against a corrupted length word.
ReadStatus read_frame(int fd, Frame& out);

// ---- payload codecs ----

std::vector<std::uint8_t> encode_request(std::uint64_t index);
// Returns false when the payload is malformed (wrong size).
bool decode_request(const std::vector<std::uint8_t>& payload,
                    std::uint64_t& index);

std::vector<std::uint8_t> encode_result(const PointResult& res);
bool decode_result(const std::vector<std::uint8_t>& payload, PointResult& res);

inline std::string payload_text(const Frame& f) {
  return std::string(f.payload.begin(), f.payload.end());
}

}  // namespace nvsram::runner::ipc

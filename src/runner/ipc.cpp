#include "runner/ipc.h"

#include <cerrno>
#include <cstring>

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace nvsram::runner::ipc {

namespace {

constexpr std::size_t kMaxPayload = 256u << 20;

#if !defined(_WIN32)

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t rc = ::write(fd, p, n);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += rc;
    n -= static_cast<std::size_t>(rc);
  }
  return true;
}

// 1 = ok, 0 = clean EOF before the first byte, -1 = error / EOF mid-read.
int read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::read(fd, p + got, n - got);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return got == 0 ? 0 : -1;
    got += static_cast<std::size_t>(rc);
  }
  return 1;
}

#endif  // !_WIN32

// ---- little-endian scalar codec ----

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// Bounds-checked sequential reader over a payload; any overrun latches
// ok = false and subsequent reads return zeros.
struct Reader {
  const std::vector<std::uint8_t>& buf;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (pos + 1 > buf.size()) {
      ok = false;
      return 0;
    }
    return buf[pos++];
  }
  std::uint32_t u32() {
    if (pos + 4 > buf.size()) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(buf[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (pos + 8 > buf.size()) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(buf[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || pos + n > buf.size()) {
      ok = false;
      return {};
    }
    std::string s(buf.begin() + static_cast<std::ptrdiff_t>(pos),
                  buf.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    return s;
  }
};

}  // namespace

bool write_frame(int fd, FrameType type, const void* payload, std::size_t n) {
#if defined(_WIN32)
  (void)fd;
  (void)type;
  (void)payload;
  (void)n;
  return false;
#else
  if (n > kMaxPayload) return false;
  std::vector<std::uint8_t> frame;
  frame.reserve(n + 5);
  put_u32(frame, static_cast<std::uint32_t>(n));
  frame.push_back(static_cast<std::uint8_t>(type));
  if (n > 0) {
    const auto* p = static_cast<const std::uint8_t*>(payload);
    frame.insert(frame.end(), p, p + n);
  }
  // One write per frame: small frames stay atomic on a pipe (< PIPE_BUF),
  // so heartbeats never interleave with an in-progress result.
  return write_all(fd, frame.data(), frame.size());
#endif
}

ReadStatus read_frame(int fd, Frame& out) {
#if defined(_WIN32)
  (void)fd;
  (void)out;
  return ReadStatus::kError;
#else
  std::uint8_t header[5];
  const int rc = read_all(fd, header, sizeof(header));
  if (rc == 0) return ReadStatus::kEof;
  if (rc < 0) return ReadStatus::kError;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= std::uint32_t(header[i]) << (8 * i);
  if (len > kMaxPayload) return ReadStatus::kError;
  if (header[4] < 1 || header[4] > 4) return ReadStatus::kError;
  out.type = static_cast<FrameType>(header[4]);
  out.payload.resize(len);
  if (len > 0 && read_all(fd, out.payload.data(), len) != 1) {
    return ReadStatus::kError;
  }
  return ReadStatus::kFrame;
#endif
}

std::vector<std::uint8_t> encode_request(std::uint64_t index) {
  std::vector<std::uint8_t> out;
  put_u64(out, index);
  return out;
}

bool decode_request(const std::vector<std::uint8_t>& payload,
                    std::uint64_t& index) {
  Reader r{payload};
  index = r.u64();
  return r.ok && r.pos == payload.size();
}

std::vector<std::uint8_t> encode_result(const PointResult& res) {
  std::vector<std::uint8_t> out;
  put_u64(out, res.outcome.index);
  out.push_back(res.succeeded ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(res.outcome.status));
  put_u32(out, static_cast<std::uint32_t>(res.outcome.attempts));
  put_f64(out, res.outcome.seconds);
  put_u32(out, static_cast<std::uint32_t>(res.outcome.backoff_ms.size()));
  for (double d : res.outcome.backoff_ms) put_f64(out, d);
  put_string(out, res.outcome.error);
  put_u32(out, static_cast<std::uint32_t>(res.rows.size()));
  for (const auto& row : res.rows) {
    put_u32(out, static_cast<std::uint32_t>(row.size()));
    for (double v : row) put_f64(out, v);
  }
  return out;
}

bool decode_result(const std::vector<std::uint8_t>& payload, PointResult& res) {
  Reader r{payload};
  res.outcome.index = r.u64();
  res.succeeded = r.u8() != 0;
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(PointStatus::kPoisoned)) return false;
  res.outcome.status = static_cast<PointStatus>(status);
  res.outcome.attempts = static_cast<int>(r.u32());
  res.outcome.seconds = r.f64();
  const std::uint32_t n_delays = r.u32();
  if (!r.ok || n_delays > 1u << 20) return false;
  res.outcome.backoff_ms.clear();
  res.outcome.backoff_ms.reserve(n_delays);
  for (std::uint32_t i = 0; i < n_delays && r.ok; ++i) {
    res.outcome.backoff_ms.push_back(r.f64());
  }
  res.outcome.error = r.str();
  const std::uint32_t n_rows = r.u32();
  if (!r.ok || n_rows > 1u << 24) return false;
  res.rows.clear();
  res.rows.reserve(n_rows);
  for (std::uint32_t i = 0; i < n_rows && r.ok; ++i) {
    const std::uint32_t n_vals = r.u32();
    if (!r.ok || n_vals > 1u << 20) return false;
    std::vector<double> row;
    row.reserve(n_vals);
    for (std::uint32_t j = 0; j < n_vals && r.ok; ++j) row.push_back(r.f64());
    res.rows.push_back(std::move(row));
  }
  return r.ok && r.pos == payload.size();
}

}  // namespace nvsram::runner::ipc

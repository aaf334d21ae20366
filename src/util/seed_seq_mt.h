// The output stream of std::mt19937 seeded from std::seed_seq{a, b}, bit
// for bit, without building either of them for the common case.
//
// A Monte-Carlo device draw seeds a fresh generator per device and reads
// only a handful of outputs (two normals from std::normal_distribution).
// std::mt19937's first call twists all 624 state words; output k reads only
// words k, k + 1 and k + 397 of the seeded state while k < 227, so this
// engine twists each word on demand.  The seeding is libstdc++'s and the
// standard's [rand.util.seedseq] / [rand.eng.mers]:
//   * seed_seq::generate over 624 words: the two 624-step mixing loops for
//     a two-word seed, with ring indices in place of `% 624`;
//   * mersenne_twister_engine::seed(seq): the all-zero guard on the result.
// Output 227 and later read words the first twist already rewrote; there
// the engine hands over to a real std::mt19937 built from the same seed and
// advanced past the outputs already returned.  That engine lives on the
// heap, so the common case keeps 2.5 KiB of state on the stack instead of
// mt19937's 5 KiB.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>

namespace nvsram::util {

class SeedSeqMt19937 {
 public:
  using result_type = std::mt19937::result_type;

  SeedSeqMt19937(std::uint32_t a, std::uint32_t b) : a_(a), b_(b) {
    constexpr std::size_t n = kState;
    constexpr std::size_t t = 11;            // n >= 623
    constexpr std::size_t p = (n - t) / 2;   // 306
    constexpr std::size_t q = p + t;         // 317
    constexpr std::uint32_t s = 2;           // seed words
    x_.fill(0x8b8b8b8bu);
    // Loop 1, k = 0 .. n - 1 (m = max(s + 1, n) = n).  At k = 0 every word
    // still holds the fill, so which word stands for begin[k - 1] does not
    // matter.
    std::size_t ip = p, iq = q, im = n - 1;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t arg = x_[k] ^ x_[ip] ^ x_[im];
      const std::uint32_t r1 = 1664525u * (arg ^ (arg >> 27));
      std::uint32_t r2 = r1 + static_cast<std::uint32_t>(k);
      if (k == 0) r2 = r1 + s;
      if (k == 1) r2 += a;
      if (k == 2) r2 += b;
      x_[ip] += r1;
      x_[iq] += r2;
      x_[k] = r2;
      im = k;
      ip = ip + 1 == n ? 0 : ip + 1;
      iq = iq + 1 == n ? 0 : iq + 1;
    }
    // Loop 2, k = n .. 2n - 1, where k % n runs 0 .. n - 1 again.
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t arg = x_[k] + x_[ip] + x_[im];
      const std::uint32_t r3 = 1566083941u * (arg ^ (arg >> 27));
      const std::uint32_t r4 = r3 - static_cast<std::uint32_t>(k);
      x_[ip] ^= r3;
      x_[iq] ^= r4;
      x_[k] = r4;
      im = k;
      ip = ip + 1 == n ? 0 : ip + 1;
      iq = iq + 1 == n ? 0 : iq + 1;
    }
    // mt19937::seed: a state whose significant bits are all zero would
    // only ever output zeros, so its top word is set instead.
    bool zero = (x_[0] & kUpperMask) == 0;
    for (std::size_t i = 1; zero && i < n; ++i) zero = x_[i] == 0;
    if (zero) x_[0] = kUpperMask;
  }

  static constexpr result_type min() { return std::mt19937::min(); }
  static constexpr result_type max() { return std::mt19937::max(); }

  result_type operator()() {
    if (k_ < kState - kShift) {
      const std::uint32_t y = (x_[k_] & kUpperMask) | (x_[k_ + 1] & ~kUpperMask);
      std::uint32_t z = x_[k_ + kShift] ^ (y >> 1) ^ ((y & 1u) ? kMatrixA : 0u);
      ++k_;
      z ^= z >> 11;
      z ^= (z << 7) & 0x9d2c5680u;
      z ^= (z << 15) & 0xefc60000u;
      z ^= z >> 18;
      return z;
    }
    if (!fallback_) {
      std::seed_seq seq{a_, b_};
      fallback_ = std::make_unique<std::mt19937>(seq);
      fallback_->discard(k_);
    }
    return (*fallback_)();
  }

 private:
  static constexpr std::size_t kState = 624;  // n
  static constexpr std::size_t kShift = 397;  // m
  static constexpr std::uint32_t kUpperMask = 0x80000000u;
  static constexpr std::uint32_t kMatrixA = 0x9908b0dfu;

  std::array<std::uint32_t, kState> x_;  // the seeded, untwisted state
  std::size_t k_ = 0;                    // outputs returned from x_
  std::uint32_t a_, b_;
  std::unique_ptr<std::mt19937> fallback_;
};

}  // namespace nvsram::util

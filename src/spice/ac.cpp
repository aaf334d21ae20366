#include "spice/ac.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "spice/elements.h"
#include "spice/newton.h"

namespace nvsram::spice {

namespace {

using Complex = std::complex<double>;

// Dense complex LU with partial pivoting (AC systems are small: the cell
// netlists are far below the dense cutoff, and AC is a per-frequency solve).
class ComplexLu {
 public:
  bool factorize(std::vector<Complex> a, std::size_t n) {
    n_ = n;
    a_ = std::move(a);
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t pivot = k;
      double best = std::abs(at(k, k));
      for (std::size_t r = k + 1; r < n; ++r) {
        const double mag = std::abs(at(r, k));
        if (mag > best) {
          best = mag;
          pivot = r;
        }
      }
      if (best < 1e-300) return false;
      if (pivot != k) {
        for (std::size_t c = 0; c < n; ++c) std::swap(at(k, c), at(pivot, c));
        std::swap(perm_[k], perm_[pivot]);
      }
      const Complex inv = 1.0 / at(k, k);
      for (std::size_t r = k + 1; r < n; ++r) {
        const Complex f = at(r, k) * inv;
        at(r, k) = f;
        if (f == Complex(0.0)) continue;
        for (std::size_t c = k + 1; c < n; ++c) at(r, c) -= f * at(k, c);
      }
    }
    return true;
  }

  std::vector<Complex> solve(const std::vector<Complex>& b) const {
    std::vector<Complex> y(n_);
    for (std::size_t i = 0; i < n_; ++i) y[i] = b[perm_[i]];
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < i; ++j) y[i] -= at(i, j) * y[j];
    }
    for (std::size_t ii = n_; ii-- > 0;) {
      for (std::size_t j = ii + 1; j < n_; ++j) y[ii] -= at(ii, j) * y[j];
      y[ii] /= at(ii, ii);
    }
    return y;
  }

 private:
  Complex& at(std::size_t r, std::size_t c) { return a_[r * n_ + c]; }
  const Complex& at(std::size_t r, std::size_t c) const { return a_[r * n_ + c]; }

  std::size_t n_ = 0;
  std::vector<Complex> a_;
  std::vector<std::size_t> perm_;
};

}  // namespace

ACAnalysis::ACAnalysis(Circuit& circuit, ACOptions options,
                       std::vector<Probe> probes)
    : circuit_(circuit), options_(options), probes_(std::move(probes)) {
  for (const auto& p : probes_) {
    if (p.kind != Probe::Kind::kNodeVoltage) {
      throw std::invalid_argument("ACAnalysis: only node-voltage probes");
    }
  }
}

void ACAnalysis::set_ac(const Device* source, double magnitude) {
  ac_magnitudes_[source] = magnitude;
}

Waveform ACAnalysis::run() {
  // ---- DC operating point ----
  DCAnalysis dc(circuit_);
  const auto op = dc.solve();
  if (!op) throw std::runtime_error("ACAnalysis: DC operating point failed");

  const MnaLayout layout = op->layout();
  const std::size_t n = layout.unknown_count();

  // ---- real part: the Jacobian at the operating point ----
  linalg::SparseBuilder builder(n);
  linalg::Vector dummy_rhs(n, 0.0);
  StampContext ctx(layout, op->raw(), builder, dummy_rhs, /*time=*/0.0,
                   /*dt=*/0.0, /*dc=*/true, IntegrationMethod::kBackwardEuler,
                   /*source_scale=*/1.0);
  for (const auto& dev : circuit_.devices()) dev->stamp(ctx);
  for (std::size_t i = 0; i + 1 < layout.node_count(); ++i) {
    builder.add(i, i, options_.newton.gmin);
  }
  const linalg::CsrMatrix g_matrix(builder);

  // ---- capacitance pattern (imaginary part scales with omega) ----
  struct CapEntry {
    std::size_t a = MnaLayout::kNoIndex;
    std::size_t b = MnaLayout::kNoIndex;
    double c = 0.0;
  };
  std::vector<CapEntry> caps;
  struct IndEntry {
    std::size_t branch;
    double l;
  };
  std::vector<IndEntry> inductors;
  for (const auto& dev : circuit_.devices()) {
    if (const auto* cap = device_cast<Capacitor>(dev.get())) {
      caps.push_back({layout.node_index(cap->node_a()),
                      layout.node_index(cap->node_b()), cap->capacitance()});
    } else if (const auto* ind = device_cast<Inductor>(dev.get())) {
      inductors.push_back({ind->branch_index(), ind->inductance()});
    }
  }

  // ---- AC excitation vector ----
  std::vector<Complex> rhs(n, Complex(0.0));
  for (const auto& [dev, mag] : ac_magnitudes_) {
    if (const auto* vs = device_cast<VSource>(dev)) {
      rhs[vs->branch_index()] += mag;
    } else if (const auto* is = device_cast<ISource>(dev)) {
      const std::size_t from = layout.node_index(is->node_from());
      const std::size_t to = layout.node_index(is->node_to());
      if (from != MnaLayout::kNoIndex) rhs[from] -= mag;
      if (to != MnaLayout::kNoIndex) rhs[to] += mag;
    } else {
      throw std::invalid_argument("ACAnalysis: AC source must be V or I");
    }
  }

  // ---- frequency grid ----
  std::vector<double> freqs;
  const double decades = std::log10(options_.f_stop / options_.f_start);
  const int total = std::max(2, static_cast<int>(
                                    decades * options_.points_per_decade) + 1);
  for (int i = 0; i < total; ++i) {
    freqs.push_back(options_.f_start *
                    std::pow(10.0, decades * i / (total - 1)));
  }

  std::vector<std::string> labels;
  for (const auto& p : probes_) {
    labels.push_back("mag:" + p.label);
    labels.push_back("ph:" + p.label);
  }
  Waveform wave(std::move(labels));

  // ---- per-frequency complex solve ----
  for (double f : freqs) {
    const double omega = 2.0 * std::numbers::pi * f;
    std::vector<Complex> a(n * n, Complex(0.0));
    const auto& rp = g_matrix.row_ptr();
    const auto& ci = g_matrix.col_idx();
    const auto& vals = g_matrix.values();
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
        a[r * n + ci[k]] += vals[k];
      }
    }
    for (const auto& cap : caps) {
      const Complex jwc(0.0, omega * cap.c);
      if (cap.a != MnaLayout::kNoIndex) a[cap.a * n + cap.a] += jwc;
      if (cap.b != MnaLayout::kNoIndex) a[cap.b * n + cap.b] += jwc;
      if (cap.a != MnaLayout::kNoIndex && cap.b != MnaLayout::kNoIndex) {
        a[cap.a * n + cap.b] -= jwc;
        a[cap.b * n + cap.a] -= jwc;
      }
    }
    // Inductor branch equations gain the -jwL impedance term (the real
    // Jacobian stamped the DC short: v_a - v_b = 0).
    for (const auto& ind : inductors) {
      a[ind.branch * n + ind.branch] -= Complex(0.0, omega * ind.l);
    }
    ComplexLu lu;
    if (!lu.factorize(std::move(a), n)) {
      throw std::runtime_error("ACAnalysis: singular system at f=" +
                               std::to_string(f));
    }
    const auto x = lu.solve(rhs);

    std::vector<double> row;
    row.reserve(probes_.size() * 2);
    for (const auto& p : probes_) {
      const std::size_t idx = layout.node_index(p.node);
      const Complex v = idx == MnaLayout::kNoIndex ? Complex(0.0) : x[idx];
      row.push_back(std::abs(v));
      row.push_back(std::arg(v) * 180.0 / std::numbers::pi);
    }
    wave.append(f, row);
  }
  return wave;
}

}  // namespace nvsram::spice

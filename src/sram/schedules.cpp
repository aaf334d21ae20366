#include "sram/schedules.h"

#include <stdexcept>
#include <utility>

#include "lint/power/check.h"
#include "lint/schedule.h"
#include "lint/temporal/units_check.h"

namespace nvsram::sram {

const char* to_string(BenchArch arch) {
  switch (arch) {
    case BenchArch::kNVPG:
      return "nvpg";
    case BenchArch::kNOF:
      return "nof";
    case BenchArch::kOSR:
      return "osr";
  }
  return "?";
}

std::optional<BenchArch> bench_arch_from_string(const std::string& id) {
  if (id == "nvpg") return BenchArch::kNVPG;
  if (id == "nof") return BenchArch::kNOF;
  if (id == "osr") return BenchArch::kOSR;
  return std::nullopt;
}

std::unique_ptr<CellTestbench> build_benchmark_schedule(
    BenchArch arch, const models::PaperParams& pp, const ScheduleParams& sp,
    TestbenchOptions opts) {
  if (sp.n_rw < 0) throw std::invalid_argument("ScheduleParams::n_rw < 0");
  const CellKind kind =
      arch == BenchArch::kOSR ? CellKind::k6T : CellKind::kNvSram;
  auto tb = std::make_unique<CellTestbench>(kind, pp, opts);

  switch (arch) {
    case BenchArch::kNVPG:
      // Fig. 5(a): the array stays powered through the active burst; store
      // happens once, right before the long shutdown.
      for (int i = 0; i < sp.n_rw; ++i) {
        tb->op_write(i % 2 == 0);
        tb->op_read();
        tb->op_sleep(sp.t_sl);
      }
      tb->op_store();
      tb->op_shutdown(sp.t_sd);
      tb->op_restore();
      tb->op_read();
      break;

    case BenchArch::kNOF:
      // Fig. 5(b): power off around every access.  Write cycles must store
      // (the cell state changed); read cycles restore what the MTJs already
      // hold, so they power off without a store — the protocol-store-missing
      // rule is write-aware for exactly this reason.
      for (int i = 0; i < sp.n_rw; ++i) {
        tb->op_write(i % 2 == 0);
        tb->op_store();
        tb->op_shutdown(sp.t_sl);
        tb->op_restore();
        tb->op_read();
        tb->op_shutdown(sp.t_sl);
        tb->op_restore();
      }
      tb->op_shutdown(sp.t_sd);
      tb->op_restore();
      tb->op_read();
      break;

    case BenchArch::kOSR:
      // Fig. 5(c): volatile 6T cell; both the short and the long idle are
      // low-voltage sleeps above the retention floor.
      for (int i = 0; i < sp.n_rw; ++i) {
        tb->op_write(i % 2 == 0);
        tb->op_read();
        tb->op_sleep(sp.t_sl);
      }
      tb->op_sleep(sp.t_sd);
      tb->op_read();
      break;
  }
  tb->op_idle(2e-9);
  return tb;
}

std::vector<lint::Diagnostic> lint_schedule(
    const CellTestbench& tb, const lint::temporal::TemporalOptions& topt,
    const lint::dataflow::DataflowOptions& dopt) {
  const lint::temporal::Timeline tl = tb.export_timeline();
  const lint::Schedule schedule(tl, topt.vdd, topt.clock_period,
                                &tb.circuit());
  std::vector<lint::Diagnostic> out;
  auto add = [&out](std::vector<lint::Diagnostic> diags) {
    for (auto& d : diags) out.push_back(std::move(d));
  };
  add(lint::temporal::check_timeline(tl, topt, &schedule));
  add(lint::temporal::check_timeline_units(tl));
  add(lint::temporal::check_paper_params(tb.paper()));
  add(lint::power::check_power(tb.circuit(), tl, nullptr, {}, &schedule));
  add(lint::dataflow::check_dataflow(tl, dopt, &tb.circuit(), nullptr,
                                     &schedule));
  return out;
}

}  // namespace nvsram::sram

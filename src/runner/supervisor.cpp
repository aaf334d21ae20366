#include "runner/supervisor.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "runner/ipc.h"
#include "util/breadcrumb.h"
#include "util/log.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace nvsram::runner::supervisor {

bool available() {
#if defined(_WIN32)
  return false;
#else
  return true;
#endif
}

#if defined(_WIN32)

void run(const std::string&, const RunnerOptions&, std::size_t,
         const SweepRunner::PointFn&, std::size_t, Committer&, RunSummary&,
         bool&) {
  throw RunnerError("process isolation is unavailable on this platform");
}

#else  // POSIX implementation

namespace {

// A point is quarantined after killing this many workers.
constexpr int kCrashesBeforePoison = 2;
// Persistent fork failure with work still pending is a harness fault, not
// something to spin on forever.
constexpr int kMaxForkFailures = 50;

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Hang deadline: explicit override, else derived from the cooperative
// per-point watchdog (the same budget wired into TranOptions::
// max_wall_seconds) with generous margin so the in-band WatchdogError
// always fires first on a point that merely runs long.  0 = containment off.
double hang_deadline_seconds(const RunnerOptions& options) {
  if (options.heartbeat_timeout_sec > 0.0) return options.heartbeat_timeout_sec;
  if (options.point_timeout_sec > 0.0) {
    return options.point_timeout_sec * 1.5 + 2.0;
  }
  return 0.0;
}

struct WorkerSlot {
  pid_t pid = -1;
  int req_fd = -1;  // supervisor -> worker (REQUEST)
  int res_fd = -1;  // worker -> supervisor (RESULT / HEARTBEAT / CRASH)
  bool busy = false;
  std::size_t point = 0;   // the in-flight point
  int deaths = 0;          // drives the respawn backoff schedule
  double spawn_at = 0.0;   // monotonic time when (re)spawning is allowed
  double activity_at = 0.0;  // last frame received or point assigned
  bool hang_killed = false;
  std::string crash_note;  // breadcrumb from a CRASH frame, if one arrived
  std::string crumb_path;
};

std::string read_breadcrumb_file(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in && std::getline(in, line)) return line;
  return {};
}

// Everything the worker subprocess does, start to finish.  Never returns:
// _Exit keeps the child away from the parent's atexit handlers and
// buffered streams (both inherited by fork).
[[noreturn]] void worker_main(const RunnerOptions& options,
                              const SweepRunner::PointFn& fn, int req_fd,
                              int res_fd, int slot,
                              const std::string& crumb_path) {
  const int crumb_fd =
      ::open(crumb_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  util::breadcrumb::arm(crumb_fd, res_fd);

  if (options.worker_rlimit_mb > 0.0) {
    const rlim_t bytes =
        static_cast<rlim_t>(options.worker_rlimit_mb * 1024.0 * 1024.0);
    struct rlimit lim {bytes, bytes};
    ::setrlimit(RLIMIT_AS, &lim);
  }

  // Backoff sleeps are chunked with heartbeats so a long retry delay is
  // never mistaken for a hang.
  auto heartbeat_sleep = [res_fd](double ms) {
    double left = ms;
    while (left > 0.0) {
      const double chunk = left < 100.0 ? left : 100.0;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(chunk));
      left -= chunk;
      ipc::write_frame(res_fd, ipc::FrameType::kHeartbeat);
    }
  };

  ipc::write_frame(res_fd, ipc::FrameType::kHeartbeat);  // ready
  for (;;) {
    ipc::Frame frame;
    if (ipc::read_frame(req_fd, frame) != ipc::ReadStatus::kFrame ||
        frame.type != ipc::FrameType::kRequest) {
      break;  // EOF (supervisor gone / shutdown) or protocol damage
    }
    std::uint64_t index = 0;
    if (!ipc::decode_request(frame.payload, index)) break;
    const auto payload = ipc::encode_result(detail::solve_point(
        options, static_cast<std::size_t>(index), slot, fn, heartbeat_sleep));
    const bool pipe_ok = ipc::write_frame(res_fd, ipc::FrameType::kResult,
                                          payload.data(), payload.size());
    util::breadcrumb::set_idle();
    if (!pipe_ok) break;
  }
  std::_Exit(0);
}

class Supervisor {
 public:
  Supervisor(std::string name, const RunnerOptions& options,
             std::size_t n_points, const SweepRunner::PointFn& fn,
             std::size_t n_workers, Committer& committer, RunSummary& summary)
      : name_(std::move(name)),
        options_(options),
        n_points_(n_points),
        fn_(fn),
        committer_(committer),
        summary_(summary),
        hang_deadline_(hang_deadline_seconds(options)),
        ready_cap_(n_workers * 4 + 8) {
    slots_.resize(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) {
      slots_[w].crumb_path =
          options_.csv_path + ".worker" + std::to_string(w) + ".crumb";
    }
    for (std::size_t i = 0; i < n_points_; ++i) {
      if (!committer_.is_resumed(i)) queue_.push_back(i);
    }
  }

  // Returns true when the committer stopped the sweep early.
  bool run() {
    // The supervisor writes into pipes whose reader may have just died;
    // that must surface as EPIPE, not a fatal SIGPIPE.
    struct sigaction ignore_pipe {};
    ignore_pipe.sa_handler = SIG_IGN;
    struct sigaction saved_pipe {};
    ::sigaction(SIGPIPE, &ignore_pipe, &saved_pipe);

    bool stopped = false;
    try {
      stopped = event_loop();
    } catch (...) {
      shutdown_workers(/*force=*/true);
      ::sigaction(SIGPIPE, &saved_pipe, nullptr);
      throw;
    }
    shutdown_workers(/*force=*/stopped);
    ::sigaction(SIGPIPE, &saved_pipe, nullptr);
    return stopped;
  }

 private:
  bool work_pending() const { return !queue_.empty(); }

  // Commits everything committable in strict point order; false => stop.
  bool commit_ready() {
    while (next_commit_ < n_points_) {
      if (committer_.is_resumed(next_commit_)) {
        committer_.commit_resumed(next_commit_);
        if (!committer_.harness_error().empty()) return false;
        ++next_commit_;
        continue;
      }
      const auto it = ready_.find(next_commit_);
      if (it == ready_.end()) break;
      PointResult res = std::move(it->second);
      ready_.erase(it);
      const bool keep_going = committer_.commit(next_commit_, std::move(res));
      ++next_commit_;
      if (!keep_going) return false;
    }
    return true;
  }

  void spawn(std::size_t w) {
    WorkerSlot& s = slots_[w];
    int req[2], res[2];
    if (::pipe(req) != 0) {
      note_fork_failure(s);
      return;
    }
    if (::pipe(res) != 0) {
      ::close(req[0]);
      ::close(req[1]);
      note_fork_failure(s);
      return;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (int fd : {req[0], req[1], res[0], res[1]}) ::close(fd);
      note_fork_failure(s);
      return;
    }
    if (pid == 0) {
      // Child: drop every inherited supervisor-side pipe end — holding a
      // sibling's write end open would mask that sibling's EOF-on-death.
      for (const WorkerSlot& other : slots_) {
        if (other.req_fd >= 0) ::close(other.req_fd);
        if (other.res_fd >= 0) ::close(other.res_fd);
      }
      ::close(req[1]);
      ::close(res[0]);
      worker_main(options_, fn_, req[0], res[1], static_cast<int>(w),
                  s.crumb_path);
    }
    // Parent.
    ::close(req[0]);
    ::close(res[1]);
    s.pid = pid;
    s.req_fd = req[1];
    s.res_fd = res[0];
    s.busy = false;
    s.hang_killed = false;
    s.crash_note.clear();
    s.activity_at = monotonic_seconds();
    fork_failures_ = 0;
  }

  void note_fork_failure(WorkerSlot& s) {
    s.spawn_at = monotonic_seconds() + 1.0;
    if (++fork_failures_ > kMaxForkFailures) {
      throw RunnerError("SweepRunner " + name_ +
                        ": cannot fork sweep workers (" +
                        std::to_string(fork_failures_) + " failures)");
    }
    util::log_warn() << "sweep " << name_
                     << ": fork/pipe failed; retrying worker spawn";
  }

  void assign_work() {
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      WorkerSlot& s = slots_[w];
      if (s.pid < 0 || s.busy) continue;
      if (queue_.empty()) break;
      // Backpressure must never stall the pipeline.  The queue front is the
      // lowest pending point (requeues push_front); when it is exactly the
      // next point to commit, the parked results can only drain through it,
      // so it bypasses the cap — otherwise a point whose worker died after
      // the others filled the buffer would deadlock the sweep.
      if (ready_.size() >= ready_cap_ && queue_.front() != next_commit_) break;
      const std::size_t index = queue_.front();
      const auto payload = ipc::encode_request(index);
      if (!ipc::write_frame(s.req_fd, ipc::FrameType::kRequest, payload.data(),
                            payload.size())) {
        // Worker already dead: its EOF will be handled by the poll loop.
        ::kill(s.pid, SIGKILL);
        continue;
      }
      queue_.pop_front();
      s.busy = true;
      s.point = index;
      s.activity_at = monotonic_seconds();
      s.hang_killed = false;
    }
  }

  void make_poisoned(std::size_t index, int deaths, const std::string& cause) {
    PointResult res;
    res.succeeded = false;
    res.outcome.index = index;
    res.outcome.status = PointStatus::kPoisoned;
    res.outcome.attempts = deaths;
    res.outcome.error = "quarantined after killing " + std::to_string(deaths) +
                        " workers; last death: " + cause;
    ready_.emplace(index, std::move(res));
  }

  void handle_death(std::size_t w) {
    WorkerSlot& s = slots_[w];
    int status = 0;
    ::waitpid(s.pid, &status, 0);
    std::ostringstream cause;
    if (WIFSIGNALED(status)) {
      cause << "fatal signal " << WTERMSIG(status);
      if (s.hang_killed) cause << " (hang: missed heartbeats past deadline)";
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      cause << "exit code " << WEXITSTATUS(status);
    } else {
      cause << "unexpected clean exit";
    }

    ::close(s.req_fd);
    ::close(s.res_fd);
    s.req_fd = s.res_fd = -1;
    s.pid = -1;

    if (s.busy) {
      std::string crumb = s.crash_note;
      if (crumb.empty()) crumb = read_breadcrumb_file(s.crumb_path);
      if (crumb.empty()) crumb = "(no breadcrumb)";
      const std::string described =
          cause.str() + " [breadcrumb: " + crumb + "]";
      const std::size_t culprit = s.point;
      const int deaths = ++crash_count_[culprit];
      if (deaths >= kCrashesBeforePoison) {
        util::log_warn() << "sweep " << name_ << ": point " << culprit
                         << " killed worker " << w << " again (" << described
                         << "); quarantining as poison";
        make_poisoned(culprit, deaths, described);
      } else {
        util::log_warn() << "sweep " << name_ << ": worker " << w
                         << " died computing point " << culprit << " ("
                         << described << "); requeueing once";
        queue_.push_front(culprit);
      }
      s.busy = false;
    }
    s.crash_note.clear();

    const double backoff_ms =
        detail::respawn_backoff_ms(options_, static_cast<int>(w), s.deaths);
    ++s.deaths;
    ++summary_.respawns;
    s.spawn_at = monotonic_seconds() + backoff_ms / 1000.0;
  }

  // Drains one frame from a readable worker; death on EOF / damage.
  void handle_readable(std::size_t w) {
    WorkerSlot& s = slots_[w];
    ipc::Frame frame;
    const ipc::ReadStatus rs = ipc::read_frame(s.res_fd, frame);
    if (rs == ipc::ReadStatus::kEof) {
      handle_death(w);
      return;
    }
    if (rs == ipc::ReadStatus::kError) {
      // Torn frame (signal landed mid-write) or protocol damage: the
      // stream can no longer be trusted — put the worker down.
      ::kill(s.pid, SIGKILL);
      handle_death(w);
      return;
    }
    s.activity_at = monotonic_seconds();
    switch (frame.type) {
      case ipc::FrameType::kHeartbeat:
        break;
      case ipc::FrameType::kCrash:
        s.crash_note = ipc::payload_text(frame);
        break;
      case ipc::FrameType::kResult: {
        PointResult res;
        const std::size_t expected = s.point;
        if (!ipc::decode_result(frame.payload, res) || !s.busy ||
            res.outcome.index != expected) {
          ::kill(s.pid, SIGKILL);
          handle_death(w);
          return;
        }
        // A point that already killed a worker but then completed on a
        // respawned one recovered by containment, not by luck: mark it so
        // the summary reflects the crash.
        if (res.succeeded && crash_count_[expected] > 0 &&
            res.outcome.status == PointStatus::kOk) {
          res.outcome.status = PointStatus::kRecovered;
        }
        ready_.emplace(expected, std::move(res));
        s.busy = false;
        break;
      }
      case ipc::FrameType::kRequest:
        // Workers never send requests; treat as damage.
        ::kill(s.pid, SIGKILL);
        handle_death(w);
        break;
    }
  }

  void kill_hung_workers() {
    if (hang_deadline_ <= 0.0) return;
    const double now = monotonic_seconds();
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      WorkerSlot& s = slots_[w];
      if (s.pid < 0 || !s.busy || s.hang_killed) continue;
      if (now - s.activity_at > hang_deadline_) {
        util::log_warn() << "sweep " << name_ << ": worker " << w
                         << " silent for more than " << hang_deadline_
                         << " s on point " << s.point << "; SIGKILL";
        s.hang_killed = true;
        ::kill(s.pid, SIGKILL);
        // EOF lands in the next poll round; handle_death does the rest.
      }
    }
  }

  // Milliseconds until the next scheduled supervisor action.
  int poll_timeout_ms() const {
    const double now = monotonic_seconds();
    double wait = 0.2;
    for (const WorkerSlot& s : slots_) {
      if (s.pid >= 0 && s.busy && hang_deadline_ > 0.0 && !s.hang_killed) {
        wait = std::min(wait, s.activity_at + hang_deadline_ - now);
      }
      if (s.pid < 0 && work_pending()) {
        wait = std::min(wait, s.spawn_at - now);
      }
    }
    if (wait < 0.01) wait = 0.01;
    return static_cast<int>(wait * 1000.0);
  }

  // Returns true when the committer stopped the sweep early.
  bool event_loop() {
    for (;;) {
      if (!commit_ready()) return true;
      if (next_commit_ >= n_points_) return false;

      const double now = monotonic_seconds();
      for (std::size_t w = 0; w < slots_.size(); ++w) {
        if (slots_[w].pid < 0 && work_pending() && now >= slots_[w].spawn_at) {
          spawn(w);
        }
      }
      assign_work();
      kill_hung_workers();

      std::vector<pollfd> fds;
      std::vector<std::size_t> owners;
      for (std::size_t w = 0; w < slots_.size(); ++w) {
        if (slots_[w].pid >= 0) {
          fds.push_back({slots_[w].res_fd, POLLIN, 0});
          owners.push_back(w);
        }
      }
      if (fds.empty()) {
        // Nothing alive: wait out the respawn backoff (or detect a wedged
        // harness — commit_ready above would have drained anything left).
        std::this_thread::sleep_for(
            std::chrono::milliseconds(poll_timeout_ms()));
        continue;
      }
      const int rc = ::poll(fds.data(), fds.size(), poll_timeout_ms());
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw RunnerError("SweepRunner " + name_ + ": poll failed");
      }
      for (std::size_t k = 0; k < fds.size(); ++k) {
        if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) {
          // The slot may have been torn down by an earlier event this round.
          if (slots_[owners[k]].pid >= 0) handle_readable(owners[k]);
        }
      }
    }
  }

  void shutdown_workers(bool force) {
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      WorkerSlot& s = slots_[w];
      if (s.pid < 0) continue;
      if (force || s.busy) {
        ::kill(s.pid, SIGKILL);  // in-flight work is unwanted; don't linger
      }
      ::close(s.req_fd);  // idle workers read EOF and _Exit(0)
      s.req_fd = -1;
    }
    for (WorkerSlot& s : slots_) {
      if (s.pid < 0) continue;
      int status = 0;
      ::waitpid(s.pid, &status, 0);
      if (s.res_fd >= 0) ::close(s.res_fd);
      s.res_fd = -1;
      s.pid = -1;
    }
    for (const WorkerSlot& s : slots_) {
      std::remove(s.crumb_path.c_str());
    }
  }

  std::string name_;
  const RunnerOptions& options_;
  std::size_t n_points_;
  const SweepRunner::PointFn& fn_;
  Committer& committer_;
  RunSummary& summary_;
  double hang_deadline_;
  std::size_t ready_cap_;

  std::vector<WorkerSlot> slots_;
  std::deque<std::size_t> queue_;            // fresh points, in order
  std::map<std::size_t, PointResult> ready_; // reorder buffer
  std::map<std::size_t, int> crash_count_;   // worker deaths per point
  std::size_t next_commit_ = 0;
  int fork_failures_ = 0;
};

}  // namespace

void run(const std::string& name, const RunnerOptions& options,
         std::size_t n_points, const SweepRunner::PointFn& fn,
         std::size_t n_workers, Committer& committer, RunSummary& summary,
         bool& stopped) {
  Supervisor sup(name, options, n_points, fn, n_workers, committer, summary);
  stopped = sup.run();
}

#endif  // !_WIN32

}  // namespace nvsram::runner::supervisor

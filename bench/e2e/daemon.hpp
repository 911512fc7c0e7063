// A forked icgmm_serve process and what the benchmark reads about it from
// outside: its announce line, per-thread CPU time and peak RSS from
// /proc, and its exit status; and the clock and host-speed probe the
// benchmark times it with.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace icgmm::e2e {

class Daemon {
 public:
  /// Forks and execs argv[0] with stdout on a pipe (stderr inherited),
  /// then blocks until its "listening on port N" announce. Throws
  /// std::runtime_error when the process exits or stays silent for
  /// `timeout_s` first (the process is killed and reaped).
  explicit Daemon(const std::vector<std::string>& argv, double timeout_s = 120);
  /// Kills and reaps a daemon that was never terminate()d.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }
  /// Fork to announce line, in seconds.
  double startup_s() const noexcept { return startup_s_; }

  /// SIGSTOP, returning once the daemon has stopped. Throws
  /// std::runtime_error if it exited instead.
  void stop();
  /// SIGCONT after stop().
  void resume();

  /// SIGTERM, read stdout to EOF, reap. Returns the exit code, 128 +
  /// signal for a signalled exit, or -1 when the daemon outlived
  /// `timeout_s` and was killed.
  int terminate(double timeout_s = 60);

 private:
  /// Appends available stdout to output_ until `until_ns` (steady clock)
  /// or EOF; returns false on EOF.
  bool read_output(std::uint64_t until_ns);
  void kill_and_reap() noexcept;

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  double startup_s_ = 0.0;
  std::string output_;
};

/// CPU time a process has run, from /proc/<pid>/task/*/schedstat (ns).
struct CpuSample {
  std::uint64_t total_ns = 0;
  /// {tid, run ns} per live thread.
  std::vector<std::pair<int, std::uint64_t>> threads;
};
CpuSample sample_cpu(pid_t pid);

/// VmHWM (peak resident set) of a live process, in KiB; 0 if unreadable.
std::uint64_t peak_rss_kib(pid_t pid);

/// Monotonic clock in nanoseconds (CLOCK_MONOTONIC, the steady clock).
std::uint64_t now_ns() noexcept;

/// The host's speed, measured with code that is not the program's: mean
/// ns per round trip of an eventfd ping-pong between this thread and a
/// helper thread (two cross-thread wake-ups per round trip).
double wake_round_trip_ns();

}  // namespace icgmm::e2e

#include "daemon.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace icgmm::e2e {

namespace {

constexpr const char* kAnnounce = "listening on port ";

std::uint64_t seconds_to_ns(double s) {
  return static_cast<std::uint64_t>(s * 1e9);
}

}  // namespace

std::uint64_t now_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Daemon::Daemon(const std::vector<std::string>& argv, double timeout_s) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const std::uint64_t t0 = now_ns();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // Never outlive the benchmark, even when it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];

  const std::uint64_t deadline = t0 + seconds_to_ns(timeout_s);
  while (true) {
    const std::size_t at = output_.find(kAnnounce);
    if (at != std::string::npos &&
        output_.find('\n', at) != std::string::npos) {
      startup_s_ = static_cast<double>(now_ns() - t0) / 1e9;
      port_ = static_cast<std::uint16_t>(
          std::strtoul(output_.c_str() + at + std::char_traits<char>::length(kAnnounce),
                       nullptr, 10));
      break;
    }
    if (!read_output(deadline) || now_ns() >= deadline) {
      kill_and_reap();
      throw std::runtime_error("daemon " + argv[0] +
                               " exited or timed out before listening");
    }
  }
}

Daemon::~Daemon() { kill_and_reap(); }

bool Daemon::read_output(std::uint64_t until_ns) {
  char buf[4096];
  while (true) {
    const std::uint64_t now = now_ns();
    if (now >= until_ns) return true;
    pollfd pfd{.fd = out_fd_, .events = POLLIN, .revents = 0};
    const int timeout_ms =
        static_cast<int>(std::min<std::uint64_t>((until_ns - now) / 1'000'000 + 1, 1000));
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) continue;
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n > 0) {
      output_.append(buf, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF (or a dead pipe)
  }
}

void Daemon::stop() {
  ::kill(pid_, SIGSTOP);
  int status = 0;
  pid_t r = 0;
  while ((r = ::waitpid(pid_, &status, WUNTRACED)) < 0 && errno == EINTR) {
  }
  if (r != pid_ || !WIFSTOPPED(status)) {
    pid_ = -1;  // reaped (or not ours to wait for): nothing left to kill
    throw std::runtime_error("daemon exited instead of stopping");
  }
}

void Daemon::resume() { ::kill(pid_, SIGCONT); }

int Daemon::terminate(double timeout_s) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const std::uint64_t deadline = now_ns() + seconds_to_ns(timeout_s);
  while (now_ns() < deadline && read_output(deadline)) {
  }
  int status = 0;
  pid_t r = 0;
  while (now_ns() < deadline) {
    r = ::waitpid(pid_, &status, WNOHANG);
    if (r != 0) break;
    ::usleep(1000);
  }
  if (r != pid_) {
    kill_and_reap();
    return -1;
  }
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

void Daemon::kill_and_reap() noexcept {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

double wake_round_trip_ns() {
  constexpr int kRoundTrips = 200;
  const int ping = ::eventfd(0, EFD_CLOEXEC);
  const int pong = ::eventfd(0, EFD_CLOEXEC);
  if (ping < 0 || pong < 0) throw std::runtime_error("eventfd failed");
  // Each side blocks in read() until the other writes, so every round
  // trip is two wake-ups of a sleeping thread. A value of kStop or more
  // ends the echo thread.
  constexpr std::uint64_t kStop = 1ull << 32;
  std::thread echo([&] {
    std::uint64_t v = 0;
    while (::read(ping, &v, sizeof(v)) == sizeof(v) && v < kStop &&
           ::write(pong, &v, sizeof(v)) == sizeof(v)) {
    }
  });
  const std::uint64_t t0 = now_ns();
  bool ok = true;
  for (int i = 0; i < kRoundTrips && ok; ++i) {
    std::uint64_t v = 1;
    ok = ::write(ping, &v, sizeof(v)) == sizeof(v) &&
         ::read(pong, &v, sizeof(v)) == sizeof(v);
  }
  const std::uint64_t t1 = now_ns();
  (void)::write(ping, &kStop, sizeof(kStop));
  echo.join();
  ::close(ping);
  ::close(pong);
  if (!ok) throw std::runtime_error("eventfd ping-pong failed");
  return static_cast<double>(t1 - t0) / kRoundTrips;
}

CpuSample sample_cpu(pid_t pid) {
  CpuSample out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    std::uint64_t run_ns = 0;
    if (in >> run_ns) {
      out.threads.emplace_back(std::atoi(e->d_name), run_ns);
      out.total_ns += run_ns;
    }
  }
  ::closedir(d);
  return out;
}

std::uint64_t peak_rss_kib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      in >> kib;
      return kib;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0;
}

}  // namespace icgmm::e2e

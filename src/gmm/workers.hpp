// A fork-join team for the GMM trainer's data-parallel passes (the EM
// E-step and k-means). The calling thread is member 0; `size() - 1`
// helper threads sleep between passes. A pass hands every member a
// share of independent items and the caller reduces their results in a
// fixed order, so a team of any size computes the same bits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace icgmm::gmm {

class WorkerTeam {
 public:
  /// Starts `size - 1` helpers (none for 0 or 1). If the system refuses a
  /// thread, the team keeps the helpers it has: results do not depend on
  /// the team's size.
  explicit WorkerTeam(unsigned size);
  /// Stops and joins every helper.
  ~WorkerTeam();
  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  /// std::thread::hardware_concurrency(), or 1 where it reports 0.
  static unsigned hardware_size() noexcept;

  unsigned size() const noexcept {
    return static_cast<unsigned>(helpers_.size()) + 1;
  }

  /// Items [first, last) of `count` that `member` takes in a pass.
  std::pair<std::size_t, std::size_t> share(std::size_t count,
                                            unsigned member) const noexcept {
    const std::size_t members = size();
    return {count * member / members, count * (member + 1) / members};
  }

  /// Runs fn(member) once on every member, the caller as member 0, and
  /// returns when all have finished. Everything fn's calls wrote is then
  /// visible to the caller.
  template <typename Fn>
  void run(Fn&& fn) {
    static_assert(std::is_nothrow_invocable_v<Fn&, unsigned>,
                  "a team pass must not throw");
    job_ = &fn;
    invoke_ = [](void* job, unsigned member) noexcept {
      (*static_cast<std::remove_reference_t<Fn>*>(job))(member);
    };
    dispatch();
  }

 private:
  void dispatch() noexcept;
  void helper_loop(unsigned member) noexcept;

  // The pass in flight; written by the caller before it bumps
  // generation_, read by helpers after they see the bump.
  void* job_ = nullptr;
  void (*invoke_)(void*, unsigned) noexcept = nullptr;
  std::atomic<std::uint32_t> generation_{0};  ///< bumped once per pass
  std::atomic<unsigned> pending_{0};  ///< helpers still in the pass
  std::atomic<bool> stop_{false};
  std::vector<std::thread> helpers_;  // last: they use the members above
};

}  // namespace icgmm::gmm

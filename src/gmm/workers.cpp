#include "gmm/workers.hpp"

#include <system_error>

namespace icgmm::gmm {

WorkerTeam::WorkerTeam(unsigned size) {
  if (size < 2) return;
  helpers_.reserve(size - 1);
  for (unsigned member = 1; member < size; ++member) {
    try {
      helpers_.emplace_back([this, member] { helper_loop(member); });
    } catch (const std::system_error&) {
      break;  // run with the helpers already started
    }
  }
}

WorkerTeam::~WorkerTeam() {
  stop_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

unsigned WorkerTeam::hardware_size() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void WorkerTeam::dispatch() noexcept {
  if (!helpers_.empty()) {
    pending_.store(static_cast<unsigned>(helpers_.size()),
                   std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }
  invoke_(job_, 0);
  // Acquiring the last decrement orders every helper's writes before ours.
  for (unsigned left = pending_.load(std::memory_order_acquire); left != 0;
       left = pending_.load(std::memory_order_acquire)) {
    pending_.wait(left, std::memory_order_acquire);
  }
}

void WorkerTeam::helper_loop(unsigned member) noexcept {
  std::uint32_t seen = 0;
  for (;;) {
    generation_.wait(seen, std::memory_order_acquire);
    seen = generation_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    invoke_(job_, member);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

}  // namespace icgmm::gmm

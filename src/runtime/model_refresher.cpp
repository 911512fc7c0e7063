#include "runtime/model_refresher.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace icgmm::runtime {

ModelRefresher::ModelRefresher(ModelSlot& slot, ModelRefresherConfig cfg)
    : slot_(slot), cfg_(cfg) {
  em_.emplace(*slot_.load(), cfg_.online);
  queue_.reserve(cfg_.queue_capacity);
}

ModelRefresher::~ModelRefresher() { stop(); }

void ModelRefresher::start() {
  if (worker_.joinable()) return;  // already running
  // Restart = fresh adaptation anchored at the slot's current model. The
  // previous run's EM state (sufficient statistics, unpublished partial
  // steps) is deliberately discarded: its last published model is already
  // in the slot, and resuming from mid-run statistics would adapt against
  // a baseline no shard is serving from.
  em_.emplace(*slot_.load(), cfg_.online);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_relaxed);
  worker_ = std::thread(&ModelRefresher::run, this);
}

void ModelRefresher::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  running_.store(false, std::memory_order_relaxed);
}

std::size_t ModelRefresher::submit(std::span<const trace::GmmSample> samples) {
  std::size_t accepted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_requested_) {
      const std::size_t room = cfg_.queue_capacity > queue_.size()
                                   ? cfg_.queue_capacity - queue_.size()
                                   : 0;
      accepted = std::min(room, samples.size());
      queue_.insert(queue_.end(), samples.begin(),
                    samples.begin() + static_cast<std::ptrdiff_t>(accepted));
    }
  }
  if (accepted < samples.size()) {
    dropped_.fetch_add(samples.size() - accepted, std::memory_order_relaxed);
  }
  if (accepted > 0) cv_.notify_one();
  return accepted;
}

void ModelRefresher::run() {
  std::vector<trace::GmmSample> local;
  local.reserve(cfg_.queue_capacity);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_requested_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop requested and fully drained
      local.swap(queue_);
    }
    const std::uint32_t steps = em_->observe(local);
    observed_.fetch_add(local.size(), std::memory_order_relaxed);
    local.clear();
    if (steps > 0) {
      updates_.fetch_add(steps, std::memory_order_relaxed);
      // Publish an immutable snapshot; shards pick it up on their next
      // miss. Its pruning grid is built here, on this thread, so a shard
      // adopting it under its lock only copies pointers.
      auto next = std::make_shared<gmm::GaussianMixture>(em_->model());
      next->build_pruning_grid();
      slot_.store(std::move(next));
      published_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace icgmm::runtime

// Flight-recorder event ring: a bounded lock-free overwrite buffer of the
// last N noteworthy serving events (connection open/close, protocol
// errors, read pauses, model publishes, drain barriers, ring drops) for
// postmortem debugging — dumped via the HTTP /events route and on SIGUSR1.
//
// Writers never block and never fail: emit() claims the next global
// sequence number with one fetch_add and overwrites the oldest slot.
// Readers (rare: a dump request) reconstruct the last-N window with a
// per-slot stamp validation — a slot whose stamp changed mid-read was
// being overwritten and is skipped, so a dump taken under live traffic is
// consistent-per-event rather than torn. All slot fields are relaxed
// atomics; the stamp pair is the release/acquire edge that publishes
// them, so the protocol is TSan-clean by construction.
//
// Overflow accounting is implicit and exact: dropped() == the number of
// events whose slots were overwritten before any dump saw them
// (total - capacity, once the ring has wrapped).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

namespace icgmm::obs {

enum class EventType : std::uint8_t {
  kConnOpen = 1,      ///< arg = fd
  kConnClose = 2,     ///< arg = fd
  kProtocolError = 3, ///< arg = fd (stream poisoned, connection dropped)
  kModelPublish = 4,  ///< arg = model version after the publish
  kDrainBarrier = 5,  ///< arg = accesses the shadow has replayed so far
  kClearStats = 6,    ///< arg = accesses at the clear
  kShadowRingDrop = 8,  ///< arg = shard whose shadow ring dropped an access
  kReadPause = 9,  ///< arg = fd (connection hit the server's buffer cap)
  kConnRefused = 10,  ///< arg = live connections (at max_connections)
};

const char* to_string(EventType t) noexcept;

struct Event {
  std::uint64_t seq = 0;      ///< global emit order (0-based)
  std::uint64_t when_ns = 0;  ///< steady_clock nanos at emit
  std::uint64_t arg = 0;      ///< type-specific payload
  EventType type = EventType::kConnOpen;
};

class EventRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit EventRing(std::size_t capacity) {
    std::size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    slots_ = std::make_unique<Slot[]>(capacity_);
  }

  EventRing(const EventRing&) = delete;
  EventRing& operator=(const EventRing&) = delete;

  std::size_t capacity() const noexcept { return capacity_; }

  void emit(EventType type, std::uint64_t arg = 0) noexcept {
    const std::uint64_t seq =
        next_seq_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    Slot& slot = slots_[seq & (capacity_ - 1)];
    // Invalidate, write fields, then stamp with seq+1: a reader either
    // sees the full new event (stamp == seq+1 on both sides of its field
    // reads) or detects the overwrite and skips the slot.
    slot.stamp.store(0, std::memory_order_release);
    slot.when_ns.store(now, std::memory_order_relaxed);
    slot.arg.store(arg, std::memory_order_relaxed);
    slot.type.store(static_cast<std::uint8_t>(type),
                    std::memory_order_relaxed);
    slot.stamp.store(seq + 1, std::memory_order_release);
  }

  /// Events emitted since construction.
  std::uint64_t total() const noexcept {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// Events overwritten before they could ever be dumped.
  std::uint64_t dropped() const noexcept {
    const std::uint64_t t = total();
    return t > capacity_ ? t - capacity_ : 0;
  }

  /// Snapshot of the retained window, oldest first. Slots mid-overwrite
  /// during the scan are skipped (best-effort under live traffic; exact
  /// at quiescence).
  std::vector<Event> dump() const {
    const std::uint64_t end = next_seq_.load(std::memory_order_acquire);
    const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
    std::vector<Event> events;
    events.reserve(static_cast<std::size_t>(end - begin));
    for (std::uint64_t seq = begin; seq < end; ++seq) {
      const Slot& slot = slots_[seq & (capacity_ - 1)];
      const std::uint64_t stamp1 = slot.stamp.load(std::memory_order_acquire);
      if (stamp1 != seq + 1) continue;  // overwritten or mid-write
      Event e;
      e.seq = seq;
      e.when_ns = slot.when_ns.load(std::memory_order_relaxed);
      e.arg = slot.arg.load(std::memory_order_relaxed);
      e.type = static_cast<EventType>(
          slot.type.load(std::memory_order_relaxed));
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.stamp.load(std::memory_order_relaxed) != stamp1) continue;
      events.push_back(e);
    }
    return events;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> stamp{0};  ///< 0 = empty/mid-write, else seq+1
    std::atomic<std::uint64_t> when_ns{0};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint8_t> type{0};
  };

  std::size_t capacity_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_seq_{0};
};

inline const char* to_string(EventType t) noexcept {
  switch (t) {
    case EventType::kConnOpen: return "conn-open";
    case EventType::kConnClose: return "conn-close";
    case EventType::kProtocolError: return "protocol-error";
    case EventType::kModelPublish: return "model-publish";
    case EventType::kDrainBarrier: return "drain-barrier";
    case EventType::kClearStats: return "stats-clear";
    case EventType::kShadowRingDrop: return "shadow-ring-drop";
    case EventType::kReadPause: return "read-pause";
    case EventType::kConnRefused: return "conn-refused";
  }
  return "unknown";
}

}  // namespace icgmm::obs

#ifndef GRFUSION_COMMON_CANCELLATION_H_
#define GRFUSION_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace grfusion {

/// Shared cancellation/deadline state for one statement execution.
///
/// One token is owned by the executing Session and shared
/// — by raw pointer — with the query's QueryContext and every worker context
/// a parallel fan-out creates, so an interrupt or a deadline trip observed by
/// any thread stops all of them cooperatively.
///
/// The token is three bits folded into one atomic word so the common case
/// ("nothing armed, nothing fired") is a single relaxed load:
///  - kDeadlineArmedBit: a monotonic deadline is set (checkers must compare
///    the clock, amortized by QueryContext);
///  - kCancelledBit: an explicit interrupt arrived (InterruptHandle);
///  - kDeadlineExceededBit: some checker observed the deadline in the past —
///    latched so every sibling worker reports DeadlineExceeded (not a racy
///    mix of Cancelled/DeadlineExceeded) and nobody re-reads the clock.
///
/// All methods are thread-safe; the token must outlive every context holding
/// a pointer to it.
class CancellationToken {
 public:
  static constexpr uint32_t kDeadlineArmedBit = 1u;
  static constexpr uint32_t kCancelledBit = 2u;
  static constexpr uint32_t kDeadlineExceededBit = 4u;

  /// Monotonic clock in nanoseconds (steady_clock; never wall time, so a
  /// deadline is immune to clock adjustments).
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Disarms and unfires the token so the next statement can reuse it. Only
  /// while no other thread can reach it (no registry entry, no worker).
  void Reset() {
    state_.store(0);
    deadline_ns_.store(0);
  }

  /// Requests cooperative cancellation (client interrupt).
  void Cancel() {
    state_.fetch_or(kCancelledBit, std::memory_order_release);
  }

  /// Arms an absolute monotonic deadline (NowNs()-based).
  void SetDeadlineNs(int64_t deadline_ns) {
    deadline_ns_.store(deadline_ns, std::memory_order_relaxed);
    state_.fetch_or(kDeadlineArmedBit, std::memory_order_release);
  }

  /// Arms a deadline `timeout_us` microseconds from now. 0 expires at the
  /// first cooperative check.
  void SetTimeoutUs(int64_t timeout_us) {
    SetDeadlineNs(NowNs() + timeout_us * 1000);
  }

  /// Latches "the deadline has passed" so siblings stop without re-reading
  /// the clock and all report the same terminal code.
  void NoteDeadlineExceeded() {
    state_.fetch_or(kDeadlineExceededBit, std::memory_order_release);
  }

  /// True once the token has fired either way (interrupt or deadline).
  bool stopped() const {
    return (state_.load(std::memory_order_acquire) &
            (kCancelledBit | kDeadlineExceededBit)) != 0;
  }

  /// Raw state word; 0 means "disarmed and unfired" — checkers take their
  /// fast path on it with exactly one relaxed load.
  uint32_t state() const { return state_.load(std::memory_order_relaxed); }

  int64_t deadline_ns() const {
    return deadline_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint32_t> state_{0};
  std::atomic<int64_t> deadline_ns_{0};
};

}  // namespace grfusion

#endif  // GRFUSION_COMMON_CANCELLATION_H_

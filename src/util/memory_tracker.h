/// \file
/// \brief Intermediate-memory accounting (Definition 7): the tracker every
/// solver charges its scratch to, the budget that turns an over-size
/// solve into OutOfMemoryBudget, and the RAII charge that holds bytes.
#ifndef PTUCKER_UTIL_MEMORY_TRACKER_H_
#define PTUCKER_UTIL_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ptucker {

/// Thrown when a solver would exceed the configured intermediate-memory
/// budget. This reproduces the paper's "O.O.M." outcomes (Figs. 6, 7, 11)
/// deterministically instead of crashing the process.
class OutOfMemoryBudget : public std::runtime_error {
 public:
  /// `what` is the message; `requested` the running total the failed
  /// charge would have reached; `budget` the budget it exceeds.
  OutOfMemoryBudget(const std::string& what, std::int64_t requested,
                    std::int64_t budget)
      : std::runtime_error(what), requested_bytes(requested),
        budget_bytes(budget) {}

  std::int64_t requested_bytes;  ///< outstanding bytes had it succeeded
  std::int64_t budget_bytes;     ///< the budget in force at the time
};

/// Accounts for *intermediate data* as the paper defines it (Definition 7):
/// memory required while updating factor matrices, excluding the input
/// tensor, the core tensor, and the factor matrices themselves.
///
/// Every solver charges its scratch allocations here, which gives the
/// benchmarks the "required memory" series of Figs. 8 and 10 and lets
/// Tucker-wOpt / HOOI hit a reproducible O.O.M. at a configurable budget.
///
/// Thread-safe; charging is lock-free.
class MemoryTracker {
 public:
  /// `budget_bytes` <= 0 means unlimited.
  explicit MemoryTracker(std::int64_t budget_bytes = 0)
      : budget_bytes_(budget_bytes) {}

  /// Charges `bytes` of intermediate data. Throws OutOfMemoryBudget if the
  /// running total would exceed the budget.
  void Charge(std::int64_t bytes);

  /// Releases `bytes` previously charged.
  void Release(std::int64_t bytes);

  /// Current outstanding intermediate bytes.
  std::int64_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }

  /// High-water mark of intermediate bytes.
  std::int64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

  /// The intermediate-memory budget; <= 0 means unlimited.
  std::int64_t budget_bytes() const { return budget_bytes_; }
  /// Replaces the budget (<= 0: unlimited). Outstanding charges are kept;
  /// only later charges are checked against it.
  void set_budget_bytes(std::int64_t budget) { budget_bytes_ = budget; }

  /// Resets counters (budget unchanged).
  void Reset();

 private:
  std::int64_t budget_bytes_;
  std::atomic<std::int64_t> current_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// RAII charge on a tracker (null: no tracking). Holds `bytes()` from
/// construction to destruction; Resize moves the holding. Engines keep one
/// as a member, so a constructor that throws after charging (a member's
/// destructor still runs) leaves nothing charged.
class ScopedCharge {
 public:
  /// Charges `bytes` to `tracker`; throws OutOfMemoryBudget when over
  /// budget, with nothing charged.
  ScopedCharge(MemoryTracker* tracker, std::int64_t bytes)
      : tracker_(tracker), bytes_(bytes) {
    if (tracker_ != nullptr) tracker_->Charge(bytes_);
  }
  /// Releases the bytes held.
  ~ScopedCharge() {
    if (tracker_ != nullptr) tracker_->Release(bytes_);
  }

  ScopedCharge(const ScopedCharge&) = delete;             ///< non-copyable
  ScopedCharge& operator=(const ScopedCharge&) = delete;  ///< non-copyable

  /// Moves the holding to `bytes`. Growth is charged first, so an
  /// OutOfMemoryBudget leaves the holding unchanged; shrinkage is released.
  void Resize(std::int64_t bytes) {
    if (tracker_ != nullptr) {
      if (bytes > bytes_) {
        tracker_->Charge(bytes - bytes_);
      } else {
        tracker_->Release(bytes_ - bytes);
      }
    }
    bytes_ = bytes;
  }

  /// Bytes currently held.
  std::int64_t bytes() const { return bytes_; }

 private:
  MemoryTracker* tracker_;
  std::int64_t bytes_;
};

}  // namespace ptucker

#endif  // PTUCKER_UTIL_MEMORY_TRACKER_H_

// Model synchronization primitives and race-checked plain data for hal-mc
// scenarios.
//
//   * mc::Mutex / mc::CondVar mirror std::mutex / std::condition_variable
//     closely enough that scenario code can reproduce the MnMachine park
//     shape verbatim (std::unique_lock<mc::Mutex> works — BasicLockable).
//     The model cv never wakes spuriously and notifies FIFO, so a lost
//     wakeup manifests deterministically as a reported deadlock instead of
//     a hang.
//   * mc::Cell<T> is a plain (non-atomic) value with a FastTrack-style
//     vector-clock race check on every access: payloads handed across the
//     protocols live in Cells, so a mutation that severs the release/acquire
//     edge shows up as a concrete data race on the payload, not just as a
//     wrong value.
#pragma once

#include <array>
#include <cstdint>
#include <source_location>

#include "mc/core.hpp"

namespace hal::mc {

class Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() {
    if (Scheduler* s = Scheduler::current()) s->mutex_lock(st_);
  }
  void unlock() {
    if (Scheduler* s = Scheduler::current()) s->mutex_unlock(st_);
  }

  MutexState& state() { return st_; }

 private:
  MutexState st_;
};

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  template <typename Lock>
  void wait(Lock& lk) {
    if (Scheduler* s = Scheduler::current()) {
      s->cv_wait(st_, lk.mutex()->state());
    }
  }
  void notify_one() {
    if (Scheduler* s = Scheduler::current()) s->cv_notify(st_, false);
  }
  void notify_all() {
    if (Scheduler* s = Scheduler::current()) s->cv_notify(st_, true);
  }

 private:
  CvState st_;
};

/// Race-checked plain value. Every get/set records the accessing thread's
/// epoch; an access unordered (by the model's happens-before) with a prior
/// write — or a write unordered with a prior read — is a violation.
template <typename T>
class Cell {
 public:
  Cell() = default;
  explicit Cell(T v) : v_(v) {}
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  T get(const std::source_location& sl =
            std::source_location::current()) const {
    if (Scheduler* s = Scheduler::current()) {
      s->cell_access(reads_, write_epoch_, write_tid_, /*is_write=*/false,
                     sl);
    }
    return v_;
  }

  void set(T v, const std::source_location& sl =
                    std::source_location::current()) {
    if (Scheduler* s = Scheduler::current()) {
      s->cell_access(reads_, write_epoch_, write_tid_, /*is_write=*/true,
                     sl);
    }
    v_ = v;
  }

 private:
  T v_{};
  mutable std::array<std::uint64_t, kMaxThreads> reads_{};
  mutable std::uint64_t write_epoch_ = 0;
  mutable int write_tid_ = 0;  // slot 0 = the runner (initial value)
};

}  // namespace hal::mc

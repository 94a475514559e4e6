#ifndef FOCUS_COMMON_MUTEX_H_
#define FOCUS_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace focus::common {

// Thin annotated wrappers over the std synchronization primitives. They
// add zero behavior — Lock/Unlock forward straight to std::mutex — but
// carry the CAPABILITY annotations that let clang prove, at compile time,
// which mutex guards which field (common/thread_annotations.h). All
// locking in this repo goes through these types; focus_analyze checker
// `raw-mutex` rejects the raw std primitives outside src/common/.

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mutex_.lock(); }
  void Unlock() RELEASE() { mutex_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  // Documents (to the analysis) that the calling context holds the lock
  // when that fact cannot be proven structurally. No runtime effect.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mutex_;
};

// RAII holder: acquires in the constructor, releases in the destructor.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_->Lock();
  }
  ~MutexLock() RELEASE() { mutex_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mutex_;
};

// Condition variable bound to common::Mutex. Wait temporarily releases
// the caller's mutex exactly like std::condition_variable::wait; the
// REQUIRES annotations record that the mutex is held on entry and again
// on return, which is all the (lexically scoped) analysis can model.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  // Blocks until notified; spurious wakeups possible, as with std.
  void Wait(Mutex& mutex) REQUIRES(mutex) {
    // Adopt the already-held std::mutex for the duration of the wait and
    // release ownership back before returning: the capability state seen
    // by the analysis (held on entry, held on exit) matches reality.
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  // Predicate loop, equivalent to std::condition_variable::wait(lock,
  // pred). `pred` runs with the mutex held.
  template <typename Pred>
  void Wait(Mutex& mutex, Pred pred) REQUIRES(mutex) {
    while (!pred()) Wait(mutex);
  }

  // Blocks until notified or `deadline`; reports which happened.
  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mutex, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  // Equivalent to std::condition_variable::wait_for(lock, timeout, pred):
  // true when `pred` held before the timeout elapsed, otherwise one final
  // evaluation of `pred` after it.
  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex& mutex,
               const std::chrono::duration<Rep, Period>& timeout, Pred pred)
      REQUIRES(mutex) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred()) {
      if (WaitUntil(mutex, deadline) == std::cv_status::timeout) {
        return pred();
      }
    }
    return true;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace focus::common

#endif  // FOCUS_COMMON_MUTEX_H_

#ifndef FOCUS_COMMON_THREAD_ANNOTATIONS_H_
#define FOCUS_COMMON_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis annotations (Hutchins et al., "C/C++
// Thread Safety Analysis"). Under clang the whole tree compiles with
// -Werror=thread-safety -Werror=thread-safety-beta, so a field declared
// GUARDED_BY(mu) that is touched without mu held is a BUILD ERROR, not a
// TSan finding that depends on test scheduling. Under gcc (and any other
// compiler without the attributes) every macro expands to nothing.
//
// Conventions (see docs/STATIC_ANALYSIS.md):
//   * lock-protected fields:          T field_ GUARDED_BY(mutex_);
//   * functions expecting the lock:   void FooLocked() REQUIRES(mutex_);
//     (suffix such helpers with "Locked")
//   * functions that take the lock:   void Foo() EXCLUDES(mutex_);
//   * lock wrapper types:             class CAPABILITY("mutex") Mutex;
//   * RAII holders:                   class SCOPED_CAPABILITY MutexLock;
//
// The only lock types in this repo are common::Mutex / common::MutexLock
// / common::CondVar (common/mutex.h); focus_analyze checker `raw-mutex` keeps
// unannotated std primitives from reappearing outside src/common/.

#if defined(__clang__) && !defined(SWIG)
#define FOCUS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define FOCUS_THREAD_ANNOTATION_(x)  // no-op off clang
#endif

// A type that models a capability (a mutex). `x` names the capability
// kind in diagnostics, e.g. CAPABILITY("mutex").
#define CAPABILITY(x) FOCUS_THREAD_ANNOTATION_(capability(x))

// An RAII type that acquires a capability in its constructor and
// releases it in its destructor.
#define SCOPED_CAPABILITY FOCUS_THREAD_ANNOTATION_(scoped_lockable)

// Data members: readable/writable only while `x` is held.
#define GUARDED_BY(x) FOCUS_THREAD_ANNOTATION_(guarded_by(x))

// Pointer members: the pointed-to data is protected by `x` (the pointer
// itself may be read freely).
#define PT_GUARDED_BY(x) FOCUS_THREAD_ANNOTATION_(pt_guarded_by(x))

// The caller must hold the listed capabilities (exclusively) before
// calling, and they remain held after the call.
#define REQUIRES(...) \
  FOCUS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

// The caller must hold the listed capabilities in shared mode.
#define REQUIRES_SHARED(...) \
  FOCUS_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

// The caller must NOT hold the listed capabilities (the function acquires
// them itself; calling with them held would self-deadlock).
#define EXCLUDES(...) FOCUS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// The function acquires / releases the capability.
#define ACQUIRE(...) \
  FOCUS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  FOCUS_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  FOCUS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  FOCUS_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

// The function tries to acquire the capability and reports success via
// its return value: TRY_ACQUIRE(true) means "returns true when locked".
#define TRY_ACQUIRE(...) \
  FOCUS_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Runtime assertion that the capability is held (no-op wrapper bodies).
#define ASSERT_CAPABILITY(x) \
  FOCUS_THREAD_ANNOTATION_(assert_capability(x))

// Returns a reference to the capability guarding this object.
#define RETURN_CAPABILITY(x) FOCUS_THREAD_ANNOTATION_(lock_returned(x))

// Escape hatch for code the analysis cannot model (e.g. adopting a lock
// into std::unique_lock inside CondVar::Wait). Use sparingly; every use
// needs a comment.
#define NO_THREAD_SAFETY_ANALYSIS \
  FOCUS_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // FOCUS_COMMON_THREAD_ANNOTATIONS_H_

// Clang Thread Safety Analysis wiring for the concurrent engine pieces.
//
// Correctness depends on a hand-enforced invariant: every member the
// ThreadPool / PassCache mutexes guard must only ever be touched with the
// right lock held. TSan catches violations at runtime —
// if the racing schedule happens to fire in CI. This header turns the
// invariant into a compile-time check instead: mutex-guarded members carry
// NBV6_GUARDED_BY, lock-requiring helpers carry NBV6_REQUIRES, and the
// clang CI legs build with -Wthread-safety -Werror=thread-safety, so an
// unguarded access is a build failure, not a lucky TSan catch.
//
// The macros expand to clang's capability attributes and compile away on
// every other compiler (gcc builds are unaffected).
//
// libstdc++'s std::mutex is not capability-annotated, so the analysis
// cannot see std::lock_guard acquire anything. The annotated wrappers
// below (Mutex / MutexLock / CondVar) are therefore the repo's one way to
// lock: same semantics, same cost (MutexLock is a lock_guard-shaped RAII
// over std::mutex; CondVar is a std::condition_variable_any, whose only
// overhead is one uncontended internal lock per wait/notify — noise next
// to the coarse pass/task granularity it is used at).
//
// How to annotate a new mutex-guarded structure (also in README):
//   1. Declare the lock as `core::Mutex mu_;`.
//   2. Mark every member it protects `NBV6_GUARDED_BY(mu_)`.
//   3. Lock with `MutexLock lock(mu_);` (never a bare std::mutex).
//   4. Mark helpers that assume the lock `NBV6_REQUIRES(mu_)` instead of
//      re-locking.
//   5. Rewrite condition-variable predicates as explicit while loops
//      (`while (!pred) cv_.wait(lock);`) — a predicate lambda is analyzed
//      as a separate function and would not see the held capability.
#pragma once

#include <condition_variable>
#include <mutex>

// clang-tidy objects to an unparenthesized macro argument here, but
// attribute arguments cannot be parenthesized; this is the canonical
// expansion shape (same as abseil's thread_annotations.h).
#if defined(__clang__)
#define NBV6_THREAD_ANNOTATION_(x) __attribute__((x))  // NOLINT(bugprone-macro-parentheses)
#else
#define NBV6_THREAD_ANNOTATION_(x)
#endif

/// Marks a class as a lockable capability ("mutex").
#define NBV6_CAPABILITY(x) NBV6_THREAD_ANNOTATION_(capability(x))
/// Marks a RAII class whose constructor acquires and destructor releases.
#define NBV6_SCOPED_CAPABILITY NBV6_THREAD_ANNOTATION_(scoped_lockable)
/// Member access requires holding the given capability.
#define NBV6_GUARDED_BY(x) NBV6_THREAD_ANNOTATION_(guarded_by(x))
/// Pointee access requires holding the given capability.
#define NBV6_PT_GUARDED_BY(x) NBV6_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Function acquires the capability (and did not hold it on entry).
#define NBV6_ACQUIRE(...) \
  NBV6_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
/// Function tries to acquire; first argument is the success return value.
#define NBV6_TRY_ACQUIRE(...) \
  NBV6_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
/// Function releases the capability (must hold it on entry).
#define NBV6_RELEASE(...) \
  NBV6_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
/// Caller must already hold the capability (helper called under the lock).
#define NBV6_REQUIRES(...) \
  NBV6_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (function acquires it itself).
#define NBV6_EXCLUDES(...) NBV6_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Tells the analysis the capability is held from this point on.
#define NBV6_ASSERT_CAPABILITY(x) NBV6_THREAD_ANNOTATION_(assert_capability(x))
/// Function returns a reference to the given capability.
#define NBV6_RETURN_CAPABILITY(x) NBV6_THREAD_ANNOTATION_(lock_returned(x))
/// Escape hatch: disables the analysis for one function. Every use needs a
/// comment explaining why the protocol cannot be expressed.
#define NBV6_NO_THREAD_SAFETY_ANALYSIS \
  NBV6_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace nbv6::core {

/// std::mutex with the capability annotation the analysis needs. Same
/// layout and cost; BasicLockable, so std::condition_variable_any (and
/// generic std code) can use it directly.
class NBV6_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NBV6_ACQUIRE() { m_.lock(); }
  void unlock() NBV6_RELEASE() { m_.unlock(); }
  bool try_lock() NBV6_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// Statically asserts the lock is held (for code paths the analysis
  /// cannot follow, e.g. a callback invoked under a caller's lock).
  void assert_held() const NBV6_ASSERT_CAPABILITY(this) {}

 private:
  std::mutex m_;
};

/// lock_guard/unique_lock replacement the analysis understands. Also a
/// BasicLockable over the owned mutex, so CondVar::wait can drop and
/// reacquire it in place.
class NBV6_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NBV6_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() NBV6_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // For condition_variable_any: it unlocks around the block and relocks
  // before returning, so the scope's acquire/release bracketing that the
  // analysis tracks stays truthful at every statement it can see.
  void lock() NBV6_ACQUIRE() { mu_.lock(); }
  void unlock() NBV6_RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

/// Condition variable over Mutex/MutexLock. Waits must follow the explicit
/// while-loop shape (see the header comment) so the guarded predicate
/// reads stay inside the scope that holds the capability.
class CondVar {
 public:
  void wait(MutexLock& lock) { cv_.wait(lock); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace nbv6::core

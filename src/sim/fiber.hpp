// Cooperative user-level contexts for the simulator. Each simulated
// processor executes the *real* algorithm code on its own fiber; the engine
// interleaves fibers at shared-memory access boundaries, which is the same
// direct-execution technique Proteus used.
//
// Stack lifecycle: a fiber's stack is address space reserved with mmap, not
// committed memory. Only the pages the fiber touches become resident, and
// nothing zero-fills it. A PROT_NONE guard page sits below it, so an
// overflow faults instead of writing into a neighbouring mapping. When a
// Fiber is destroyed its stack goes back to a free list kept per host
// thread and keyed by size, and the next Fiber::start on that thread takes
// it from there, across Engines too. A stack is handed back as it was left:
// a crashed fiber's frames are never unwound, and the next fiber simply
// overwrites them. The free list unmaps its stacks when the host thread
// exits.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <exception>
#include <functional>

namespace fpq::sim {

class Fiber {
 public:
  Fiber() = default;
  /// Returns the stack to this host thread's free list.
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Prepares the fiber to run `fn` on its own stack of `stack_bytes`.
  /// Must be called exactly once before the first switch_in().
  void start(std::function<void()> fn, std::size_t stack_bytes);

  /// Transfers control from the scheduler into the fiber. Returns when the
  /// fiber yields or finishes. `from` receives the scheduler's context.
  void switch_in(ucontext_t* from);

  /// Transfers control from inside the fiber back to whoever switched it in.
  void yield_out();

  bool done() const { return done_; }

  /// Exception thrown by the fiber body, if any (rethrown by the engine
  /// after the run completes so test assertions surface normally).
  std::exception_ptr error() const { return error_; }

 private:
  static void trampoline(unsigned hi, unsigned lo);
  void body();

  ucontext_t ctx_{};
  ucontext_t* return_ctx_ = nullptr;
  /// Lowest usable byte of the stack (the guard page lies just below it);
  /// null until start().
  char* stack_ = nullptr;
  std::size_t stack_bytes_ = 0;
  std::function<void()> fn_;
  bool started_ = false;
  bool done_ = false;
  std::exception_ptr error_;
};

/// Fiber stacks the calling host thread has mapped so far. A stack taken
/// from the thread's free list is not counted again, so this stays at the
/// most stacks the thread's fibers have held at once, however many runs
/// and Engines the thread goes through.
std::size_t fiber_stacks_mapped();

} // namespace fpq::sim

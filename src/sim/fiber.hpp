// Cooperative user-level contexts for the simulator. Each simulated
// processor executes the *real* algorithm code on its own fiber; the engine
// interleaves fibers at shared-memory access boundaries, which is the same
// direct-execution technique Proteus used.
//
// Switching: on x86-64 a switch saves the callee-saved registers, the
// MXCSR and the x87 control word on the current stack, stores the stack
// pointer, loads the other context's and pops the same set back
// (AsmSwitch, 21 instructions, no syscall). Every other architecture
// uses ucontext (UcontextSwitch), whose swapcontext also saves and restores
// the signal mask with one rt_sigprocmask syscall per switch. The backend
// is picked by the architecture macro alone; both are compiled on x86-64
// so the tests run the same fiber checks against each. A switch goes from
// one context straight to another: the engine's run loop switches into a
// fiber, and a yielding fiber either returns there or hands off directly
// to the next fiber (BasicFiber::hand_off). ASan and TSan are told about
// every switch (__sanitizer_start/finish_switch_fiber,
// __tsan_switch_to_fiber), so both follow the fibers' stacks.
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
#include <cstdint>
#include <exception>
#include <functional>

namespace fpq::sim {

#if defined(__x86_64__)
/// Register-save switch for x86-64 (System V ABI).
class AsmSwitch {
 public:
  /// Lays out a first frame at the top of [stack, stack + bytes) so that
  /// the first switch into this context calls entry(arg), with the MXCSR
  /// and x87 control word the caller has now. `entry` must never return.
  void prepare(char* stack, std::size_t bytes, void (*entry)(void*), void* arg);
  /// Saves the calling context into `from` and resumes `to`.
  static void swap(AsmSwitch& from, AsmSwitch& to);

 private:
  void* sp_ = nullptr; // where the context's registers are saved
};
#endif

/// Portable switch through glibc's getcontext/makecontext/swapcontext.
class UcontextSwitch {
 public:
  void prepare(char* stack, std::size_t bytes, void (*entry)(void*), void* arg);
  static void swap(UcontextSwitch& from, UcontextSwitch& to);

 private:
  static void trampoline(unsigned hi, unsigned lo);

  ucontext_t ctx_{};
  void (*entry_)(void*) = nullptr;
  void* arg_ = nullptr;
};

#if defined(__x86_64__)
using NativeSwitch = AsmSwitch;
#else
using NativeSwitch = UcontextSwitch;
#endif

/// What the sanitizers need to follow a switch into a context: its stack
/// (ASan) and its fiber handle (TSan). Unused in other builds. A context
/// that is not a fiber (the engine's run loop, on the host thread's stack)
/// learns both each time it switches into a fiber.
struct SanitizerContext {
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* tsan_fiber = nullptr;
  std::uintptr_t parked_low = 0; // LSan: lowest live stack byte when left
};

/// One execution context: the switch backend's saved state.
template <class Switch>
struct FiberContext : SanitizerContext {
  Switch regs;
};

template <class Switch>
class BasicFiber {
 public:
  using Context = FiberContext<Switch>;

  BasicFiber() = default;
  /// Returns the stack to this host thread's free list.
  ~BasicFiber();
  BasicFiber(const BasicFiber&) = delete;
  BasicFiber& operator=(const BasicFiber&) = delete;

  /// Prepares the fiber to run `fn` on its own stack of `stack_bytes`.
  /// Must be called exactly once before the first switch_in().
  void start(std::function<void()> fn, std::size_t stack_bytes);

  /// Transfers control from the scheduler into the fiber. Returns when a
  /// fiber of this scheduler yields out or finishes; with hand-offs that
  /// need not be this one. `sched` receives the scheduler's context.
  void switch_in(Context& sched);

  /// Transfers control from inside the fiber back to the scheduler.
  void yield_out();

  /// Transfers control from inside this fiber straight to `next`, which
  /// must be started, unfinished and not running. `next` yields out to
  /// this fiber's scheduler. Returns when some context switches back in.
  void hand_off(BasicFiber& next);

  /// Declares that the fiber, parked mid-body, is never switched into
  /// again (a processor a fault plan took down, or one left waiting on
  /// it). Its frames keep what they point to, as a fail-stopped
  /// processor's state does; under LeakSanitizer those objects are marked
  /// as kept on purpose. No effect on a finished or unstarted fiber.
  void abandon();

  bool done() const { return done_; }

  /// Exception thrown by the fiber body, if any (rethrown by the engine
  /// after the run completes so test assertions surface normally).
  std::exception_ptr error() const { return error_; }

 private:
  static void entry(void* self);
  void body();

  Context ctx_;
  Context* sched_ = nullptr; // the context yield_out() returns to
  /// Lowest usable byte of the stack (the guard page lies just below it);
  /// null until start().
  char* stack_ = nullptr;
  std::size_t stack_bytes_ = 0;
  std::function<void()> fn_;
  bool started_ = false;
  bool done_ = false;
  std::exception_ptr error_;
};

#if defined(__x86_64__)
extern template class BasicFiber<AsmSwitch>;
#endif
extern template class BasicFiber<UcontextSwitch>;

using Fiber = BasicFiber<NativeSwitch>;

/// Fiber stacks the calling host thread has mapped so far. A stack taken
/// from the thread's free list is not counted again, so this stays at the
/// most stacks the thread's fibers have held at once, however many runs
/// and Engines the thread goes through.
std::size_t fiber_stacks_mapped();

} // namespace fpq::sim

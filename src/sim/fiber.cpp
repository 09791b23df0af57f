#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

// The sanitizers' fiber interfaces, when the build has one. GCC names a
// sanitizer build with __SANITIZE_*__, Clang with __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define FPQ_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define FPQ_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FPQ_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define FPQ_FIBER_TSAN 1
#endif
#endif
#if defined(FPQ_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#include <sanitizer/lsan_interface.h>
#endif
#if defined(FPQ_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace fpq::sim {

namespace {

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Each stack is named by its lowest usable byte; its guard page is the page
// below that, and the mapping spans the guard page plus `bytes`.
void unmap_stack(char* stack, std::size_t bytes) {
  FPQ_ASSERT(munmap(stack - page_bytes(), page_bytes() + bytes) == 0);
}

// This host thread's stacks that no Fiber holds, by usable size.
struct StackPool {
  std::map<std::size_t, std::vector<char*>> idle;
  std::size_t mapped = 0;
  ~StackPool();
};

// Set once this thread's pool is gone, so a Fiber that outlives it (one
// held by a static Engine, say) unmaps its stack instead of pooling it.
thread_local bool t_pool_gone = false;
thread_local StackPool t_pool;

StackPool::~StackPool() {
  for (auto& [bytes, stacks] : idle)
    for (char* s : stacks) unmap_stack(s, bytes);
  t_pool_gone = true;
}

char* take_stack(std::size_t bytes) {
  std::vector<char*>& stacks = t_pool.idle[bytes];
  if (!stacks.empty()) {
    char* s = stacks.back();
    stacks.pop_back();
    return s;
  }
  const std::size_t page = page_bytes();
  // MAP_NORESERVE: reserve address space only; a page costs memory when
  // the fiber first touches it.
  void* base = mmap(nullptr, page + bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  FPQ_ASSERT_MSG(base != MAP_FAILED, "cannot map a fiber stack");
  FPQ_ASSERT(mprotect(base, page, PROT_NONE) == 0);
  ++t_pool.mapped;
  return static_cast<char*>(base) + page;
}

void give_back_stack(char* stack, std::size_t bytes) {
  if (t_pool_gone) {
    unmap_stack(stack, bytes);
  } else {
    t_pool.idle[bytes].push_back(stack);
  }
}

} // namespace

std::size_t fiber_stacks_mapped() { return t_pool.mapped; }

// ---- Switch backends.

#if defined(__x86_64__)
// fpq_sim_asm_swap(save_sp, load_sp): pushes the callee-saved registers and
// an 8-byte slot holding the MXCSR (low 4 bytes) and the x87 control word,
// stores the stack pointer through save_sp, switches to load_sp and pops
// the same frame there. A fresh context's frame (AsmSwitch::prepare) holds
// the entry function in r13, its argument in r12 and returns into
// fpq_sim_asm_entry, which makes the call on an ABI-aligned stack and ends
// the unwinder's walk there.
extern "C" void fpq_sim_asm_swap(void** save_sp, void* load_sp);
extern "C" void fpq_sim_asm_entry();

asm(R"(
  .text
  .p2align 4
  .globl fpq_sim_asm_swap
  .hidden fpq_sim_asm_swap
  .type fpq_sim_asm_swap, @function
fpq_sim_asm_swap:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size fpq_sim_asm_swap, .-fpq_sim_asm_swap

  .p2align 4
  .globl fpq_sim_asm_entry
  .hidden fpq_sim_asm_entry
  .type fpq_sim_asm_entry, @function
fpq_sim_asm_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size fpq_sim_asm_entry, .-fpq_sim_asm_entry
)");

void AsmSwitch::prepare(char* stack, std::size_t bytes, void (*entry)(void*), void* arg) {
  // The frame fpq_sim_asm_swap pops, lowest address first: the control-word
  // slot, r15, r14, r13, r12, rbx, rbp, then the return address. The return
  // slot sits 8 bytes below a 16-byte boundary, so fpq_sim_asm_entry's call
  // is made with the stack aligned as the ABI requires.
  u32 mxcsr = 0;
  u16 fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  const auto top = reinterpret_cast<std::uintptr_t>(stack + bytes) & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<u64*>(top) - 8;
  frame[0] = static_cast<u64>(mxcsr) | static_cast<u64>(fpu_cw) << 32;
  frame[1] = 0;                                      // r15
  frame[2] = 0;                                      // r14
  frame[3] = reinterpret_cast<std::uintptr_t>(entry); // r13
  frame[4] = reinterpret_cast<std::uintptr_t>(arg);   // r12
  frame[5] = 0;                                      // rbx
  frame[6] = 0;                                      // rbp
  frame[7] = reinterpret_cast<std::uintptr_t>(&fpq_sim_asm_entry);
  sp_ = frame;
}

void AsmSwitch::swap(AsmSwitch& from, AsmSwitch& to) { fpq_sim_asm_swap(&from.sp_, to.sp_); }
#endif

void UcontextSwitch::prepare(char* stack, std::size_t bytes, void (*entry)(void*),
                             void* arg) {
  entry_ = entry;
  arg_ = arg;
  FPQ_ASSERT(getcontext(&ctx_) == 0);
  ctx_.uc_stack.ss_sp = stack;
  ctx_.uc_stack.ss_size = bytes;
  ctx_.uc_link = nullptr; // entry never returns
  // makecontext only passes ints; smuggle `this` through two 32-bit halves.
  auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&UcontextSwitch::trampoline), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xffffffffu));
}

void UcontextSwitch::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<UcontextSwitch*>((static_cast<std::uintptr_t>(hi) << 32) |
                                                 static_cast<std::uintptr_t>(lo));
  self->entry_(self->arg_);
}

void UcontextSwitch::swap(UcontextSwitch& from, UcontextSwitch& to) {
  FPQ_ASSERT(swapcontext(&from.ctx_, &to.ctx_) == 0);
}

// ---- Fibers.

namespace {

#if defined(FPQ_FIBER_ASAN)
// The context being left whose stack bounds ASan reports to the arriving
// side (the run loop's, on its way into a fiber); null otherwise.
thread_local SanitizerContext* t_learning = nullptr;
#endif

// Completes a switch on the arriving side. `fake_stack` is what this
// context saved when it was left (null on a fiber's first entry).
void arrive([[maybe_unused]] void* fake_stack) {
#if defined(FPQ_FIBER_ASAN)
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
  if (t_learning != nullptr) {
    t_learning->stack_bottom = bottom;
    t_learning->stack_size = size;
    t_learning = nullptr;
  }
#endif
}

#if defined(FPQ_FIBER_ASAN)
// Room below a switch's own frame for what the switch itself saves there.
constexpr std::size_t kSwitchFrameBytes = 512;

// Marks every heap object a word of [lo, hi) points into as kept on
// purpose, and a source of live pointers. Reads stack words that ASan may
// have poisoned, so it is not instrumented.
[[gnu::no_sanitize_address]] void keep_referents(std::uintptr_t lo, std::uintptr_t hi) {
  for (std::uintptr_t a = (lo + 7) & ~std::uintptr_t{7}; a + 8 <= hi; a += 8)
    __lsan_ignore_object(*reinterpret_cast<const void* const*>(a));
}
#endif

// Leaves `from` for `to`. `last` marks a fiber's final switch: it never
// runs again, so ASan can drop its fake stack.
template <class Switch>
void switch_context(FiberContext<Switch>& from, FiberContext<Switch>& to,
                    [[maybe_unused]] bool last = false) {
  void* fake_stack = nullptr;
#if defined(FPQ_FIBER_ASAN)
  from.parked_low = reinterpret_cast<std::uintptr_t>(&fake_stack) - kSwitchFrameBytes;
  __sanitizer_start_switch_fiber(last ? nullptr : &fake_stack, to.stack_bottom, to.stack_size);
#endif
#if defined(FPQ_FIBER_TSAN)
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  Switch::swap(from.regs, to.regs);
  arrive(fake_stack);
}

} // namespace

template <class Switch>
BasicFiber<Switch>::~BasicFiber() {
#if defined(FPQ_FIBER_TSAN)
  if (ctx_.tsan_fiber != nullptr) __tsan_destroy_fiber(ctx_.tsan_fiber);
#endif
  if (stack_ != nullptr) give_back_stack(stack_, stack_bytes_);
}

template <class Switch>
void BasicFiber<Switch>::start(std::function<void()> fn, std::size_t stack_bytes) {
  FPQ_ASSERT_MSG(!started_, "Fiber::start called twice");
  fn_ = std::move(fn);
  stack_bytes_ = stack_bytes;
  stack_ = take_stack(stack_bytes_);
  ctx_.regs.prepare(stack_, stack_bytes_, &BasicFiber::entry, this);
  ctx_.stack_bottom = stack_;
  ctx_.stack_size = stack_bytes_;
#if defined(FPQ_FIBER_TSAN)
  ctx_.tsan_fiber = __tsan_create_fiber(0);
#endif
  started_ = true;
}

template <class Switch>
void BasicFiber<Switch>::entry(void* self) {
  arrive(nullptr);
  static_cast<BasicFiber*>(self)->body();
}

template <class Switch>
void BasicFiber<Switch>::body() {
  try {
    fn_();
  } catch (...) {
    error_ = std::current_exception();
  }
  done_ = true;
  switch_context(ctx_, *sched_, /*last=*/true);
  FPQ_ASSERT_MSG(false, "finished fiber resumed");
}

template <class Switch>
void BasicFiber<Switch>::switch_in(Context& sched) {
  FPQ_ASSERT_MSG(started_ && !done_, "switching into an unstarted or finished fiber");
  sched_ = &sched;
#if defined(FPQ_FIBER_ASAN)
  t_learning = &sched;
#endif
#if defined(FPQ_FIBER_TSAN)
  sched.tsan_fiber = __tsan_get_current_fiber();
#endif
  switch_context(sched, ctx_);
}

template <class Switch>
void BasicFiber<Switch>::yield_out() {
  FPQ_ASSERT(sched_ != nullptr);
  switch_context(ctx_, *sched_);
}

template <class Switch>
void BasicFiber<Switch>::hand_off(BasicFiber& next) {
  FPQ_ASSERT_MSG(next.started_ && !next.done_, "handing off to an unstarted or finished fiber");
  next.sched_ = sched_;
  switch_context(ctx_, next.ctx_);
}

template <class Switch>
void BasicFiber<Switch>::abandon() {
  if (!started_ || done_) return;
#if defined(FPQ_FIBER_ASAN)
  // LSan scans no fiber stack, and this one is recycled: name what its
  // frames and its saved context hold while they still hold it.
  const auto stack = reinterpret_cast<std::uintptr_t>(stack_);
  keep_referents(std::max(ctx_.parked_low, stack), stack + stack_bytes_);
  keep_referents(reinterpret_cast<std::uintptr_t>(&ctx_),
                 reinterpret_cast<std::uintptr_t>(&ctx_ + 1));
#endif
}

#if defined(__x86_64__)
template class BasicFiber<AsmSwitch>;
#endif
template class BasicFiber<UcontextSwitch>;

} // namespace fpq::sim

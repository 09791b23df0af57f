// Tests of the fiber switch (sim/fiber.hpp), run against every backend the
// host can build: the x86-64 register-save switch and the ucontext one,
// each named directly, so the portable fallback is tested here too.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#include "common/types.hpp"
#include "sim/fiber.hpp"

#if defined(__x86_64__)
// Loads rbx, rbp and r12-r15 with seed, seed+1, ..., seed+5, calls fn(arg),
// and returns 1 when all six still hold those values afterwards.
extern "C" int fpq_test_call_keeps_callee_saved(void (*fn)(void*), void* arg,
                                                fpq::u64 seed);
asm(R"(
  .text
  .p2align 4
  .globl fpq_test_call_keeps_callee_saved
  .hidden fpq_test_call_keeps_callee_saved
  .type fpq_test_call_keeps_callee_saved, @function
fpq_test_call_keeps_callee_saved:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  pushq %rdx
  movq %rdx, %rbx
  leaq 1(%rdx), %rbp
  leaq 2(%rdx), %r12
  leaq 3(%rdx), %r13
  leaq 4(%rdx), %r14
  leaq 5(%rdx), %r15
  movq %rdi, %rax
  movq %rsi, %rdi
  callq *%rax
  movq (%rsp), %rdx
  xorl %eax, %eax
  cmpq %rdx, %rbx
  jne 1f
  leaq 1(%rdx), %rcx
  cmpq %rcx, %rbp
  jne 1f
  leaq 2(%rdx), %rcx
  cmpq %rcx, %r12
  jne 1f
  leaq 3(%rdx), %rcx
  cmpq %rcx, %r13
  jne 1f
  leaq 4(%rdx), %rcx
  cmpq %rcx, %r14
  jne 1f
  leaq 5(%rdx), %rcx
  cmpq %rcx, %r15
  jne 1f
  movl $1, %eax
1:
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size fpq_test_call_keeps_callee_saved, .-fpq_test_call_keeps_callee_saved
)");
#endif

namespace fpq {
namespace {

template <class F>
class FiberSwitch : public ::testing::Test {};

#if defined(__x86_64__)
using Backends = ::testing::Types<sim::BasicFiber<sim::AsmSwitch>,
                                  sim::BasicFiber<sim::UcontextSwitch>>;
#else
using Backends = ::testing::Types<sim::BasicFiber<sim::UcontextSwitch>>;
#endif
TYPED_TEST_SUITE(FiberSwitch, Backends);

constexpr std::size_t kStack = 64 * 1024;

// A ring of fibers driven by one scheduler. A fiber switches away either
// back to the scheduler or, on every other switch, straight to the next
// unfinished fiber of the ring, so both paths and first entries through a
// hand-off all occur.
template <class F>
struct Ring {
  typename F::Context sched;
  std::vector<F> fibers;
  u64 switches = 0;

  explicit Ring(u32 n) : fibers(n) {}

  void switch_away(u32 self) {
    ++switches;
    if (switches % 2 == 0) {
      for (u32 d = 1; d < fibers.size(); ++d) {
        F& next = fibers[(self + d) % fibers.size()];
        if (!next.done()) {
          fibers[self].hand_off(next);
          return;
        }
      }
    }
    fibers[self].yield_out();
  }

  /// Switches into unfinished fibers until all are done.
  void drive() {
    for (bool any = true; any;) {
      any = false;
      for (F& f : fibers) {
        if (f.done()) continue;
        any = true;
        f.switch_in(sched);
      }
    }
  }
};

TYPED_TEST(FiberSwitch, InterleavedFibersAllRunToCompletion) {
  Ring<TypeParam> ring(5);
  std::vector<u32> steps(5, 0);
  for (u32 i = 0; i < 5; ++i) {
    ring.fibers[i].start(
        [&ring, &steps, i] {
          for (u32 k = 0; k < 1000 + 100 * i; ++k) {
            ++steps[i];
            ring.switch_away(i);
          }
        },
        kStack);
  }
  ring.drive();
  for (u32 i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.fibers[i].done());
    EXPECT_FALSE(ring.fibers[i].error());
    EXPECT_EQ(steps[i], 1000u + 100 * i);
  }
}

TYPED_TEST(FiberSwitch, ExceptionInBodyIsCapturedForTheScheduler) {
  Ring<TypeParam> ring(3);
  for (u32 i = 0; i < 3; ++i) {
    ring.fibers[i].start(
        [&ring, i] {
          for (u32 k = 0; k < 50; ++k) {
            if (i == 1 && k == 17) throw std::runtime_error("boom");
            ring.switch_away(i);
          }
        },
        kStack);
  }
  ring.drive();
  EXPECT_FALSE(ring.fibers[0].error());
  EXPECT_FALSE(ring.fibers[2].error());
  ASSERT_TRUE(ring.fibers[1].error());
  EXPECT_THROW(std::rethrow_exception(ring.fibers[1].error()), std::runtime_error);
}

#if defined(__x86_64__)
template <class F>
struct RegisterCheck {
  Ring<F>* ring;
  u32 self;
};

template <class F>
void switch_away_from(void* arg) {
  auto* c = static_cast<RegisterCheck<F>*>(arg);
  c->ring->switch_away(c->self);
}

TYPED_TEST(FiberSwitch, CalleeSavedRegistersSurviveManySwitches) {
  constexpr u32 kFibers = 4, kRounds = 500;
  Ring<TypeParam> ring(kFibers);
  std::vector<RegisterCheck<TypeParam>> checks(kFibers);
  std::vector<u32> intact(kFibers, 0);
  for (u32 i = 0; i < kFibers; ++i) {
    checks[i] = {&ring, i};
    ring.fibers[i].start(
        [&checks, &intact, i] {
          for (u32 k = 0; k < kRounds; ++k) {
            const u64 seed = (u64{i + 1} << 40) + 16 * k;
            intact[i] += static_cast<u32>(fpq_test_call_keeps_callee_saved(
                &switch_away_from<TypeParam>, &checks[i], seed));
          }
        },
        kStack);
  }
  ring.drive();
  for (u32 i = 0; i < kFibers; ++i) EXPECT_EQ(intact[i], kRounds) << "fiber " << i;
}

u16 x87_control_word() {
  u16 cw = 0;
  asm volatile("fnstcw %0" : "=m"(cw));
  return cw;
}

void set_x87_control_word(u16 cw) { asm volatile("fldcw %0" : : "m"(cw)); }

TYPED_TEST(FiberSwitch, FloatingPointControlWordsSurviveManySwitches) {
  constexpr u32 kFibers = 4, kRounds = 500;
  const u32 mxcsr0 = _mm_getcsr();
  const u16 cw0 = x87_control_word();
  // The scheduler runs with a mode of its own: round toward zero in both
  // units. Each fiber starts with it, then sets rounding mode i in both and
  // keeps them across every switch.
  const u32 sched_mxcsr = (mxcsr0 & ~0x6000u) | 0x6000u;
  const u16 sched_cw = static_cast<u16>((cw0 & ~0x0c00u) | 0x0c00u);
  _mm_setcsr(sched_mxcsr);
  set_x87_control_word(sched_cw);

  Ring<TypeParam> ring(kFibers);
  std::vector<u32> inherited(kFibers, 0), intact(kFibers, 0);
  for (u32 i = 0; i < kFibers; ++i) {
    ring.fibers[i].start(
        [&, i] {
          inherited[i] = _mm_getcsr() == sched_mxcsr && x87_control_word() == sched_cw;
          const u32 mine_mxcsr = (sched_mxcsr & ~0x6000u) | (i << 13);
          const u16 mine_cw = static_cast<u16>((cw0 & ~0x0c00u) | (i << 10));
          _mm_setcsr(mine_mxcsr);
          set_x87_control_word(mine_cw);
          for (u32 k = 0; k < kRounds; ++k) {
            ring.switch_away(i);
            intact[i] += _mm_getcsr() == mine_mxcsr && x87_control_word() == mine_cw;
          }
        },
        kStack);
  }
  ring.drive();
  const u32 after_mxcsr = _mm_getcsr();
  const u16 after_cw = x87_control_word();
  _mm_setcsr(mxcsr0);
  set_x87_control_word(cw0);

  EXPECT_EQ(after_mxcsr, sched_mxcsr);
  EXPECT_EQ(after_cw, sched_cw);
  for (u32 i = 0; i < kFibers; ++i) {
    EXPECT_EQ(inherited[i], 1u) << "fiber " << i;
    EXPECT_EQ(intact[i], kRounds) << "fiber " << i;
  }
}
#endif

} // namespace
} // namespace fpq

#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <map>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

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

Fiber::~Fiber() {
  if (stack_ != nullptr) give_back_stack(stack_, stack_bytes_);
}

void Fiber::start(std::function<void()> fn, std::size_t stack_bytes) {
  FPQ_ASSERT_MSG(!started_, "Fiber::start called twice");
  fn_ = std::move(fn);
  stack_bytes_ = stack_bytes;
  stack_ = take_stack(stack_bytes_);
  FPQ_ASSERT(getcontext(&ctx_) == 0);
  ctx_.uc_stack.ss_sp = stack_;
  ctx_.uc_stack.ss_size = stack_bytes_;
  ctx_.uc_link = nullptr; // fibers never fall off the end; body() yields out
  // makecontext only passes ints; smuggle `this` through two 32-bit halves.
  auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
  started_ = true;
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto self = reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                       static_cast<std::uintptr_t>(lo));
  self->body();
}

void Fiber::body() {
  try {
    fn_();
  } catch (...) {
    error_ = std::current_exception();
  }
  done_ = true;
  yield_out();
  FPQ_ASSERT_MSG(false, "finished fiber resumed");
}

void Fiber::switch_in(ucontext_t* from) {
  FPQ_ASSERT_MSG(started_ && !done_, "switching into an unstarted or finished fiber");
  return_ctx_ = from;
  FPQ_ASSERT(swapcontext(from, &ctx_) == 0);
}

void Fiber::yield_out() {
  FPQ_ASSERT(return_ctx_ != nullptr);
  FPQ_ASSERT(swapcontext(&ctx_, return_ctx_) == 0);
}

} // namespace fpq::sim

// Fiber stack allocation with guard pages.
//
// Each stack carries a PROT_NONE guard page at its low end so overflow
// faults immediately instead of corrupting a neighbouring fiber.  Stacks
// are recycled by the scheduler with their thread descriptors
// (scheduler::recycle), so this layer only maps and unmaps.
#pragma once

#include <cstddef>

namespace px::threads {

struct stack {
  void* base = nullptr;    // mmap base (guard page)
  std::size_t size = 0;    // total mapping including guard
  void* top = nullptr;     // high end; context::make builds downward from here

  bool valid() const noexcept { return base != nullptr; }
};

class stack_pool {
 public:
  // usable_bytes is rounded up to whole pages; the guard page is extra.
  explicit stack_pool(std::size_t usable_bytes = 64 * 1024);

  stack allocate();
  void deallocate(stack s);

  std::size_t usable_bytes() const noexcept { return usable_bytes_; }

 private:
  std::size_t usable_bytes_;
  std::size_t page_size_;
};

}  // namespace px::threads

#include "threads/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include "util/assert.hpp"

namespace px::threads {

stack_pool::stack_pool(std::size_t usable_bytes)
    : page_size_(static_cast<std::size_t>(::sysconf(_SC_PAGESIZE))) {
  usable_bytes_ = ((usable_bytes + page_size_ - 1) / page_size_) * page_size_;
  PX_ASSERT(usable_bytes_ >= page_size_);
}

stack stack_pool::allocate() {
  const std::size_t total = usable_bytes_ + page_size_;
  void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  PX_ASSERT_MSG(base != MAP_FAILED, "stack mmap failed");
  PX_ASSERT(::mprotect(base, page_size_, PROT_NONE) == 0);
  stack s;
  s.base = base;
  s.size = total;
  s.top = static_cast<char*>(base) + total;
  return s;
}

void stack_pool::deallocate(stack s) { ::munmap(s.base, s.size); }

}  // namespace px::threads

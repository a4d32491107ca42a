#include "parcel/action_registry.hpp"

#include <mutex>

#include "util/assert.hpp"

namespace px::parcel {

action_registry& action_registry::global() {
  static action_registry instance;
  return instance;
}

action_registry::action_registry()
    : entries_(std::make_unique<entry[]>(max_actions)) {}

action_id action_registry::register_action(std::string name,
                                           view_handler fn, bool spawns) {
  PX_ASSERT(!name.empty());
  PX_ASSERT(fn != nullptr);
  std::lock_guard lock(lock_);
  const std::uint32_t n = count_.load(std::memory_order_relaxed);
  PX_ASSERT_MSG(n < max_actions, "action registry full");
  for (std::uint32_t i = 0; i < n; ++i) {
    PX_ASSERT_MSG(entries_[i].name != name, "action name registered twice");
  }
  entries_[n].name = std::move(name);
  entries_[n].fn = fn;
  entries_[n].spawns = spawns;
  // Publish: dispatchers index only below count_, so the release store
  // makes the fully-written slot visible without them taking the lock.
  count_.store(n + 1, std::memory_order_release);
  return static_cast<action_id>(n + 1);  // ids start at 1
}

const action_registry::entry& action_registry::at(action_id id) const {
  const std::uint32_t n = count_.load(std::memory_order_acquire);
  PX_ASSERT_MSG(id != invalid_action && id <= n,
                "dispatch of unregistered action");
  return entries_[id - 1];
}

void action_registry::dispatch(void* ctx, const parcel_view& pv) const {
  at(pv.action()).fn(ctx, pv);
}

std::optional<action_id> action_registry::find(std::string_view name) const {
  std::lock_guard lock(lock_);
  const std::uint32_t n = count_.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (entries_[i].name == name) return static_cast<action_id>(i + 1);
  }
  return std::nullopt;
}

const std::string& action_registry::name_of(action_id id) const {
  std::lock_guard lock(lock_);
  PX_ASSERT(id != invalid_action &&
            id <= count_.load(std::memory_order_relaxed));
  return entries_[id - 1].name;
}

std::size_t action_registry::size() const {
  return count_.load(std::memory_order_acquire);
}

}  // namespace px::parcel

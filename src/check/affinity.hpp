// Node-affinity tracking and the NodeAffinityGuard capability.
//
// Level-2 counterpart of the capability annotations: the executors publish
// "node N's stream is running on this OS thread right now" into a
// thread-local (SimMachine around each handler/step/idle dispatch,
// MnMachine around each node quantum, Runtime around bootstrap calls),
// and every guarded per-node structure asserts on entry that the current
// stream matches its owner. Code running outside any node stream (the
// bootstrap thread before run(), Runtime::report() after quiescence, unit
// tests poking kernels directly) reads kInvalidNode and passes: only a
// *wrong* node context is a violation — exactly the cross-node touch that
// breaks the single-writer discipline.
//
// All of it compiles to nothing when HAL_CHECK is off; the capability
// attribute (and the empty assert_here) still informs clang's static
// analysis in every build.
#pragma once

#include "check/capability.hpp"
#include "check/check.hpp"
#include "common/types.hpp"

namespace hal::check {

#if HAL_CHECK

namespace detail {
/// The node whose execution stream the current OS thread is running, or
/// kInvalidNode outside any stream. One variable per thread: SimMachine
/// interleaves all nodes on one thread (set per dispatch); MnMachine runs
/// one node at a time per worker (set per quantum).
inline thread_local NodeId t_current_node = kInvalidNode;
}  // namespace detail

inline NodeId current_node() noexcept { return detail::t_current_node; }

/// RAII: marks the current thread as running `node`'s execution stream.
/// Restores the previous value so bootstrap wrappers can nest inside an
/// already-running stream (e.g. tests injecting from a method body).
class ScopedExecutionNode {
 public:
  explicit ScopedExecutionNode(NodeId node) noexcept
      : prev_(detail::t_current_node) {
    detail::t_current_node = node;
  }
  ~ScopedExecutionNode() { detail::t_current_node = prev_; }
  ScopedExecutionNode(const ScopedExecutionNode&) = delete;
  ScopedExecutionNode& operator=(const ScopedExecutionNode&) = delete;

 private:
  NodeId prev_;
};

/// The capability object per-node structures embed. `bind()` names the
/// owner (called once from the owning kernel's constructor); assert_here()
/// is the per-entry runtime check and, for clang, the static capability
/// assertion. Unbound guards (structures used standalone in unit tests)
/// check nothing.
class HAL_CAPABILITY("node") NodeAffinityGuard {
 public:
  void bind(NodeId owner, const char* component) noexcept {
    owner_ = owner;
    component_ = component;
  }

  NodeId owner() const noexcept { return owner_; }

  void assert_here() const HAL_ASSERT_CAPABILITY(this) {
    if (owner_ == kInvalidNode) return;  // unbound: standalone structure
    const NodeId here = current_node();
    if (here == kInvalidNode || here == owner_) return;
    fail(Violation{ViolationKind::kNodeAffinity, component_, owner_, here, 0,
                   0});
  }

 private:
  NodeId owner_ = kInvalidNode;
  const char* component_ = "";
};

#else  // !HAL_CHECK — empty shells; clang still sees the capability type.

inline NodeId current_node() noexcept { return kInvalidNode; }

class ScopedExecutionNode {
 public:
  explicit ScopedExecutionNode(NodeId) noexcept {}
  ScopedExecutionNode(const ScopedExecutionNode&) = delete;
  ScopedExecutionNode& operator=(const ScopedExecutionNode&) = delete;
};

class HAL_CAPABILITY("node") NodeAffinityGuard {
 public:
  void bind(NodeId, const char*) noexcept {}
  NodeId owner() const noexcept { return kInvalidNode; }
  void assert_here() const HAL_ASSERT_CAPABILITY(this) {}
};

#endif  // HAL_CHECK

}  // namespace hal::check

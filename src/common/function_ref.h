// A non-owning reference to a callable, for callbacks that are only called
// during the call they are passed to (the refresh path's "is this unit
// ready" and "refresh this row" hooks). Unlike std::function it never
// allocates or copies the callable: it holds the callable's address and
// one call thunk, so the callable must outlive the reference.
#pragma once

#include <type_traits>
#include <utility>

namespace wompcm {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)  // NOLINT: implicit, as a std::function parameter is
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace wompcm

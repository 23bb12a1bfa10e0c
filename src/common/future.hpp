/// \file future.hpp
/// \brief Minimal vendored future/promise pair for asynchronous RPC.
///
/// std::future is the wrong tool here: std::async spawns threads we do
/// not control, shared_future copies values, and neither offers a
/// completion hook — which the RPC layer needs to decode a response
/// frame the moment the transport's reader thread matches it. This pair
/// is the small subset the codebase actually uses:
///
///  * Promise<T>::set_value / set_exception, single-shot;
///  * Future<T>::get() (blocking, move-out, rethrow), wait(), ready();
///  * Future<T>::on_ready(fn) — run fn on the completing thread (or
///    inline when already complete); used only for lightweight work
///    such as decoding a frame or notifying a window;
///  * map_future<T>(src, fn) — the decode adapter client stubs use to
///    turn Future<Buffer> into Future<ChunkSlice> etc.;
///  * fulfil(promise, fn) — run fn and hand its result or exception over.
///
/// An exception crosses threads with one owner at a time: fulfil
/// publishes it only after its catch block has ended, and get() moves it
/// out of the state it rethrows from. The producer thus holds no
/// reference once a consumer can see it, so the exception dies on the
/// thread that read it. (Its reference count lives in the C++ runtime,
/// out of a thread sanitizer's sight; a destructor on the producer would
/// look like a race with the consumer's reads.)
///
/// A Promise abandoned before fulfilment fails its Future with
/// RpcError("broken promise") instead of blocking a waiter forever —
/// exactly the surface a dying transport connection must present.

#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace blobseer {

namespace detail {

/// Internal stand-in value so Future<void> shares the generic state.
struct Unit {};

template <typename T>
using future_storage_t = std::conditional_t<std::is_void_v<T>, Unit, T>;

template <typename S>
class FutureState {
  public:
    void set_value(S value) {
        std::vector<std::function<void()>> callbacks;
        {
            const std::scoped_lock lock(mu_);
            if (ready_) {
                throw Error("promise already satisfied");
            }
            value_.emplace(std::move(value));
            ready_ = true;
            callbacks.swap(callbacks_);
        }
        cv_.notify_all();
        for (auto& fn : callbacks) {
            fn();
        }
    }

    void set_exception(std::exception_ptr e) {
        std::vector<std::function<void()>> callbacks;
        {
            const std::scoped_lock lock(mu_);
            if (ready_) {
                throw Error("promise already satisfied");
            }
            error_ = std::move(e);
            ready_ = true;
            callbacks.swap(callbacks_);
        }
        cv_.notify_all();
        for (auto& fn : callbacks) {
            fn();
        }
    }

    /// Abandonment path (promise destroyed unfulfilled): never throws.
    void abandon() noexcept {
        try {
            set_exception(std::make_exception_ptr(
                RpcError("broken promise: asynchronous operation "
                         "abandoned before completion")));
        } catch (const Error&) {
            // Already satisfied — nothing to do.
        }
    }

    [[nodiscard]] S get() {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [this] { return ready_; });
        if (error_ != nullptr) {
            std::rethrow_exception(std::exchange(error_, nullptr));
        }
        if (!value_.has_value()) {
            throw Error("future value already consumed");
        }
        S out = std::move(*value_);
        value_.reset();
        return out;
    }

    void wait() const {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [this] { return ready_; });
    }

    [[nodiscard]] bool ready() const {
        const std::scoped_lock lock(mu_);
        return ready_;
    }

    void on_ready(std::function<void()> fn) {
        {
            const std::scoped_lock lock(mu_);
            if (!ready_) {
                callbacks_.push_back(std::move(fn));
                return;
            }
        }
        fn();  // already complete: run inline on the caller
    }

  private:
    mutable std::mutex mu_;  // guards everything below
    mutable std::condition_variable cv_;
    bool ready_ = false;
    std::optional<S> value_;
    std::exception_ptr error_;
    std::vector<std::function<void()>> callbacks_;
};

}  // namespace detail

template <typename T>
class Promise;

/// Shared-ownership handle on an eventual T (or exception). Copies view
/// the same state; the result itself is single-consumer — get() moves
/// the value or exception out and a second get() throws.
template <typename T>
class Future {
    using S = detail::future_storage_t<T>;

  public:
    Future() = default;

    /// True when this handle is bound to an operation at all.
    [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

    /// True once a value or exception is set (get() will not block).
    [[nodiscard]] bool ready() const { return state_->ready(); }

    /// Block until complete without consuming the result.
    void wait() const { state_->wait(); }

    /// Block until complete; return the value or rethrow the exception.
    T get() {
        if constexpr (std::is_void_v<T>) {
            (void)state_->get();
        } else {
            return state_->get();
        }
    }

    /// Run \p fn when the future completes — on the completing thread,
    /// or inline right now if it already did. \p fn must be lightweight
    /// and must not block: transports complete futures from their
    /// reader threads.
    void on_ready(std::function<void()> fn) {
        state_->on_ready(std::move(fn));
    }

  private:
    friend class Promise<T>;
    explicit Future(std::shared_ptr<detail::FutureState<S>> state)
        : state_(std::move(state)) {}

    std::shared_ptr<detail::FutureState<S>> state_;
};

/// Single-shot producer side. Move-only; destroying an unfulfilled
/// promise fails its future with RpcError ("broken promise").
template <typename T>
class Promise {
    using S = detail::future_storage_t<T>;

  public:
    Promise() : state_(std::make_shared<detail::FutureState<S>>()) {}

    Promise(Promise&& other) noexcept = default;
    Promise& operator=(Promise&& other) noexcept {
        if (this != &other) {
            if (state_ != nullptr) {
                state_->abandon();
            }
            state_ = std::move(other.state_);
        }
        return *this;
    }

    Promise(const Promise&) = delete;
    Promise& operator=(const Promise&) = delete;

    ~Promise() {
        if (state_ != nullptr) {
            state_->abandon();
        }
    }

    [[nodiscard]] Future<T> future() { return Future<T>(state_); }

    template <typename U = T>
        requires(!std::is_void_v<U>)
    void set_value(U value) {
        state_->set_value(std::move(value));
        state_.reset();
    }

    void set_value()
        requires std::is_void_v<T>
    {
        state_->set_value(detail::Unit{});
        state_.reset();
    }

    void set_exception(std::exception_ptr e) {
        state_->set_exception(std::move(e));
        state_.reset();
    }

  private:
    std::shared_ptr<detail::FutureState<S>> state_;
};

/// Fulfil \p promise with \p fn's result, or with the exception it
/// throws. The exception is published after its catch block has ended,
/// so this thread keeps no reference to it (see the file comment).
template <typename T, typename F>
void fulfil(Promise<T>& promise, F&& fn) {
    std::exception_ptr error;
    try {
        if constexpr (std::is_void_v<T>) {
            fn();
            promise.set_value();
        } else {
            promise.set_value(fn());
        }
        return;
    } catch (...) {
        error = std::current_exception();
    }
    promise.set_exception(std::move(error));
}

/// Adapter: a Future<T> fulfilled by running \p fn on \p src's value the
/// moment \p src completes (on the completing thread). An exception from
/// \p fn — or from \p src itself — becomes the result's exception. This
/// is how client stubs decode response frames without blocking a thread
/// per call.
template <typename T, typename U, typename F>
[[nodiscard]] Future<T> map_future(Future<U> src, F fn) {
    auto promise = std::make_shared<Promise<T>>();
    Future<T> out = promise->future();
    Future<U> watched = src;  // keep a handle the callback can consume
    src.on_ready([watched, promise, fn = std::move(fn)]() mutable {
        fulfil(*promise, [&] { return fn(watched.get()); });
    });
    return out;
}

}  // namespace blobseer

/// \file trace.hpp
/// \brief Dapper-style distributed tracing primitives (DESIGN.md §13).
///
/// A trace follows one top-level client operation (a blob write, a read,
/// a clone) across every RPC it fans out into. The context — trace id,
/// parent span id, sampled flag — rides in the v7 frame header
/// (protocol.hpp), so it crosses process boundaries with zero extra
/// messages. Inside a process it lives in a thread-local slot:
/// ServiceClient stamps it into outgoing frames on the calling thread,
/// and the Dispatcher installs the incoming frame's context around each
/// handler so nested RPCs inherit it.
///
/// Span model (shared-span-id, as in Dapper): the client mints a fresh
/// span id per outgoing RPC and records a kClient span for it; the
/// server handling that RPC records a kServer span under the SAME span
/// id, with the queue wait and handle time only it can know. A span-tree
/// viewer merges the two halves by span id and hangs children off
/// parent_span.
///
/// Completed spans land in a bounded lock-free ring (TraceBuffer) when
/// the trace is sampled or the span was slow; kTraceDump drains the ring
/// remotely. The ring is seqlock-per-slot over atomic words (release
/// stores, acquire loads, no fences) — writers never block, readers
/// discard slots that changed underneath them — so it is safe (and
/// TSan-clean) on the RPC hot path.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace blobseer::trace {

/// Wire-carried trace context. trace_id == 0 means "not traced": spans
/// are neither minted nor recorded, which keeps the untraced hot path at
/// a thread-local read and a branch.
struct TraceContext {
    std::uint64_t trace_id = 0;
    std::uint32_t span_id = 0;  ///< span of the current operation
    std::uint8_t flags = 0;     ///< bit 0: sampled (record even if fast)

    static constexpr std::uint8_t kSampled = 0x01;

    [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
    [[nodiscard]] bool sampled() const noexcept {
        return (flags & kSampled) != 0;
    }

    bool operator==(const TraceContext&) const = default;
};

/// One completed span. Trivially copyable, exactly 10 machine words —
/// the TraceBuffer stores it wordwise through relaxed atomics.
struct SpanRecord {
    std::uint64_t trace_id = 0;
    std::uint32_t span_id = 0;
    std::uint32_t parent_span = 0;  ///< 0 for root spans
    std::uint64_t start_unix_us = 0;  ///< wall clock, for cross-host merge
    std::uint64_t queue_us = 0;     ///< dispatch-queue wait (server spans)
    std::uint64_t duration_us = 0;  ///< handle / round-trip time
    std::uint64_t bytes = 0;        ///< payload bytes moved, if known
    std::uint32_t node = 0;         ///< NodeId that recorded the span
    std::uint8_t kind = 0;          ///< 0 = client half, 1 = server half
    std::uint8_t status = 0;        ///< rpc Status (0 = Ok)
    char op[22] = {};               ///< op name, NUL-padded

    static constexpr std::uint8_t kClient = 0;
    static constexpr std::uint8_t kServer = 1;

    void set_op(std::string_view name) noexcept {
        const std::size_t n = std::min(name.size(), sizeof(op) - 1);
        std::memcpy(op, name.data(), n);
        std::memset(op + n, 0, sizeof(op) - n);
    }

    [[nodiscard]] std::string_view op_name() const noexcept {
        return {op, ::strnlen(op, sizeof(op))};
    }
};

static_assert(sizeof(SpanRecord) == 80, "ring stores spans as 10 words");
static_assert(std::is_trivially_copyable_v<SpanRecord>);

/// The calling thread's trace context (zero when not tracing).
[[nodiscard]] TraceContext current() noexcept;

/// Overwrite the calling thread's context (prefer TraceScope).
void set_current(const TraceContext& ctx) noexcept;

/// Fresh non-zero ids (process-unique, collision odds negligible).
[[nodiscard]] std::uint64_t new_trace_id() noexcept;
[[nodiscard]] std::uint32_t new_span_id() noexcept;

/// Wall-clock microseconds since the Unix epoch (span timestamps must be
/// comparable across hosts, so the steady clock is the wrong tool).
[[nodiscard]] std::uint64_t now_unix_us() noexcept;

/// RAII: install \p ctx on this thread, restore the previous context on
/// scope exit. Handlers and client ops wrap themselves in one so every
/// nested RPC issued from the scope inherits the trace.
class TraceScope {
  public:
    explicit TraceScope(const TraceContext& ctx) noexcept
        : saved_(current()) {
        set_current(ctx);
    }
    ~TraceScope() { set_current(saved_); }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

  private:
    TraceContext saved_;
};

/// Bounded lock-free ring of completed spans. Fixed capacity, newest
/// wins: a full ring overwrites the oldest slot. Writers are wait-free
/// apart from one CAS (a lost race drops the span — under contention
/// losing a span beats stalling an RPC thread); readers validate each
/// slot with its sequence word and skip torn ones.
class TraceBuffer {
  public:
    static constexpr std::size_t kDefaultCapacity = 4096;

    /// Spans of unsampled traces are still recorded when at least this
    /// slow — the tail is exactly what retrospective debugging needs.
    static constexpr std::uint64_t kSlowUs = 50'000;

    explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

    /// True if a span with these properties belongs in the ring.
    [[nodiscard]] static bool should_record(
        bool sampled, std::uint64_t duration_us) noexcept {
        return sampled || duration_us >= kSlowUs;
    }

    /// Store \p rec (may silently drop under writer contention).
    void record(const SpanRecord& rec) noexcept;

    /// Copy out up to \p max stored spans; trace_id == 0 matches all.
    [[nodiscard]] std::vector<SpanRecord> snapshot(
        std::uint64_t trace_id = 0,
        std::size_t max = kDefaultCapacity) const;

    [[nodiscard]] std::uint64_t recorded() const noexcept {
        return recorded_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t dropped() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::size_t capacity() const noexcept {
        return slots_.size();
    }

  private:
    static constexpr std::size_t kWords = sizeof(SpanRecord) / 8;

    /// Seqlock per slot: seq even = stable, odd = being written. The
    /// payload words are relaxed atomics so concurrent read/write is
    /// defined behavior; the seq acquire/release pair orders them.
    struct Slot {
        std::atomic<std::uint64_t> seq{0};
        std::array<std::atomic<std::uint64_t>, kWords> words{};
    };

    std::vector<Slot> slots_;
    std::atomic<std::uint64_t> head_{0};
    std::atomic<std::uint64_t> recorded_{0};
    std::atomic<std::uint64_t> dropped_{0};
};

/// The process-wide span ring every dispatcher and client records into
/// (one per process mirrors the one-registry-per-process model; spans
/// carry the node id so multi-node-in-process tests still disentangle).
[[nodiscard]] TraceBuffer& buffer();

}  // namespace blobseer::trace

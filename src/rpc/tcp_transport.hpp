/// \file tcp_transport.hpp
/// \brief POSIX-socket Transport multiplexing many in-flight requests
///        over one connection per peer, plus the epoll reactor server
///        that answers it.
///
/// Framing on the socket is the frame itself — the 40-byte header
/// carries the payload length, so a receiver reads the header, validates
/// it, then reads exactly the payload. One connection per peer endpoint
/// carries any number of in-flight requests (protocol v3): the sender
/// stamps each request with a per-connection unique correlation id and
/// the transport's event loop matches responses — which arrive in
/// whatever order the server finishes them — back to their futures by
/// that id. A connection that dies (reset, EOF, desync) fails *every*
/// future still in flight on it with RpcError; the next call opens a
/// fresh connection.
///
/// Both sides are event-driven (DESIGN.md §15): the client runs one
/// epoll loop per transport instead of one reader thread per peer, and
/// the server runs a fixed Reactor of N loops with nonblocking sockets
/// instead of one thread per connection — 1k+ concurrent connections
/// cost fds, not stacks. Each decoded request runs where
/// Dispatcher::dispatch_class() puts it: short handlers (bounded
/// in-memory work plus page-cache appends; no fsync, no sleep, no
/// nested RPC) run to completion on the loop thread that read them;
/// everything that may be slow goes to the shared worker ThreadPool, and
/// wait_published to a dedicated thread, so a slow handler never blocks
/// a loop. Responses are scatter-gather (sealed head + borrowed
/// payload tail) written with one writev; when the kernel send buffer
/// fills, the remainder parks in a per-connection frame queue and
/// EPOLLOUT drains it (backpressure without a blocked thread). stop()
/// (or destruction) shuts down the listener and every live connection,
/// stops the loops, drains the worker pool and joins all threads.
///
/// The same port answers a Prometheus scrape (DESIGN.md §13): a
/// connection whose first bytes are "GET " (never a frame's, which all
/// open with the BSRP magic) has its request head read on the loop, up
/// to 4 KiB; the pool renders the registry for `GET /metrics` (404 for
/// any other path), the reply leaves through the connection's frame
/// queue, and the connection closes once it has drained.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/buffer.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "net/event_loop.hpp"
#include "rpc/transport.hpp"

namespace blobseer::rpc {

class Dispatcher;
struct RpcResponse;

/// TCP address of one logical node (or of a whole daemon).
struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
};

class TcpTransport final : public Transport {
  public:
    /// Every logical node reachable at one address — the all-in-one
    /// blobseer_serverd deployment.
    TcpTransport(std::string host, std::uint16_t port);

    /// Per-node address map for multi-process deployments.
    explicit TcpTransport(std::unordered_map<NodeId, Endpoint> peers);

    ~TcpTransport() override;

    /// Map (or remap) one node to its own address. External providers
    /// announce at runtime, so this is safe alongside in-flight calls;
    /// nodes without a mapping keep using the default endpoint.
    void add_peer(NodeId node, Endpoint endpoint);

    TcpTransport(const TcpTransport&) = delete;
    TcpTransport& operator=(const TcpTransport&) = delete;

    [[nodiscard]] Future<Buffer> call_async(NodeId dst,
                                            ConstBytes frame) override;

  private:
    /// One multiplexed connection: nonblocking socket, loop-registered
    /// read state, and the correlation-id -> promise table of requests
    /// awaiting responses.
    struct MuxConn;

    [[nodiscard]] Endpoint endpoint_of(NodeId dst) const;

    /// Healthy connection to \p dst's endpoint — reuses the live one,
    /// probes an idle one for staleness, reconnects when needed.
    [[nodiscard]] std::shared_ptr<MuxConn> get_conn(NodeId dst);

    /// Install the readiness handler for a fresh connection (loop
    /// thread only).
    void register_conn(const std::shared_ptr<MuxConn>& conn);

    /// Move a dead connection out of the active map; its loop
    /// registration unwinds via the shutdown-triggered EOF event.
    void retire_locked(std::shared_ptr<MuxConn> conn);

    /// Drop references to connections retired earlier (their fds close
    /// when the loop releases the last reference).
    void reap_graveyard();

    /// The shared doom path: mark dead, shut the socket down, fail all
    /// in-flight futures, and unwind the loop registration.
    void doom_conn(const std::shared_ptr<MuxConn>& conn,
                   const std::string& reason);

    /// One event loop serves every connection of this transport
    /// (replaces one reader thread per peer).
    std::unique_ptr<net::EventLoop> loop_;

    Endpoint default_endpoint_;
    mutable std::mutex peers_mu_;  // peers_ grows at runtime (add_peer)
    std::unordered_map<NodeId, Endpoint> peers_;

    std::mutex mu_;  // guards conns_ and graveyard_
    /// Key: "host:port" — one connection per peer *endpoint*, so an
    /// all-in-one daemon gets exactly one multiplexed connection no
    /// matter how many logical nodes it hosts.
    std::unordered_map<std::string, std::shared_ptr<MuxConn>> conns_;
    std::vector<std::shared_ptr<MuxConn>> graveyard_;
};

class TcpRpcServer {
  public:
    struct Options {
        std::uint16_t port = 0;  ///< 0 = ephemeral; read back with port()
        std::string bind_addr = "0.0.0.0";
        /// Worker-pool size for kPool families (0 = a hardware-sized
        /// default).
        std::size_t workers = 0;
        /// Event-loop (reactor) threads moving bytes and running kLoop
        /// handlers (0 = default 2).
        std::size_t io_threads = 0;
        /// Close connections idle longer than this (0 = never). Guards
        /// fd exhaustion under thousands of parked clients.
        std::uint64_t idle_timeout_ms = 0;
        /// Serve chunk reads scatter-gather straight from store memory.
        /// Off flattens every response through the copy path — only
        /// useful for measuring what zero-copy saves.
        bool zero_copy = true;
    };

    TcpRpcServer(Dispatcher& dispatcher, Options opts);
    ~TcpRpcServer();

    TcpRpcServer(const TcpRpcServer&) = delete;
    TcpRpcServer& operator=(const TcpRpcServer&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Live accepted connections (tests and the idle-timeout sweeps).
    [[nodiscard]] std::size_t connection_count() const;

    /// Shut down listener and connections, stop the loops, drain the
    /// worker pool, join every thread. Idempotent.
    void stop();

  private:
    struct ServerConn;

    void on_accept(std::uint32_t events);
    void register_conn(const std::shared_ptr<ServerConn>& conn);
    void on_readable(const std::shared_ptr<ServerConn>& conn,
                     std::uint32_t events);
    void on_writable(const std::shared_ptr<ServerConn>& conn);
    /// Read an HTTP request head (loop thread), then render its reply
    /// on the pool.
    void read_http_head(const std::shared_ptr<ServerConn>& conn);
    /// Loop-thread-only teardown of one connection.
    void close_conn(const std::shared_ptr<ServerConn>& conn);
    /// Run one complete request frame where the dispatcher's table
    /// says: inline, on the pool, or on its own thread (loop thread).
    void handle_frame(const std::shared_ptr<ServerConn>& conn,
                      Buffer request);

    /// Dispatch one request and queue its response. Runs on the loop
    /// thread for kLoop families, else as a pool task or on a dedicated
    /// blocking-op thread. \p received_at is when the loop finished the
    /// frame — the gap to dispatch is the queue wait the server span
    /// reports (worker wait on the pool; near zero inline, where the
    /// wait behind earlier inline handlers shows up as wire time).
    void answer(const std::shared_ptr<ServerConn>& conn,
                const Buffer& request, TimePoint received_at);

    /// Queue + opportunistically flush one response; arms EPOLLOUT when
    /// the kernel buffer is full (backpressure). \p last closes the
    /// connection once the response has drained (an HTTP reply).
    void send_response(const std::shared_ptr<ServerConn>& conn,
                       RpcResponse&& resp, bool last = false);

    /// Idle-timeout tick body for one loop.
    void sweep_idle(net::EventLoop* loop);

    Dispatcher& dispatcher_;
    const Options opts_;
    /// Pool for kPool families, shared by all connections; reset
    /// (drained + joined) by stop() after the reactor loops are joined.
    std::unique_ptr<ThreadPool> workers_;
    std::unique_ptr<net::Reactor> reactor_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;

    mutable std::mutex mu_;  // guards conns_, blocking_ops_, stopping_
    std::condition_variable conn_done_;
    bool stopping_ = false;
    /// Requests that block by design (wait_published) run on dedicated
    /// detached threads, NOT pool workers: N of them parked in a
    /// condition wait must never exhaust the pool and stall the very
    /// commit that would wake them. stop() drains this count.
    std::size_t blocking_ops_ = 0;
    std::unordered_map<ServerConn*, std::shared_ptr<ServerConn>> conns_;
    /// Per-loop dispatch counters (registry-owned, stable addresses).
    std::vector<Counter*> loop_dispatch_;
    /// Registry bindings (worker backlog, connection gauges); declared
    /// last so they unbind before the state they sample.
    MetricsGroup metrics_;
};

}  // namespace blobseer::rpc

// Long-lived partitioning service (DESIGN.md §9).
//
// Thread anatomy:
//
//   accept thread ── poll(listen fd, stop pipe) ── one thread per connection
//   connection threads ── read frames, admit into the bounded queue,
//                         answer /stats and admission failures inline
//   worker threads ── pop jobs, run RequestHandler, write the response
//
// Admission control: a PartitionRequest either enters the bounded queue or
// is answered OVERLOADED on the spot — the server never buffers unbounded
// work and a full queue never hangs a client.  Each worker owns a
// RequestHandler (warm decode/partition/encode buffers and bisection
// workspace) and they share one ResultCache, so concurrency across requests
// costs no per-request allocation on the compute path.
//
// Deadlines: requests carry a millisecond budget anchored at arrival.
// Expiry is checked at dequeue (answered without computing) and during
// partitioning via the CancelToken polled at level boundaries
// (core/multilevel.cpp), releasing the worker promptly either way.
//
// Shutdown: request_stop() writes one byte to a self-pipe (async-signal-
// safe, so it is callable from a SIGTERM handler).  join() then drains:
// stop accepting, half-close every connection (SHUT_RD — queued responses
// still flow out), join connection threads, close the queue (workers finish
// the backlog first), join workers, unlink the socket file.
//
// Determinism: results are a pure function of (graph, k, seed, scheme) —
// never of worker count, queue order, or cache state — because every
// request runs the offline pipeline with its own seed and cache entries are
// keyed by exactly the function's inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "server/bounded_queue.hpp"
#include "server/handler.hpp"
#include "server/net.hpp"
#include "server/result_cache.hpp"

namespace mgp::server {

struct ServerConfig {
  /// Non-empty: listen on this Unix-domain socket path.
  std::string unix_path;
  /// When unix_path is empty: listen on 127.0.0.1:tcp_port (0 = ephemeral;
  /// read the bound port back with Server::tcp_port()).
  std::uint16_t tcp_port = 0;
  int num_workers = 2;
  std::size_t queue_capacity = 16;
  std::size_t cache_capacity = 64;
  /// Frames above this are rejected before any allocation.
  std::size_t max_payload_bytes = std::size_t{1} << 30;
  /// Requests with kway_mode = kAuto run direct k-way when k >= this
  /// (recursive bisection below); explicit request modes always win.
  int direct_min_k = kDefaultDirectMinK;
  /// Byte budget of the pinned-graph store (PIN_GRAPH / DELTA_REPARTITION);
  /// pins past it evict idle LRU entries, then reject with OVERLOADED.
  std::size_t store_max_bytes = std::size_t{256} << 20;
  /// Test-only: runs in the worker before each dequeued job is handled
  /// (lets tests hold workers to fill the queue or expire deadlines
  /// deterministically).  Empty in production.
  std::function<void()> test_on_dequeue;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the worker + accept threads.
  bool start(std::string& err);

  /// Signals shutdown.  Async-signal-safe (one write to a self-pipe plus a
  /// lock-free store); callable from a SIGTERM/SIGINT handler.
  void request_stop();

  /// Blocks until request_stop(), then drains and stops every thread.
  void join();

  /// Bound TCP port (0 for Unix-domain servers).
  std::uint16_t tcp_port() const { return bound_port_; }

  /// Introspection snapshot (the /stats payload): metrics, cache, queue.
  std::string stats_json() const;

  obs::MetricsRegistry& metrics() { return registry_; }
  const ResultCache& cache() const { return cache_; }

  /// Connection slots currently tracked: live connections plus finished
  /// threads not yet reaped.  Test hook for the reaping logic — a long-
  /// lived server churning short connections must keep this bounded.
  std::size_t connection_slots() const;

 private:
  struct Connection {
    explicit Connection(Fd f) : fd(std::move(f)) {}
    Fd fd;
    std::mutex write_mu;  ///< serializes response frames onto the socket
  };
  struct Job {
    std::shared_ptr<Connection> conn;
    std::vector<std::uint8_t> payload;
    std::chrono::steady_clock::time_point arrival;
    MsgType type = MsgType::kPartitionRequest;
  };

  /// One tracked connection: its thread plus a weak handle for the drain
  /// half-close.  Slots live in conns_ until the thread finishes and a
  /// later accept (or join()) reaps it.
  struct ConnSlot {
    std::thread thread;
    std::weak_ptr<Connection> conn;
  };

  void accept_loop();
  void connection_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  /// Joins and erases every connection whose thread has announced itself
  /// finished.  Called from the accept loop on each new connection, so a
  /// daemon serving many short connections never accumulates dead thread
  /// handles (only the final tail waits for join()).
  void reap_finished_connections();
  void write_inline_error(Connection& conn, Status status, std::string_view message,
                          std::vector<std::uint8_t>& scratch);
  void write_stats(Connection& conn, std::vector<std::uint8_t>& scratch);

  ServerConfig cfg_;
  obs::MetricsRegistry registry_;
  ServerMetrics ids_;
  ResultCache cache_;
  dynamic::GraphStore store_;
  BoundedQueue<Job> queue_;

  Fd listen_fd_;
  Fd stop_pipe_rd_, stop_pipe_wr_;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool joined_ = false;

  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  mutable std::mutex conns_mu_;
  std::uint64_t next_conn_id_ = 0;
  std::unordered_map<std::uint64_t, ConnSlot> conns_;
  /// Ids whose connection_loop has returned; their threads are join-ready.
  std::vector<std::uint64_t> finished_conns_;
};

}  // namespace mgp::server

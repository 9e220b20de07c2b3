#include "server/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <sstream>
#include <utility>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace mgp::server {

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      ids_(registry_),
      cache_(cfg_.cache_capacity),
      store_(cfg_.store_max_bytes),
      queue_(cfg_.queue_capacity) {
  // The stop pipe exists from construction so request_stop() is always
  // safe, including from a signal handler installed before start().
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    stop_pipe_rd_ = Fd(fds[0]);
    stop_pipe_wr_ = Fd(fds[1]);
  }
}

Server::~Server() {
  request_stop();
  join();
}

bool Server::start(std::string& err) {
  if (!stop_pipe_rd_.valid()) {
    err = "could not create the stop pipe";
    return false;
  }
  if (!cfg_.unix_path.empty()) {
    listen_fd_ = listen_unix(cfg_.unix_path, err);
  } else {
    listen_fd_ = listen_tcp(cfg_.tcp_port, err);
    if (listen_fd_.valid()) bound_port_ = local_port(listen_fd_.get());
  }
  if (!listen_fd_.valid()) return false;

  worker_threads_.reserve(static_cast<std::size_t>(cfg_.num_workers));
  for (int i = 0; i < cfg_.num_workers; ++i) {
    worker_threads_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
  return true;
}

void Server::request_stop() {
  stopping_.store(true, std::memory_order_release);
  if (stop_pipe_wr_.valid()) {
    const char byte = 1;
    // Single write of one byte: async-signal-safe, and a full pipe just
    // means a stop byte is already pending.
    [[maybe_unused]] ssize_t rc = ::write(stop_pipe_wr_.get(), &byte, 1);
  }
}

void Server::join() {
  if (!started_ || joined_) return;
  joined_ = true;
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain: half-close every live connection so its reader sees EOF once the
  // in-flight request stream ends; responses already queued still go out.
  std::vector<std::thread> tail;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    tail.reserve(conns_.size());
    for (auto& [id, slot] : conns_) {
      if (std::shared_ptr<Connection> c = slot.conn.lock()) {
        ::shutdown(c->fd.get(), SHUT_RD);
      }
      tail.push_back(std::move(slot.thread));
    }
    conns_.clear();
    finished_conns_.clear();
  }
  for (std::thread& t : tail) {
    if (t.joinable()) t.join();
  }
  queue_.close();  // workers finish the backlog, then exit
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  listen_fd_.reset();
  if (!cfg_.unix_path.empty()) ::unlink(cfg_.unix_path.c_str());
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_.get(), POLLIN, 0}, {stop_pipe_rd_.get(), POLLIN, 0}};
    int rc;
    do {
      rc = ::poll(fds, 2, -1);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) break;
    if (fds[1].revents != 0) break;  // stop requested
    if ((fds[0].revents & POLLIN) == 0) continue;

    int cfd;
    do {
      cfd = ::accept(listen_fd_.get(), nullptr, nullptr);
    } while (cfd < 0 && errno == EINTR);
    if (cfd < 0) continue;

    obs::Span span("server.accept");
    registry_.add(ids_.connections_total);
    reap_finished_connections();  // churn must not accumulate dead threads
    auto conn = std::make_shared<Connection>(Fd(cfd));
    std::lock_guard<std::mutex> lock(conns_mu_);
    const std::uint64_t id = next_conn_id_++;
    ConnSlot& slot = conns_[id];
    slot.conn = conn;
    // The announcement below waits on conns_mu_, so the slot's thread
    // member is fully assigned before the id can appear in finished_conns_.
    slot.thread = std::thread([this, id, conn = std::move(conn)]() mutable {
      connection_loop(std::move(conn));
      std::lock_guard<std::mutex> fin_lock(conns_mu_);
      finished_conns_.push_back(id);
    });
  }
}

void Server::reap_finished_connections() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    done.reserve(finished_conns_.size());
    for (std::uint64_t id : finished_conns_) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // already drained by join()
      done.push_back(std::move(it->second.thread));
      conns_.erase(it);
    }
    finished_conns_.clear();
  }
  // Joins outside the lock: each thread announced itself as its final
  // statement, so these complete immediately and never touch conns_mu_.
  for (std::thread& t : done) {
    if (t.joinable()) t.join();
  }
}

std::size_t Server::connection_slots() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> scratch;  // inline error / stats frames
  for (;;) {
    FrameHeader header;
    const ReadFrameResult r =
        read_frame(conn->fd.get(), header, payload, cfg_.max_payload_bytes);
    if (r != ReadFrameResult::kOk) break;  // EOF, torn frame, or oversize
    const auto arrival = std::chrono::steady_clock::now();

    if (header.version != kProtocolVersion) {
      write_inline_error(*conn, Status::kUnsupportedVersion,
                         "unsupported protocol version", scratch);
      continue;
    }
    switch (header.type) {
      case MsgType::kStatsRequest:
        write_stats(*conn, scratch);
        continue;
      case MsgType::kPartitionRequest:
      case MsgType::kPinGraphRequest:
      case MsgType::kDeltaRequest: {
        if (stopping_.load(std::memory_order_acquire)) {
          write_inline_error(*conn, Status::kShuttingDown, "server is draining",
                             scratch);
          continue;
        }
        obs::Span span("server.queue");
        Job job{conn, std::move(payload), arrival, header.type};
        if (queue_.try_push(std::move(job))) {
          registry_.record_max(ids_.queue_depth_peak,
                               static_cast<std::int64_t>(queue_.size()));
        } else {
          // Backpressure: reject now rather than block the connection.
          payload = std::move(job.payload);
          registry_.add(ids_.rejected_overloaded);
          write_inline_error(*conn, Status::kOverloaded, "request queue is full",
                             scratch);
        }
        continue;
      }
      default:
        write_inline_error(*conn, Status::kBadRequest, "unknown message type",
                           scratch);
        continue;
    }
  }
}

void Server::worker_loop() {
  RequestHandler handler(cache_, store_, registry_, ids_, cfg_.direct_min_k);
  std::vector<std::uint8_t> frame;
  while (std::optional<Job> job = queue_.pop()) {
    // Exception barrier: a throw escaping a thread is std::terminate, so
    // nothing a single request does may leave this try — the handler maps
    // partitioning failures itself, but decode resizes, cache insertion
    // under memory pressure, or a test hook can still throw.  The client
    // gets INTERNAL and the worker lives on.
    try {
      if (cfg_.test_on_dequeue) cfg_.test_on_dequeue();
      switch (job->type) {
        case MsgType::kPinGraphRequest:
          handler.handle_pin(job->payload, frame);
          break;
        case MsgType::kDeltaRequest:
          handler.handle_delta(job->payload, job->arrival, frame);
          break;
        default:
          handler.handle(job->payload, job->arrival, frame);
          break;
      }
    } catch (const std::exception& e) {
      encode_error_frame(Status::kInternal, e.what(), frame);
    } catch (...) {
      encode_error_frame(Status::kInternal, "unexpected worker failure", frame);
    }
    std::lock_guard<std::mutex> lock(job->conn->write_mu);
    send_all(job->conn->fd.get(), frame.data(), frame.size());
  }
}

void Server::write_inline_error(Connection& conn, Status status,
                                std::string_view message,
                                std::vector<std::uint8_t>& scratch) {
  if (status == Status::kBadRequest) registry_.add(ids_.bad_requests);
  encode_error_response(status, message, scratch);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  write_frame(conn.fd.get(), MsgType::kErrorResponse, scratch);
}

void Server::write_stats(Connection& conn, std::vector<std::uint8_t>& scratch) {
  const std::string json = stats_json();
  encode_stats_response(json, scratch);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  write_frame(conn.fd.get(), MsgType::kStatsResponse, scratch);
}

std::string Server::stats_json() const {
  std::ostringstream os;
  obs::JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.key("metrics");
  obs::write_metrics_json(w, registry_.snapshot());
  const ResultCache::Stats cs = cache_.stats();
  w.key("cache");
  w.begin_object();
  w.kv("hits", static_cast<std::int64_t>(cs.hits));
  w.kv("misses", static_cast<std::int64_t>(cs.misses));
  w.kv("insertions", static_cast<std::int64_t>(cs.insertions));
  w.kv("evictions", static_cast<std::int64_t>(cs.evictions));
  w.kv("evictions_capacity", static_cast<std::int64_t>(cs.evictions));
  w.kv("entries", static_cast<std::int64_t>(cache_.size()));
  w.end_object();
  const dynamic::GraphStore::Stats ss = store_.stats();
  w.key("store");
  w.begin_object();
  w.kv("pins", static_cast<std::int64_t>(ss.pins));
  w.kv("repins", static_cast<std::int64_t>(ss.repins));
  w.kv("evictions", static_cast<std::int64_t>(ss.evictions));
  w.kv("evictions_budget", static_cast<std::int64_t>(ss.evictions_budget));
  w.kv("evictions_rekey_replaced", static_cast<std::int64_t>(ss.evictions_replaced));
  w.kv("evictions_rekey_dropped", static_cast<std::int64_t>(ss.evictions_dropped));
  w.kv("rejected", static_cast<std::int64_t>(ss.rejected));
  w.kv("entries", static_cast<std::int64_t>(ss.entries));
  w.kv("bytes", static_cast<std::int64_t>(ss.bytes));
  w.kv("max_bytes", static_cast<std::int64_t>(ss.max_bytes));
  w.end_object();
  w.key("queue");
  w.begin_object();
  w.kv("depth", static_cast<std::int64_t>(queue_.size()));
  w.kv("capacity", static_cast<std::int64_t>(queue_.capacity()));
  w.end_object();
  w.kv("workers", cfg_.num_workers);
  w.end_object();
  return os.str();
}

}  // namespace mgp::server

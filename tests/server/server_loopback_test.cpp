// End-to-end service tests over real sockets: an in-process Server plus
// Client connections on a Unix-domain (and TCP loopback) transport.
//
// The load-bearing assertion is byte-identity: a partition computed through
// the server — any concurrency, any queue interleaving, any cache state —
// equals what the offline pipeline produces for the same (graph, k, seed,
// config).  Around it sit the service-behaviour contracts: cache hits on
// repeats, OVERLOADED instead of hangs when the admission queue is full,
// DEADLINE_EXCEEDED for expired budgets (with the worker released), error
// answers for malformed frames, and a clean drain on shutdown.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <semaphore>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/kway.hpp"
#include "core/kway_direct.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/delta.hpp"
#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "server/client.hpp"
#include "server/net.hpp"
#include "server/server.hpp"
#include "support/rng.hpp"

namespace mgp::server {
namespace {

std::string socket_path(const std::string& name) {
  return ::testing::TempDir() + "/mgp_" + name + ".sock";
}

/// The configuration RequestOptions defaults map to (see config_from_head).
MultilevelConfig offline_cfg() {
  MultilevelConfig cfg;
  cfg.matching = MatchingScheme::kHeavyEdge;
  cfg.initpart = InitPartScheme::kGGGP;
  cfg.refine = RefinePolicy::kBKLGR;
  cfg.coarsen_to = 100;
  cfg.threads = 1;
  return cfg;
}

KwayResult offline(const Graph& g, part_t k, std::uint64_t seed) {
  Rng rng(seed);
  return kway_partition(g, k, offline_cfg(), rng);
}

/// The direct-path comparator: what a kDirect request must byte-match.
KwayResult offline_direct(const Graph& g, part_t k, std::uint64_t seed) {
  KwayDirectConfig cfg;
  cfg.base = offline_cfg();
  Rng rng(seed);
  return kway_partition_direct(g, k, cfg, rng);
}

/// Stops and joins the server even when an assertion unwinds the test.
class ServerGuard {
 public:
  explicit ServerGuard(Server& s) : s_(s) {}
  ~ServerGuard() {
    s_.request_stop();
    s_.join();
  }

 private:
  Server& s_;
};

TEST(ServerLoopbackTest, ConcurrentClientsMatchOfflinePipeline) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("concurrent");
  cfg.num_workers = 4;
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = grid2d(40, 40);
  constexpr int kClients = 8;
  constexpr part_t kParts = 8;
  std::vector<PartitionOutcome> outcomes(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      std::string cerr_msg;
      Client client = Client::connect_unix(cfg.unix_path, cerr_msg);
      if (!client.connected()) return;
      RequestOptions opts;
      opts.k = kParts;
      opts.seed = 100 + static_cast<std::uint64_t>(i);
      outcomes[static_cast<std::size_t>(i)] = client.partition(g, opts);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kClients; ++i) {
    const PartitionOutcome& out = outcomes[static_cast<std::size_t>(i)];
    ASSERT_TRUE(out.ok()) << "client " << i << ": " << out.error;
    const KwayResult expect = offline(g, kParts, 100 + static_cast<std::uint64_t>(i));
    EXPECT_EQ(out.part, expect.part) << "seed " << 100 + i;
    EXPECT_EQ(out.edge_cut, expect.edge_cut);
  }
}

TEST(ServerLoopbackTest, DirectModeConcurrentClientsMatchOfflineDirect) {
  // The kway_mode=direct leg of the byte-identity contract: 8 concurrent
  // clients forcing direct k-way all get exactly what the offline direct
  // pipeline computes, regardless of worker/queue interleaving.
  ServerConfig cfg;
  cfg.unix_path = socket_path("direct");
  cfg.num_workers = 4;
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = grid2d(40, 40);
  constexpr int kClients = 8;
  constexpr part_t kParts = 16;
  std::vector<PartitionOutcome> outcomes(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      std::string cerr_msg;
      Client client = Client::connect_unix(cfg.unix_path, cerr_msg);
      if (!client.connected()) return;
      RequestOptions opts;
      opts.k = kParts;
      opts.kway_mode = KwayMode::kDirect;
      opts.seed = 500 + static_cast<std::uint64_t>(i);
      outcomes[static_cast<std::size_t>(i)] = client.partition(g, opts);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kClients; ++i) {
    const PartitionOutcome& out = outcomes[static_cast<std::size_t>(i)];
    ASSERT_TRUE(out.ok()) << "client " << i << ": " << out.error;
    const KwayResult expect =
        offline_direct(g, kParts, 500 + static_cast<std::uint64_t>(i));
    EXPECT_EQ(out.part, expect.part) << "seed " << 500 + i;
    EXPECT_EQ(out.edge_cut, expect.edge_cut);
  }
}

TEST(ServerLoopbackTest, KwayModeSelectsThePipeline) {
  // kAuto's threshold routes small k to recursive bisection and large k to
  // direct; explicit modes override it in both directions.  Each answer is
  // byte-identical to its offline comparator.
  ServerConfig cfg;
  cfg.unix_path = socket_path("kwaymode");
  cfg.direct_min_k = 8;  // make both auto outcomes reachable with modest k
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = fem2d_tri(20, 20, 4);
  std::string cerr_msg;
  Client client = Client::connect_unix(cfg.unix_path, cerr_msg);
  ASSERT_TRUE(client.connected()) << cerr_msg;

  RequestOptions opts;
  opts.k = 4;  // below the threshold: auto -> recursive bisection
  PartitionOutcome out = client.partition(g, opts);
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.part, offline(g, 4, opts.seed).part);

  opts.k = 8;  // at the threshold: auto -> direct
  out = client.partition(g, opts);
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.part, offline_direct(g, 8, opts.seed).part);

  opts.kway_mode = KwayMode::kRecursiveBisection;  // explicit override
  out = client.partition(g, opts);
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.part, offline(g, 8, opts.seed).part);

  opts.k = 4;
  opts.kway_mode = KwayMode::kDirect;  // explicit override the other way
  out = client.partition(g, opts);
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.part, offline_direct(g, 4, opts.seed).part);

  // The mode sits inside the config digest: the three distinct answers for
  // k=8 (auto-direct, forced rb) were cache misses, not collisions.
  EXPECT_EQ(server.cache().stats().hits, 0u);
}

TEST(ServerLoopbackTest, DirectModeDeadlineExpiryReleasesTheWorker) {
  // A deadline that expires mid-queue on a direct-mode request must answer
  // DEADLINE_EXCEEDED and leave the worker able to serve the next direct
  // request (whose bytes still match offline).
  ServerConfig cfg;
  cfg.unix_path = socket_path("directdl");
  cfg.num_workers = 1;
  cfg.test_on_dequeue = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = grid2d(24, 24);
  std::string cerr_msg;
  Client client = Client::connect_unix(cfg.unix_path, cerr_msg);
  ASSERT_TRUE(client.connected()) << cerr_msg;

  RequestOptions opts;
  opts.k = 16;
  opts.kway_mode = KwayMode::kDirect;
  opts.deadline_ms = 5;  // burned while the request waits in the hook
  PartitionOutcome expired = client.partition(g, opts);
  EXPECT_EQ(expired.status, Status::kDeadlineExceeded);

  opts.deadline_ms = 0;
  PartitionOutcome ok = client.partition(g, opts);
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(ok.part, offline_direct(g, 16, opts.seed).part);
  EXPECT_EQ(server.metrics().snapshot().counter_value("server.deadline_expired"), 1);
}

TEST(ServerLoopbackTest, UnknownKwayModeAnswersBadRequest) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("badmode");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = grid2d(8, 8);
  RequestOptions opts;
  opts.k = 2;
  std::vector<std::uint8_t> payload;
  encode_partition_request(g, opts, payload);
  payload[15] = 200;  // not a KwayMode

  Fd fd = connect_unix(cfg.unix_path, err);
  ASSERT_TRUE(fd.valid()) << err;
  ASSERT_TRUE(write_frame(fd.get(), MsgType::kPartitionRequest, payload));
  FrameHeader h;
  std::vector<std::uint8_t> resp;
  ASSERT_EQ(read_frame(fd.get(), h, resp, 1 << 20), ReadFrameResult::kOk);
  ASSERT_EQ(h.type, MsgType::kErrorResponse);
  Status st = Status::kOk;
  std::string msg;
  ASSERT_TRUE(decode_error_response(resp, st, msg));
  EXPECT_EQ(st, Status::kBadRequest);
  EXPECT_NE(msg.find("kway mode"), std::string::npos) << msg;
}

TEST(ServerLoopbackTest, RepeatRequestIsServedFromCache) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("cache");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = fem2d_tri(20, 20, 4);
  std::string cerr_msg;
  Client client = Client::connect_unix(cfg.unix_path, cerr_msg);
  ASSERT_TRUE(client.connected()) << cerr_msg;

  RequestOptions opts;
  opts.k = 4;
  PartitionOutcome first = client.partition(g, opts);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_FALSE(first.cache_hit);

  PartitionOutcome second = client.partition(g, opts);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.part, first.part);
  EXPECT_EQ(second.edge_cut, first.edge_cut);

  // A different deadline must not change the cache identity...
  opts.deadline_ms = 60000;
  PartitionOutcome third = client.partition(g, opts);
  ASSERT_TRUE(third.ok()) << third.error;
  EXPECT_TRUE(third.cache_hit);
  // ...while a different seed must.
  opts.deadline_ms = 0;
  opts.seed += 1;
  PartitionOutcome fourth = client.partition(g, opts);
  ASSERT_TRUE(fourth.ok()) << fourth.error;
  EXPECT_FALSE(fourth.cache_hit);

  EXPECT_EQ(server.metrics().snapshot().counter_value("server.cache_hits"), 2);
  EXPECT_EQ(server.cache().stats().hits, 2u);
}

TEST(ServerLoopbackTest, CoarsenStrategiesServeEndToEndWithSeparateCacheKeys) {
  // The scheme byte sits in the digested config region, so the same
  // (graph, k, seed) under different coarsening strategies must be three
  // distinct cache entries — and each served partition must equal the
  // offline pipeline run with the same strategy.
  ServerConfig cfg;
  cfg.unix_path = socket_path("strategy_cache");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = fem2d_tri(20, 20, 4);
  std::string cerr_msg;
  Client client = Client::connect_unix(cfg.unix_path, cerr_msg);
  ASSERT_TRUE(client.connected()) << cerr_msg;

  RequestOptions opts;
  opts.k = 4;
  opts.kway_mode = KwayMode::kRecursiveBisection;
  for (const CoarsenStrategy strategy :
       {CoarsenStrategy::kMatching, CoarsenStrategy::kAlgebraicDistance,
        CoarsenStrategy::kNLevel}) {
    opts.coarsen_strategy = strategy;
    PartitionOutcome first = client.partition(g, opts);
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_FALSE(first.cache_hit)
        << "strategy " << static_cast<int>(strategy) << " collided";

    MultilevelConfig offline;
    offline.coarsen.strategy = strategy;
    Rng rng(opts.seed);
    const KwayResult want = kway_partition(g, opts.k, offline, rng);
    EXPECT_EQ(first.part, want.part)
        << "strategy " << static_cast<int>(strategy);
    EXPECT_EQ(first.edge_cut, want.edge_cut);

    // Repeats under the same strategy do hit.
    PartitionOutcome again = client.partition(g, opts);
    ASSERT_TRUE(again.ok()) << again.error;
    EXPECT_TRUE(again.cache_hit);
    EXPECT_EQ(again.part, first.part);
  }
  EXPECT_EQ(server.cache().stats().hits, 3u);
  EXPECT_EQ(server.cache().stats().misses, 3u);
}

TEST(ServerLoopbackTest, FullQueueAnswersOverloadedWithoutHanging) {
  std::counting_semaphore<8> entered(0);  // worker reached the dequeue hook
  std::counting_semaphore<8> hold(0);     // permits for the hook to proceed
  ServerConfig cfg;
  cfg.unix_path = socket_path("overload");
  cfg.num_workers = 1;
  cfg.queue_capacity = 1;
  cfg.test_on_dequeue = [&] {
    entered.release();
    hold.acquire();
  };
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = grid2d(16, 16);
  RequestOptions opts;
  opts.k = 2;

  // Request A occupies the only worker (held inside the hook)...
  PartitionOutcome a_out, b_out;
  std::thread a([&] {
    std::string e;
    Client c = Client::connect_unix(cfg.unix_path, e);
    if (c.connected()) a_out = c.partition(g, opts);
  });
  entered.acquire();

  // ...request B takes the single queue slot...
  std::thread b([&] {
    std::string e;
    Client c = Client::connect_unix(cfg.unix_path, e);
    if (c.connected()) b_out = c.partition(g, opts);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // ...so request C must be rejected inline, not left hanging.
  std::string e;
  Client c = Client::connect_unix(cfg.unix_path, e);
  ASSERT_TRUE(c.connected()) << e;
  PartitionOutcome c_out = c.partition(g, opts);

  hold.release(4);  // let everything drain before asserting
  a.join();
  b.join();

  EXPECT_TRUE(a_out.ok()) << a_out.error;
  // B and C race for the queue slot; exactly one of them computed and the
  // other was turned away at admission.
  const bool b_won = b_out.ok() && c_out.status == Status::kOverloaded;
  const bool c_won = c_out.ok() && b_out.status == Status::kOverloaded;
  EXPECT_TRUE(b_won || c_won) << "B: " << to_string(b_out.status)
                              << ", C: " << to_string(c_out.status);
  EXPECT_EQ(server.metrics().snapshot().counter_value("server.rejected_overloaded"),
            1);
}

TEST(ServerLoopbackTest, ExpiredDeadlineReleasesTheWorker) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("deadline");
  cfg.num_workers = 1;
  cfg.test_on_dequeue = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = grid2d(16, 16);
  std::string cerr_msg;
  Client client = Client::connect_unix(cfg.unix_path, cerr_msg);
  ASSERT_TRUE(client.connected()) << cerr_msg;

  RequestOptions opts;
  opts.k = 2;
  opts.deadline_ms = 5;  // burned while the request waits in the hook
  PartitionOutcome expired = client.partition(g, opts);
  EXPECT_EQ(expired.status, Status::kDeadlineExceeded);
  EXPECT_FALSE(expired.error.empty());

  // The worker survived the expiry and serves the next request normally.
  opts.deadline_ms = 0;
  PartitionOutcome ok = client.partition(g, opts);
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(ok.part, offline(g, 2, opts.seed).part);
  EXPECT_EQ(server.metrics().snapshot().counter_value("server.deadline_expired"), 1);
}

TEST(ServerLoopbackTest, WorkerSurvivesAThrowingJob) {
  // Anything a request does that throws past the handler must hit the
  // worker's exception barrier, answer INTERNAL, and leave the (only)
  // worker alive for the next request — not std::terminate the daemon.
  std::atomic<int> calls{0};
  ServerConfig cfg;
  cfg.unix_path = socket_path("barrier");
  cfg.num_workers = 1;
  cfg.test_on_dequeue = [&] {
    if (calls.fetch_add(1) == 0) throw std::runtime_error("injected worker fault");
  };
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = grid2d(16, 16);
  std::string cerr_msg;
  Client client = Client::connect_unix(cfg.unix_path, cerr_msg);
  ASSERT_TRUE(client.connected()) << cerr_msg;

  RequestOptions opts;
  opts.k = 2;
  PartitionOutcome faulted = client.partition(g, opts);
  EXPECT_EQ(faulted.status, Status::kInternal);
  EXPECT_NE(faulted.error.find("injected worker fault"), std::string::npos)
      << faulted.error;

  PartitionOutcome ok = client.partition(g, opts);
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(ok.part, offline(g, 2, opts.seed).part);
}

TEST(ServerLoopbackTest, FinishedConnectionThreadsAreReaped) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("reap");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = grid2d(8, 8);
  RequestOptions opts;
  opts.k = 2;
  for (int i = 0; i < 16; ++i) {
    std::string e;
    Client client = Client::connect_unix(cfg.unix_path, e);
    ASSERT_TRUE(client.connected()) << e;
    ASSERT_TRUE(client.partition(g, opts).ok());
  }

  // Each accept reaps previously finished connection threads, so after the
  // churn the tracked slot count must stay small — not grow to 16.  Probe
  // connections trigger the reap; retry because a just-closed connection's
  // thread may still be announcing itself.
  bool bounded = false;
  for (int attempt = 0; attempt < 200 && !bounded; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::string e;
    Client probe = Client::connect_unix(cfg.unix_path, e);
    ASSERT_TRUE(probe.connected()) << e;
    std::string json;
    ASSERT_TRUE(probe.stats(json, e)) << e;  // roundtrip: accept completed
    bounded = server.connection_slots() <= 4;
  }
  EXPECT_TRUE(bounded) << "slots: " << server.connection_slots();
}

std::int64_t requests_served(Server& server) {
  return server.metrics().snapshot().counter_value("server.requests");
}

/// A whole PARTITION_REQUEST frame, header included, for tests that put it
/// on the wire piece by piece.
std::vector<std::uint8_t> partition_request_frame(const Graph& g,
                                                  const RequestOptions& opts) {
  std::vector<std::uint8_t> payload;
  encode_partition_request(g, opts, payload);
  FrameHeader h;
  h.type = MsgType::kPartitionRequest;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> frame(kFrameHeaderBytes);
  encode_frame_header(h, frame.data());
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

TEST(ServerLoopbackTest, TornFrameFromADisconnectedClientIsDropped) {
  // A client declares a whole request in its frame header, sends half the
  // payload and disconnects.  The daemon must drop the torn frame without
  // counting a request, release the connection's slot, and keep serving.
  ServerConfig cfg;
  cfg.unix_path = socket_path("torn");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = grid2d(32, 32);  // the size of data/ci_smoke.graph
  RequestOptions opts;
  opts.k = 8;
  const std::vector<std::uint8_t> frame = partition_request_frame(g, opts);
  {
    Fd fd = connect_unix(cfg.unix_path, err);
    ASSERT_TRUE(fd.valid()) << err;
    ASSERT_TRUE(send_all(fd.get(), frame.data(), frame.size() / 2));
    // Hold the connection until the daemon has accepted it.
    for (int i = 0; i < 1000 && server.connection_slots() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server.connection_slots(), 1u);
  }  // disconnect mid-frame

  // Each accept reaps finished connections, so probes bring the count back
  // to the probe's own slot once the torn connection's thread has ended.
  bool reaped = false;
  for (int attempt = 0; attempt < 200 && !reaped; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Client probe = Client::connect_unix(cfg.unix_path, err);
    ASSERT_TRUE(probe.connected()) << err;
    std::string json;
    ASSERT_TRUE(probe.stats(json, err)) << err;
    reaped = server.connection_slots() <= 1;
  }
  EXPECT_TRUE(reaped) << "slots: " << server.connection_slots();
  EXPECT_EQ(requests_served(server), 0);

  Client client = Client::connect_unix(cfg.unix_path, err);
  ASSERT_TRUE(client.connected()) << err;
  const PartitionOutcome out = client.partition(g, opts);
  ASSERT_TRUE(out.ok()) << out.error;
  const KwayResult expect = offline(g, opts.k, opts.seed);
  EXPECT_EQ(out.part, expect.part);
  EXPECT_EQ(out.edge_cut, expect.edge_cut);
  EXPECT_EQ(requests_served(server), 1);
}

TEST(ServerLoopbackTest, SlowWriterIsAnsweredCorrectly) {
  // A valid request trickles in as small pieces with pauses between them;
  // the daemon must assemble the frame and answer it like any other.
  ServerConfig cfg;
  cfg.unix_path = socket_path("slow");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = grid2d(32, 32);
  RequestOptions opts;
  opts.k = 8;
  const std::vector<std::uint8_t> frame = partition_request_frame(g, opts);

  Fd fd = connect_unix(cfg.unix_path, err);
  ASSERT_TRUE(fd.valid()) << err;
  constexpr std::size_t kPiece = 1000;
  ASSERT_GT(frame.size(), 10 * kPiece);
  for (std::size_t at = 0; at < frame.size(); at += kPiece) {
    const std::size_t len = std::min(kPiece, frame.size() - at);
    ASSERT_TRUE(send_all(fd.get(), frame.data() + at, len));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  FrameHeader rh;
  std::vector<std::uint8_t> reply;
  ASSERT_EQ(read_frame(fd.get(), rh, reply, 1 << 24), ReadFrameResult::kOk);
  ASSERT_EQ(rh.type, MsgType::kPartitionResponse);
  const KwayResult expect = offline(g, opts.k, opts.seed);
  std::vector<std::uint8_t> want;
  encode_partition_response(expect.part, opts.k, expect.edge_cut, /*cache_hit=*/false,
                            want);
  EXPECT_EQ(reply, want);
  EXPECT_EQ(requests_served(server), 1);
}

TEST(ServerLoopbackTest, MalformedPayloadAnswersBadRequest) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("badreq");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  Fd fd = connect_unix(cfg.unix_path, err);
  ASSERT_TRUE(fd.valid()) << err;
  const std::uint8_t garbage[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  ASSERT_TRUE(write_frame(fd.get(), MsgType::kPartitionRequest, garbage));

  FrameHeader h;
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(read_frame(fd.get(), h, payload, 1 << 20), ReadFrameResult::kOk);
  ASSERT_EQ(h.type, MsgType::kErrorResponse);
  Status st = Status::kOk;
  std::string msg;
  ASSERT_TRUE(decode_error_response(payload, st, msg));
  EXPECT_EQ(st, Status::kBadRequest);

  // An unknown message type is answered, not ignored, on the same socket.
  ASSERT_TRUE(write_frame(fd.get(), static_cast<MsgType>(77), {}));
  ASSERT_EQ(read_frame(fd.get(), h, payload, 1 << 20), ReadFrameResult::kOk);
  ASSERT_TRUE(decode_error_response(payload, st, msg));
  EXPECT_EQ(st, Status::kBadRequest);
}

TEST(ServerLoopbackTest, UnknownVersionAnswersUnsupportedVersion) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("version");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  Fd fd = connect_unix(cfg.unix_path, err);
  ASSERT_TRUE(fd.valid()) << err;
  std::uint8_t header[kFrameHeaderBytes];
  FrameHeader h;
  h.type = MsgType::kPartitionRequest;
  h.payload_len = 0;
  encode_frame_header(h, header);
  header[4] = 9;  // a future protocol version
  ASSERT_TRUE(send_all(fd.get(), header, sizeof(header)));

  std::vector<std::uint8_t> payload;
  ASSERT_EQ(read_frame(fd.get(), h, payload, 1 << 20), ReadFrameResult::kOk);
  Status st = Status::kOk;
  std::string msg;
  ASSERT_TRUE(decode_error_response(payload, st, msg));
  EXPECT_EQ(st, Status::kUnsupportedVersion);
}

TEST(ServerLoopbackTest, StatsReportServerCounters) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("stats");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  std::string cerr_msg;
  Client client = Client::connect_unix(cfg.unix_path, cerr_msg);
  ASSERT_TRUE(client.connected()) << cerr_msg;
  RequestOptions opts;
  opts.k = 2;
  ASSERT_TRUE(client.partition(grid2d(10, 10), opts).ok());

  std::string json;
  ASSERT_TRUE(client.stats(json, cerr_msg)) << cerr_msg;
  EXPECT_NE(json.find("server.requests"), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"queue\""), std::string::npos);
}

TEST(ServerLoopbackTest, TcpTransportMatchesOffline) {
  ServerConfig cfg;
  cfg.tcp_port = 0;  // ephemeral
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);
  ASSERT_NE(server.tcp_port(), 0);

  std::string cerr_msg;
  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port(), cerr_msg);
  ASSERT_TRUE(client.connected()) << cerr_msg;
  const Graph g = fem2d_tri(15, 15, 6);
  RequestOptions opts;
  opts.k = 6;
  PartitionOutcome out = client.partition(g, opts);
  ASSERT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.part, offline(g, 6, opts.seed).part);
}

TEST(ServerLoopbackTest, PinDeltaMatchesOfflineTwin) {
  // The dynamic path's byte-identity contract: a churn sequence replayed
  // through PIN_GRAPH + DELTA_REPARTITION equals the offline incremental
  // replay (apply_delta + repartition_after_delta) step for step — same
  // labellings, same fingerprint chain.
  ServerConfig cfg;
  cfg.unix_path = socket_path("pindelta");
  cfg.num_workers = 4;
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  Graph g = circuit(700, 11);
  constexpr part_t kParts = 8;
  constexpr std::uint64_t kSeed = 4242;

  // Pre-synthesize the churn script against the evolving offline graph.
  std::vector<dynamic::DeltaBatch> batches(3);
  {
    Graph sim = circuit(700, 11);
    Rng rng(99);
    dynamic::DeltaScratch scratch;
    dynamic::DeltaApplyResult res;
    Graph spare;
    for (auto& b : batches) {
      dynamic::synth_churn_batch(sim, 0.01, rng, b);
      ASSERT_EQ(dynamic::apply_delta(sim, b, scratch, spare, res), "");
      std::swap(sim, spare);
    }
  }

  Client client = Client::connect_unix(cfg.unix_path, err);
  ASSERT_TRUE(client.connected()) << err;
  const Client::PinOutcome pin = client.pin(g);
  ASSERT_TRUE(pin.ok()) << pin.error;
  EXPECT_FALSE(pin.already_pinned);
  EXPECT_EQ(pin.fingerprint, dynamic::graph_fingerprint(g));

  RequestOptions opts;
  opts.k = kParts;
  opts.seed = kSeed;

  dynamic::LabelState state;
  dynamic::IncrementalWorkspace iws;
  BisectWorkspace bws;
  dynamic::DeltaScratch scratch;
  dynamic::DeltaApplyResult res;
  dynamic::IncrementalConfig icfg;
  icfg.direct.base = offline_cfg();  // what config_from_head maps defaults to
  Graph spare;

  std::uint64_t fp = pin.fingerprint;
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    const Client::DeltaOutcome out = client.delta(fp, batches[bi], opts);
    ASSERT_TRUE(out.ok()) << out.error;

    ASSERT_EQ(dynamic::apply_delta(g, batches[bi], scratch, spare, res), "");
    std::swap(g, spare);
    dynamic::repartition_after_delta(g, kParts, icfg, kSeed, state,
                                     res.fingerprint, scratch.touched,
                                     res.churn_ratio, iws, &bws);

    ASSERT_EQ(out.fingerprint, res.fingerprint) << "batch " << bi;
    ASSERT_EQ(out.part, state.part) << "labelling diverged at batch " << bi;
    ASSERT_EQ(out.edge_cut, state.cut) << "batch " << bi;
    EXPECT_EQ(out.from_scratch, bi == 0);  // first delta has no previous
    fp = out.fingerprint;
  }

  // Re-pin of the final graph reports already_pinned (the entry was
  // re-keyed to the post-delta fingerprint).
  const Client::PinOutcome repin = client.pin(g);
  ASSERT_TRUE(repin.ok()) << repin.error;
  EXPECT_TRUE(repin.already_pinned);
  EXPECT_EQ(repin.fingerprint, fp);
}

TEST(ServerLoopbackTest, DeltaUnknownFingerprintAnswersNotFound) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("notfound");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  Client client = Client::connect_unix(cfg.unix_path, err);
  ASSERT_TRUE(client.connected()) << err;

  dynamic::DeltaBatch batch;
  batch.edge_ins.push_back({0, 1, 1});
  RequestOptions opts;
  opts.k = 4;
  const Client::DeltaOutcome out = client.delta(0xBADF00Dull, batch, opts);
  EXPECT_EQ(out.status, Status::kNotFound);
  EXPECT_FALSE(out.ok());
  // The connection stays usable afterwards.
  std::string json;
  EXPECT_TRUE(client.stats(json, err)) << err;
  EXPECT_NE(json.find("\"store\""), std::string::npos);
}

TEST(ServerLoopbackTest, EmptyDeltaBatchHitsTheLabelCache) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("labelcache");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = circuit(500, 7);
  Client client = Client::connect_unix(cfg.unix_path, err);
  ASSERT_TRUE(client.connected()) << err;
  const Client::PinOutcome pin = client.pin(g);
  ASSERT_TRUE(pin.ok()) << pin.error;

  RequestOptions opts;
  opts.k = 4;
  opts.seed = 7;
  dynamic::DeltaBatch empty;

  // First empty delta: no labelling yet, computed from scratch.
  const Client::DeltaOutcome first = client.delta(pin.fingerprint, empty, opts);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_TRUE(first.from_scratch);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.fingerprint, pin.fingerprint);  // identity patch

  // Second: served straight from the entry's label slot.
  const Client::DeltaOutcome second = client.delta(pin.fingerprint, empty, opts);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.part, first.part);
  EXPECT_EQ(second.edge_cut, first.edge_cut);

  // A different config digest gets its own slot (no false sharing).
  opts.seed = 8;
  const Client::DeltaOutcome other = client.delta(pin.fingerprint, empty, opts);
  ASSERT_TRUE(other.ok()) << other.error;
  EXPECT_FALSE(other.cache_hit);
}

TEST(ServerLoopbackTest, MalformedDeltaAnswersBadRequest) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("baddelta");
  Server server(cfg);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;
  ServerGuard guard(server);

  const Graph g = circuit(500, 7);
  Client client = Client::connect_unix(cfg.unix_path, err);
  ASSERT_TRUE(client.connected()) << err;
  const Client::PinOutcome pin = client.pin(g);
  ASSERT_TRUE(pin.ok()) << pin.error;

  dynamic::DeltaBatch batch;
  batch.edge_ins.push_back({0, 0, 1});  // self-loop: apply_delta rejects
  RequestOptions opts;
  opts.k = 4;
  const Client::DeltaOutcome out = client.delta(pin.fingerprint, batch, opts);
  EXPECT_EQ(out.status, Status::kBadRequest);

  // The rejected patch must not have corrupted the pinned graph: a good
  // delta against the same fingerprint still succeeds.
  dynamic::DeltaBatch good;
  good.weight_upd.push_back({0, 5});
  const Client::DeltaOutcome ok = client.delta(pin.fingerprint, good, opts);
  EXPECT_TRUE(ok.ok()) << ok.error;
}

TEST(ServerLoopbackTest, ShutdownUnlinksTheSocketFile) {
  ServerConfig cfg;
  cfg.unix_path = socket_path("shutdown");
  {
    Server server(cfg);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;
    EXPECT_EQ(::access(cfg.unix_path.c_str(), F_OK), 0);
    server.request_stop();
    server.join();
  }
  EXPECT_NE(::access(cfg.unix_path.c_str(), F_OK), 0);
}

}  // namespace
}  // namespace mgp::server

// served_mix: two closed-loop clients, each on its own connection, against
// an in-process Server with two workers.  Each client follows a fixed,
// seed-derived schedule of four request classes:
//
//   rb      fem2d_tri(120,120), k=8, fresh seed: always a cache miss
//   direct  circuit(20000), k=64: auto-dispatched to direct k-way
//   hit     byte-for-byte repeat of the client's previous rb request
//   delta   1% churn against the client's own pinned fem2d_tri(150,150),
//           k=16, warm-started from its previous answer
//
// The only path through server/ (protocol, queue, result cache) and
// dynamic/, and the only one through the k-way refiner.
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "alloc_count.hpp"
#include "check.hpp"
#include "core/kway.hpp"
#include "core/kway_direct.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/incremental.hpp"
#include "replay.hpp"
#include "runs.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "workloads.hpp"

namespace mgpbench {
namespace {

namespace srv = mgp::server;

/// Quality (solution_cost, imbalance) sums the rb/direct/delta answers among
/// each client's first kQualityPrefix numbered requests, so it is the same
/// for a given seed however many requests a run completes.
constexpr std::size_t kQualityPrefix = 40;
/// Traced run: offline twins timed per class and client.
constexpr std::size_t kOverheadSamples = 10;
/// Traced run: encode / decode repetitions.
constexpr int kCodecReps = 20;
/// Fresh churn batches in a client's delta cycle (each is followed by the
/// batch that undoes it, so the cycle has twice as many deltas).
constexpr std::size_t kChurnCycle = 4;
/// Request index of the set-up's warm-up requests (outside the schedule).
constexpr std::size_t kWarmUpIndex = 1u << 30;

const char* span_name(ReqClass c) {
  switch (c) {
    case ReqClass::kRb: return "server.rb";
    case ReqClass::kDirect: return "server.direct";
    case ReqClass::kHit: return "server.hit";
    case ReqClass::kDelta: return "server.delta";
  }
  return "server.?";
}

bool refused(srv::Status s) {
  return s == srv::Status::kOverloaded || s == srv::Status::kNotFound ||
         s == srv::Status::kDeadlineExceeded;
}

std::uint64_t hash_labels(std::span<const mgp::part_t> part) {
  return srv::fnv1a64({reinterpret_cast<const std::uint8_t*>(part.data()),
                       part.size() * sizeof(mgp::part_t)});
}

/// The pipeline configuration the server derives from a request.
mgp::MultilevelConfig partition_config(const mgp::Graph& g,
                                       const srv::RequestOptions& o) {
  std::vector<std::uint8_t> payload;
  srv::encode_partition_request(g, o, payload);
  srv::RequestHead head;
  std::string err;
  if (srv::decode_request_head(payload, head, err) != srv::Status::kOk) {
    throw std::runtime_error("request head: " + err);
  }
  return srv::config_from_head(head);
}

mgp::MultilevelConfig delta_config(const srv::RequestOptions& o) {
  std::vector<std::uint8_t> payload;
  srv::encode_delta_request(0, mgp::dynamic::DeltaBatch{}, o, payload);
  srv::DeltaHead head;
  std::string err;
  if (srv::decode_delta_head(payload, head, err) != srv::Status::kOk) {
    throw std::runtime_error("delta head: " + err);
  }
  return srv::config_from_head(head);
}

/// Finds `"key"` at or after `from` in a /stats document and returns the
/// number that follows it.
double stats_number(const std::string& json, const std::string& key,
                    std::size_t from = 0) {
  const std::size_t at = json.find("\"" + key + "\"", from);
  const std::size_t colon = at == std::string::npos ? at : json.find(':', at);
  if (colon == std::string::npos) throw std::runtime_error("stats: no " + key);
  return std::strtod(json.c_str() + colon + 1, nullptr);
}

struct Sample {
  ReqClass cls;
  double ms;
};

/// A served answer kept for its offline twin.
struct Twin {
  srv::RequestOptions opts;
  std::vector<mgp::part_t> part;
  mgp::ewt_t cut = 0;
  double served_ms = 0.0;
};

/// One delta of a client's cycle and the graph it leads to.
struct DeltaStep {
  mgp::dynamic::DeltaBatch batch;
  mgp::Graph after;
  std::uint64_t fingerprint = 0;  ///< of `after`
};

/// A client's delta cycle, built in the set-up so the closed loop does no
/// generation: kChurnCycle fresh 1% churn batches against the pinned graph,
/// each followed by the batch that undoes it.  The pinned graph never
/// drifts, so a delta costs the same however many a run sends.  Appends the
/// apply_delta time of every step to `apply_ms`.
std::vector<DeltaStep> churn_cycle(const mgp::Graph& pin, mgp::Rng& rng,
                                   std::vector<double>& apply_ms) {
  namespace dyn = mgp::dynamic;
  const std::uint64_t pin_fp = dyn::graph_fingerprint(pin);
  std::vector<DeltaStep> steps;
  dyn::DeltaScratch scratch;
  dyn::DeltaApplyResult applied;
  for (std::size_t j = 0; j < kChurnCycle; ++j) {
    DeltaStep fwd, inv;
    dyn::synth_churn_batch(pin, kServedChurn, rng, fwd.batch);
    dyn::invert_churn_batch(pin, fwd.batch, inv.batch);
    auto apply = [&](const mgp::Graph& from, DeltaStep& step) {
      const auto t0 = Clock::now();
      const std::string err =
          dyn::apply_delta(from, step.batch, scratch, step.after, applied);
      apply_ms.push_back(ms_between(t0, Clock::now()));
      if (!err.empty()) throw std::runtime_error("churn batch rejected: " + err);
      step.fingerprint = applied.fingerprint;
    };
    apply(pin, fwd);
    apply(fwd.after, inv);
    if (inv.fingerprint != pin_fp) {
      throw std::runtime_error("inverse churn batch left a drift");
    }
    steps.push_back(std::move(fwd));
    steps.push_back(std::move(inv));
  }
  return steps;
}

struct DeltaAnswer {
  bool ok = false;
  mgp::ewt_t cut = 0;
  std::uint64_t labels = 0;
};

struct ClientRun {
  int id = 0;
  std::uint64_t seed = 0;
  std::size_t twins_wanted = 1;
  const ServedGraphs* graphs = nullptr;
  SpanLog* log = nullptr;  ///< traced run only
  srv::Client client;
  Result res;

  // The last rb request and its answer: what a hit repeats.
  srv::RequestOptions last_rb;
  std::vector<mgp::part_t> last_rb_part;
  mgp::ewt_t last_rb_cut = 0;

  // Deltas: the client's cycle, the pinned graph's current fingerprint, and
  // every step sent since the pin with its answer.
  srv::RequestOptions delta_opts;
  std::vector<DeltaStep> cycle;
  std::size_t next_step = 0;
  std::uint64_t fingerprint = 0;
  std::vector<std::size_t> sent;     ///< cycle index of each delta sent
  std::vector<DeltaAnswer> answers;  ///< one per delta sent
  bool replayable = true;            ///< no delta failed since the pin
  std::size_t first_timed_delta = 0; ///< index into sent

  std::vector<Sample> samples;
  std::vector<double> apply_ms;  ///< apply_delta per cycle step (set-up)
  std::vector<Twin> twins[kNumClasses];
  mgp::ewt_t cut_sum = 0;
  double imbalance = 0.0;
  std::size_t timed_deltas = 0;
  std::size_t warm_deltas = 0;

  /// Sends request `i` of class `cls`; `timed` for numbered requests.
  void send(ReqClass cls, std::size_t i, bool timed) {
    if (cls == ReqClass::kDelta) {
      send_delta(i, timed);
      return;
    }
    const mgp::Graph& g = cls == ReqClass::kDirect ? graphs->direct : graphs->rb;
    const srv::RequestOptions opts = cls == ReqClass::kRb ? rb_request(seed, id, i)
                                     : cls == ReqClass::kDirect
                                         ? direct_request(seed, id, i)
                                         : last_rb;
    const int span = log ? log->begin(span_name(cls)) : -1;
    const auto t0 = Clock::now();
    srv::PartitionOutcome out = client.partition(g, opts);
    const double ms = ms_between(t0, Clock::now());
    if (log) log->end(span);
    if (timed) samples.push_back(Sample{cls, ms});

    if (!out.ok()) {
      const std::string what = std::string(class_name(cls)) + ": " +
                               std::string(srv::to_string(out.status)) + " " + out.error;
      refused(out.status) ? res.record_refused(what) : res.record(false, what);
      return;
    }
    double imb = 0.0;
    std::string err = check_partition(g, out.part, opts.k, out.edge_cut, &imb);
    if (err.empty() && cls == ReqClass::kHit &&
        (out.part != last_rb_part || out.edge_cut != last_rb_cut)) {
      err = "repeat answered differently";
    }
    res.record(err.empty(), std::string(class_name(cls)) + ": " + err);
    if (!err.empty()) return;
    if (cls == ReqClass::kRb) {
      last_rb = opts;
      last_rb_part = out.part;
      last_rb_cut = out.edge_cut;
    }
    if (timed && i < kQualityPrefix && cls != ReqClass::kHit) {
      cut_sum += out.edge_cut;
      imbalance = std::max(imbalance, imb);
    }
    auto& kept = twins[static_cast<int>(cls)];
    if (timed && kept.size() < twins_wanted) {
      kept.push_back(Twin{opts, std::move(out.part), out.edge_cut, ms});
    }
  }

  void send_delta(std::size_t i, bool timed) {
    const std::size_t step_id = next_step;
    next_step = (next_step + 1) % cycle.size();
    const DeltaStep& step = cycle[step_id];
    const int span = log ? log->begin("server.delta") : -1;
    const auto t0 = Clock::now();
    srv::Client::DeltaOutcome out = client.delta(fingerprint, step.batch, delta_opts);
    const double ms = ms_between(t0, Clock::now());
    if (log) log->end(span);
    if (timed) samples.push_back(Sample{ReqClass::kDelta, ms});
    if (timed && timed_deltas++ == 0) first_timed_delta = sent.size();
    sent.push_back(step_id);

    DeltaAnswer answer;
    if (!out.ok()) {
      const std::string what = "delta: " + std::string(srv::to_string(out.status)) + " " +
                               out.error;
      refused(out.status) ? res.record_refused(what) : res.record(false, what);
      repin(step.after);
    } else {
      double imb = 0.0;
      std::string err =
          check_partition(step.after, out.part, kServedDeltaK, out.edge_cut, &imb);
      if (err.empty() && out.fingerprint != step.fingerprint) {
        err = "server graph fingerprint differs from the client's";
      }
      res.record(err.empty(), "delta: " + err);
      if (err.empty()) {
        answer = DeltaAnswer{true, out.edge_cut, hash_labels(out.part)};
        fingerprint = out.fingerprint;
        if (timed && !out.from_scratch) ++warm_deltas;
        if (timed && i < kQualityPrefix) {
          cut_sum += out.edge_cut;
          imbalance = std::max(imbalance, imb);
        }
      } else {
        repin(step.after);
      }
    }
    answers.push_back(answer);
  }

  /// After a failed delta the server's graph and the client's may differ:
  /// pin the expected graph afresh (its answers can no longer be replayed
  /// from the original pin).
  void repin(const mgp::Graph& g) {
    replayable = false;
    const srv::Client::PinOutcome p = client.pin(g);
    if (!p.ok()) throw std::runtime_error("re-pin failed: " + p.error);
    fingerprint = p.fingerprint;
  }

  void loop(const Options& o, Clock::time_point start) {
    for (std::size_t i = 0;; ++i) {
      const double elapsed = seconds_since(start);
      if (elapsed >= kHardStopSeconds) break;
      if (elapsed >= o.seconds && i >= kServedMinRequests) break;
      send(served_class(seed, id, i), i, /*timed=*/true);
    }
  }
};

void merge_into(Result& dst, Result& src) {
  dst.attempted += src.attempted;
  dst.failed += src.failed;
  dst.wrong += src.wrong;
  for (std::string& e : src.errors) {
    if (dst.errors.size() < 8) dst.errors.push_back(std::move(e));
  }
  src = Result{};
}

/// Server, inputs and connected clients, after pins and warm-up requests.
struct Service {
  std::unique_ptr<srv::Server> server;
  ServedGraphs graphs;
  std::vector<std::unique_ptr<ClientRun>> clients;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() {
    clients.clear();  // close the connections, then drain the server
    if (server) {
      server->request_stop();
      server->join();
    }
  }
};

std::unique_ptr<Service> set_up(const Options& o, SpanLog* log, Result& res) {
  auto svc = std::make_unique<Service>();
  srv::ServerConfig cfg;
  // A Unix-domain socket, the daemon's primary transport, named relative to
  // the working directory (sun_path holds 108 bytes).
  cfg.unix_path = o.work_dir + "/served-" + std::to_string(::getpid()) + ".sock";
  cfg.num_workers = kServedWorkers;
  svc->server = std::make_unique<srv::Server>(cfg);
  std::string err;
  if (!svc->server->start(err)) throw std::runtime_error("server start: " + err);
  svc->graphs = served_graphs(o.seed);
  for (int c = 0; c < kServedClients; ++c) {
    auto run = std::make_unique<ClientRun>();
    run->id = c;
    run->seed = o.seed;
    run->twins_wanted = o.trace ? kOverheadSamples : 1;
    run->graphs = &svc->graphs;
    run->log = log;
    run->client = srv::Client::connect_unix(cfg.unix_path, err);
    if (!run->client.connected()) throw std::runtime_error("connect: " + err);
    const srv::Client::PinOutcome pin = run->client.pin(svc->graphs.pin[c]);
    if (!pin.ok()) throw std::runtime_error("pin: " + pin.error);
    run->fingerprint = pin.fingerprint;
    mgp::Rng churn(churn_seed(o.seed, c));
    run->cycle = churn_cycle(svc->graphs.pin[c], churn, run->apply_ms);
    run->delta_opts = delta_request(o.seed, c);
    // Warm-up: the handlers' buffers, the delta label slot (the first
    // delta on a pin is computed from scratch), and an rb answer for the
    // first hit to repeat.
    for (ReqClass cls : {ReqClass::kRb, ReqClass::kDirect, ReqClass::kDelta}) {
      run->send(cls, kWarmUpIndex, /*timed=*/false);
    }
    merge_into(res, run->res);
    svc->clients.push_back(std::move(run));
  }
  return svc;
}

/// Offline twins of the kept answers: every kept rb, hit and direct answer
/// must equal kway_partition_into / kway_partition_direct_into for the same
/// request.  Fills the offline time and the served-minus-offline overhead
/// of each, per class, and counts the comparisons in `entry`.
void check_twins(Service& svc, std::vector<double> offline_ms[kNumClasses],
                 std::vector<double> overhead_ms[kNumClasses], EntrySamples& entry) {
  mgp::KwayScratch scratch;
  mgp::KwayDirectWorkspace dws;
  mgp::BisectWorkspace ws;
  std::vector<mgp::part_t> part;
  for (auto& run : svc.clients) {
    for (ReqClass cls : {ReqClass::kRb, ReqClass::kHit, ReqClass::kDirect}) {
      const int ci = static_cast<int>(cls);
      const mgp::Graph& g = cls == ReqClass::kDirect ? svc.graphs.direct : svc.graphs.rb;
      for (const Twin& t : run->twins[ci]) {
        // Twice: the first call warms the workspaces, the faster one is
        // the compute cost the served latency is compared against.
        double ms = 0.0;
        bool same = true;
        for (int rep = 0; rep < 2; ++rep) {
          mgp::Rng rng(t.opts.seed);
          const auto t0 = Clock::now();
          mgp::ewt_t cut = 0;
          if (cls == ReqClass::kDirect) {
            mgp::KwayDirectConfig dcfg;
            dcfg.base = partition_config(g, t.opts);
            cut = mgp::kway_partition_direct_into(g, t.opts.k, dcfg, rng, dws, &ws, part);
          } else {
            cut = mgp::kway_partition_into(g, t.opts.k, partition_config(g, t.opts), rng,
                                           scratch, &ws, part);
          }
          const double took = ms_between(t0, Clock::now());
          ms = rep == 0 ? took : std::min(ms, took);
          same = same && part == t.part && cut == t.cut;
        }
        run->res.record(same,
                        std::string(class_name(cls)) + ": differs from its offline twin");
        ++entry.checks;
        entry.matches += same ? 1 : 0;
        offline_ms[ci].push_back(ms);
        overhead_ms[ci].push_back(t.served_ms - ms);
      }
    }
  }
}

/// Replays a client's deltas offline from its pin with
/// repartition_after_delta, comparing answers up to delta `upto` and
/// counting the comparisons in `entry`.
void replay_deltas(ClientRun& run, std::size_t upto, std::vector<double>& repartition_ms,
                   EntrySamples& entry) {
  namespace dyn = mgp::dynamic;
  if (!run.replayable) return;
  dyn::IncrementalConfig icfg;
  icfg.direct.base = delta_config(run.delta_opts);
  mgp::Graph cur = run.graphs->pin[run.id], next;
  dyn::DeltaScratch scratch;
  dyn::DeltaApplyResult applied;
  dyn::LabelState state;
  dyn::IncrementalWorkspace iws;
  mgp::BisectWorkspace bws;
  for (std::size_t j = 0; j <= upto && j < run.sent.size(); ++j) {
    const dyn::DeltaBatch& batch = run.cycle[run.sent[j]].batch;
    const std::string err = dyn::apply_delta(cur, batch, scratch, next, applied);
    if (!err.empty()) throw std::runtime_error("replay: " + err);
    std::swap(cur, next);
    const auto t0 = Clock::now();
    dyn::repartition_after_delta(cur, run.delta_opts.k, icfg, run.delta_opts.seed,
                                 state, applied.fingerprint, scratch.touched,
                                 applied.churn_ratio, iws, &bws, nullptr);
    repartition_ms.push_back(ms_between(t0, Clock::now()));
    const DeltaAnswer& a = run.answers[j];
    const bool same = a.ok && a.cut == state.cut && a.labels == hash_labels(state.part);
    run.res.record(same,
                   "delta: differs from the offline repartition_after_delta replay");
    ++entry.checks;
    entry.matches += same ? 1 : 0;
  }
}

}  // namespace

Result run_served_mix(const Options& o) {
  Result res;
  SpanLog log;
  SpanLog* const trace_log = o.trace ? &log : nullptr;
  std::unique_ptr<Service> svc;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    svc.reset();  // drain the previous set-up's server first
    release_free_memory();
    const auto t0 = Clock::now();
    svc = set_up(o, trace_log, res);
    setups.push_back(seconds_since(t0));
  }

  // The closed loop: one thread per client, each on its own connection.
  const std::uint64_t allocs0 = alloc_count();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(svc->clients.size());
  for (std::size_t c = 0; c < svc->clients.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        svc->clients[c]->loop(o, start);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = seconds_since(start);
  const std::uint64_t loop_allocs = alloc_count() - allocs0;
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  std::string stats, err;
  if (!svc->clients.front()->client.stats(stats, err)) {
    throw std::runtime_error("stats: " + err);
  }

  EntrySamples entry;
  std::vector<double> offline_ms[kNumClasses], overhead_ms[kNumClasses];
  check_twins(*svc, offline_ms, overhead_ms, entry);
  std::vector<double> repartition_ms;
  for (auto& run : svc->clients) {
    replay_deltas(*run, o.trace ? run->sent.size() : run->first_timed_delta,
                  repartition_ms, entry);
  }

  std::vector<double> all, by_class[kNumClasses], apply_ms;
  mgp::ewt_t cut = 0;
  double imbalance = 0.0;
  std::size_t deltas = 0, warm = 0;
  for (auto& run : svc->clients) {
    for (const Sample& s : run->samples) {
      all.push_back(s.ms);
      by_class[static_cast<int>(s.cls)].push_back(s.ms);
    }
    apply_ms.insert(apply_ms.end(), run->apply_ms.begin(), run->apply_ms.end());
    cut += run->cut_sum;
    imbalance = std::max(imbalance, run->imbalance);
    deltas += run->timed_deltas;
    warm += run->warm_deltas;
    merge_into(res, run->res);
  }

  if (!o.trace) {
    res.add("latency_ms_p50", quantile(all, 0.5), "ms");
    res.add("latency_ms_p90", quantile(all, 0.9), "ms");
    res.add("throughput_per_s", static_cast<double>(all.size()) / wall_s, "1/s");
    res.add("solution_cost", static_cast<double>(cut), "count");
    res.add("ok_ratio", res.ok_ratio(), "ratio");
    res.add("peak_rss_mb", peak_rss_mb(), "MB");
    res.add("setup_s", median(setups), "s");
    res.add_detail("imbalance", imbalance, "ratio");
    return res;
  }

  // Codec costs on the rb request and its answer.
  const srv::RequestOptions rb_opts = rb_request(o.seed, 0, 0);
  std::vector<std::uint8_t> request, response;
  std::vector<double> encode_ms, decode_ms;
  const int rb = static_cast<int>(ReqClass::kRb);
  const int direct = static_cast<int>(ReqClass::kDirect);
  const int hit = static_cast<int>(ReqClass::kHit);
  const int delta = static_cast<int>(ReqClass::kDelta);
  const std::vector<Twin>& rb_twins = svc->clients.front()->twins[rb];
  if (rb_twins.empty()) throw std::runtime_error("no rb answer to decode");
  const std::vector<mgp::part_t>& rb_part = rb_twins.front().part;
  srv::encode_partition_response(rb_part, kServedRbK, 0, false, response);
  std::vector<mgp::part_t> decoded;
  for (int r = 0; r < kCodecReps; ++r) {
    auto t0 = Clock::now();
    srv::encode_partition_request(svc->graphs.rb, rb_opts, request);
    encode_ms.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    srv::PartitionResponseView view;
    bool ok = srv::decode_partition_response(response, view);
    decoded.resize(static_cast<std::size_t>(view.n));
    for (std::size_t v = 0; v < decoded.size(); ++v) {
      std::uint32_t label = 0;
      std::memcpy(&label, view.labels.data() + 4 * v, 4);
      decoded[v] = static_cast<mgp::part_t>(label);
    }
    decode_ms.push_back(ms_between(t0, Clock::now()));
    res.record(ok && decoded == rb_part, "response codec round trip");
  }

  // The rb requests' offline twins once more, as a traced recursive
  // bisection, and a V-cycle replay of each one's root bisection.
  const mgp::vwt_t rb_target0 = kway_root_target(svc->graphs.rb, kServedRbK);
  std::vector<ReplayResult> reps;
  std::vector<LevelZeroSplit> splits;
  mgp::BisectWorkspace ws, ref_ws, split_ws;
  for (auto& run : svc->clients) {
    for (const Twin& t : run->twins[rb]) {
      const mgp::MultilevelConfig cfg = partition_config(svc->graphs.rb, t.opts);
      int root = -1;
      const mgp::KwayResult r = traced_kway(svc->graphs.rb, kServedRbK, cfg, t.opts.seed,
                                            0, "core.kway", log, root);
      const bool same = r.part == t.part && r.edge_cut == t.cut;
      res.record(same, "rb: traced recursive bisection differs from the served answer");
      ++entry.checks;
      entry.matches += same ? 1 : 0;
      int calls = 0;
      entry.bisect_ms.push_back(log.children_ms(root, "core.bisect", &calls));
      entry.bisect_calls.push_back(calls);
      reps.push_back(replay_vcycle(svc->graphs.rb, rb_target0, cfg, t.opts.seed, nullptr,
                                   ws, ref_ws, log));
      res.record(reps.back().cut_match, "replay differs from the library");
      splits.push_back(split_level_zero(svc->graphs.rb, cfg, t.opts.seed, split_ws, log));
    }
  }
  entry.wall_ms = all;
  for (int c : {rb, direct}) {
    const std::vector<double>& v = overhead_ms[c];
    entry.self_ms.insert(entry.self_ms.end(), v.begin(), v.end());
  }
  entry.allocs.push_back(static_cast<double>(loop_allocs) /
                         static_cast<double>(all.size()));
  add_layer_metrics(res, entry, reps, splits, o.untraced_p50_ms);

  const double hits = stats_number(stats, "hits", stats.find("\"cache\""));
  const double misses = stats_number(stats, "misses", stats.find("\"cache\""));
  res.add_detail("core.direct_ms_p50", median(offline_ms[direct]), "ms");
  res.add_detail("server.rb_ms_p50", median(by_class[rb]), "ms");
  res.add_detail("server.direct_ms_p50", median(by_class[direct]), "ms");
  res.add_detail("server.hit_ms_p50", median(by_class[hit]), "ms");
  res.add_detail("server.delta_ms_p50", median(by_class[delta]), "ms");
  res.add_detail("server.rb_overhead_ms_p50", median(overhead_ms[rb]), "ms");
  res.add_detail("server.direct_overhead_ms_p50", median(overhead_ms[direct]), "ms");
  res.add_detail("server.encode_ms_p50", median(encode_ms), "ms");
  res.add_detail("server.decode_ms_p50", median(decode_ms), "ms");
  res.add_detail("server.cache_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  res.add_detail("server.queue_depth_peak",
                 stats_number(stats, "server.queue_depth_peak"), "count");
  res.add_detail("server.overloaded", stats_number(stats, "server.rejected_overloaded"),
                 "count");
  res.add_detail("dynamic.apply_ms_p50", median(apply_ms), "ms");
  res.add_detail("dynamic.repartition_ms_p50", median(repartition_ms), "ms");
  res.add_detail(
      "dynamic.warm_ratio",
      deltas > 0 ? static_cast<double>(warm) / static_cast<double>(deltas) : 0.0,
      "ratio");
  log.write_chrome_json(o.trace_path());
  return res;
}

}  // namespace mgpbench

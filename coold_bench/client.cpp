// coold request-path benchmark client.
//
// Forks the real coold daemon (Unix socket; fsync, obs and every other
// setting at their defaults), drives it with one seeded workload from this
// single process (one thread on the request path, at most 3 load
// connections plus 1 control connection), checks every reply, and prints
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// as the last stdout line:
//
//   {"correct":true,"attempted":N,"failed":F,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
//   coold_bench_client --workload fleet_small|large_plan|tenant_churn
//                      --seed N --seconds S --trace 0|1
//                      --coold PATH --run-dir DIR --out DIR
//
// Workloads, metrics and the map from each per-layer metric to the
// end-to-end metric it should move are described in README.md beside this
// file. Exit status: 0 with a result line, 1 when an output check failed
// (the result line still prints with "correct":false), 2 on a run that
// could not be measured (daemon failed to start, serve or recover) — no
// result.
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/schedule.h"
#include "layers.h"
#include "obs/json.h"
#include "svc/protocol.h"
#include "svc/session.h"
#include "svc/wal.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "wire.h"

#ifndef COOLD_BENCH_BUILD_TYPE
#define COOLD_BENCH_BUILD_TYPE "unknown"
#endif

namespace coold_bench {
namespace {

using cool::svc::NetworkSpec;
using cool::svc::RequestType;

// ---------------------------------------------------------------- workloads

enum class Mix { kFleetSmall, kLargePlan, kTenantChurn };

struct Workload {
  std::string name;
  Mix mix = Mix::kFleetSmall;
  bool open_loop = true;
  // Open loop: Poisson rates in req/s, nominal first; the later steps form
  // the ladder max_ok_rate_rps is read from. Closed loop: unused.
  std::vector<double> rates;
  double nominal_share = 1.0;  // share of --seconds spent at rates[0]
  int clients = 0;             // closed loop: concurrent clients
  double limit_ms = 0.0;       // latency limit on p99 (and on goodput)
  int setup_reps = 3;          // forks timed for setup_s (median)
  int recovery_reps = 3;       // SIGKILL/restarts timed for recovery_s
  int recovery_mutations = 4;  // mutations acked before each timed kill
};

// Pause between timed forks, and between timed restarts. The build host's
// speed shifted between levels (fleet_small setup: 18, 24 or 30 ms) that
// each held for 0.3 s to a few seconds; spreading the samples over several
// seconds lets their median span those levels instead of landing in
// whichever one the run began in.
constexpr std::chrono::milliseconds kSampleGap{300};

// Sparse specs: the region grows with n so a sensor covers the same share
// of it at every size (coverage rows stay realistic as n grows).
// Seeds stay below 2^53: the wire carries numbers as doubles.
NetworkSpec sparse_spec(std::size_t sensors, std::size_t targets,
                        std::uint64_t seed) {
  NetworkSpec spec;
  spec.sensors = sensors;
  spec.targets = targets;
  spec.seed = seed;
  spec.region_side =
      std::round(100.0 * std::sqrt(static_cast<double>(sensors) / 40.0));
  return spec;
}

Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "fleet_small") {
    w.mix = Mix::kFleetSmall;
    w.rates = {400.0, 2000.0, 2800.0, 4000.0};
    w.nominal_share = 0.7;
    w.limit_ms = 25.0;
    w.setup_reps = 15;
  } else if (name == "large_plan") {
    w.mix = Mix::kLargePlan;
    w.open_loop = false;
    w.clients = 2;
    w.limit_ms = 2000.0;
    w.setup_reps = 9;
    w.recovery_mutations = 2;
  } else if (name == "tenant_churn") {
    w.mix = Mix::kTenantChurn;
    w.rates = {200.0};
    w.limit_ms = 250.0;
    w.setup_reps = 9;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

struct Tenant {
  std::string name;
  int spec = -1;  // index into Generator::specs (current spec)
};

// One attempted request and what came back.
struct Call {
  std::uint64_t seq = 0;
  RequestType type = RequestType::kStatus;
  int tenant = -1;
  int spec = -1;          // spec the reply must match (offline checks)
  std::vector<std::size_t> dead;
  int phase = -1;         // -1: setup/recovery traffic; >= 0 window phase
  bool traced = false;
  double due = 0.0;       // open loop: arrival time; closed loop: send time
  double sent = 0.0;
  double replied = -1.0;
  int replies = 0;
  bool decoded = false;
  cool::svc::Response resp;
  double encode_us = 0.0;
  double decode_us = 0.0;

  double latency_ms() const { return replied - due; }
  bool plan() const {
    return type == RequestType::kSchedule || type == RequestType::kReplan;
  }
};

// Tenant specs are part of the workload, the same for every seed: the
// planners' cost varies several-fold between random instances of one size
// (repair at 2048 sensors: 0.25-1.1 s), which would otherwise dominate the
// spread between seeds.
constexpr std::uint64_t kSpecSeed = 20110620;
// large_plan's "fresh seed" schedules alternate between this many specs per
// tenant, so every run spends similar time on each instance.
constexpr std::uint64_t kFreshSpecs = 2;

// Seeded request generator. The seed decides the request stream and (open
// loop) the arrival times; coold sees only frames.
class Generator {
 public:
  Generator(const Workload& w, std::uint64_t seed)
      : mix_(w.mix), rng_(seed * 0x9E3779B97F4A7C15ULL + 17) {
    cool::util::Rng spec_rng(kSpecSeed);
    switch (mix_) {
      case Mix::kFleetSmall:
        for (int i = 0; i < 48; ++i) {
          const auto n = static_cast<std::size_t>(spec_rng.uniform_int(30, 60));
          add_tenant("fleet-" + std::to_string(i),
                     sparse_spec(n, n + n / 2, spec_rng.next() >> 11));
        }
        break;
      case Mix::kLargePlan:
        for (int i = 0; i < 4; ++i) {
          const std::size_t n = i < 2 ? 1024 : 2048;
          add_tenant("large-" + std::to_string(i),
                     sparse_spec(n, 2 * n, static_cast<std::uint64_t>(i) * kFreshSpecs));
        }
        break;
      case Mix::kTenantChurn:
        for (int i = 0; i < 96; ++i) {
          const auto n =
              static_cast<std::size_t>(spec_rng.uniform_int(200, 400));
          add_tenant("churn-" + std::to_string(i),
                     sparse_spec(n, n + n / 2, spec_rng.next() >> 11));
        }
        // Skewed tenant choice: Zipf(1.1) over a seeded permutation, so the
        // 64-slot session cache holds most but not all of the hot set.
        order_.resize(tenants.size());
        std::iota(order_.begin(), order_.end(), 0);
        for (std::size_t i = order_.size(); i > 1; --i)
          std::swap(order_[i - 1], order_[spec_rng.next() % i]);
        double total = 0.0;
        for (std::size_t k = 0; k < order_.size(); ++k) {
          total += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
          zipf_cdf_.push_back(total);
        }
        for (double& c : zipf_cdf_) c /= total;
        break;
    }
  }

  std::vector<NetworkSpec> specs;
  std::vector<Tenant> tenants;

  // The next request; `client` pins closed-loop clients to their own
  // tenants so one client's requests never queue behind the other's on a
  // shared session.
  Call next(int client, int clients) {
    Call call;
    const double pick = rng_.uniform();
    switch (mix_) {
      case Mix::kFleetSmall: {
        call.tenant = static_cast<int>(rng_.next() % tenants.size());
        if (pick < 0.8) {
          call.type = RequestType::kReplan;
        } else if (pick < 0.9) {
          call.type = RequestType::kRepair;
          add_dead(call, 1 + rng_.next() % 2);
        } else {
          call.type = RequestType::kStatus;
        }
        break;
      }
      case Mix::kLargePlan: {
        // Client 0 owns the two 1024-sensor tenants, client 1 the two
        // 2048-sensor ones. coold acks a batch when its slowest job ends, so
        // nearly every request waits out one 2048-sensor job: the median
        // lands inside the 2048 replans and p90 inside the 2048 repairs,
        // not on a boundary between request classes.
        //
        // A run holds only ~100 requests, so independent draws would let
        // the share of expensive repairs (and the daemon CPU per request)
        // swing by ~15% between seeds. Each client instead deals from a
        // shuffled deck holding every (tenant, kind) pair in the mix's
        // proportions, as small as the mix allows, so the deck cut short at
        // the window's end skews the mix as little as possible.
        const int per_client = static_cast<int>(tenants.size()) / clients;
        std::vector<std::pair<int, int>>& deck = decks_[client];
        if (deck.empty()) {
          for (int t = 0; t < per_client; ++t)
            for (int kind = 0; kind < 5; ++kind) deck.emplace_back(t, kind);
          rng_.shuffle(deck);
        }
        const auto [slot, kind] = deck.back();
        deck.pop_back();
        call.tenant = client * per_client + slot;
        if (kind < 3) {
          call.type = RequestType::kReplan;
        } else if (kind < 4) {
          call.type = RequestType::kRepair;
          add_dead(call, 2);
        } else {
          // A fresh seed: the session is rebuilt from another spec of the
          // tenant's pool.
          call.type = RequestType::kSchedule;
          NetworkSpec spec = specs[tenants[call.tenant].spec];
          spec.seed = static_cast<std::uint64_t>(call.tenant) * kFreshSpecs +
                      (spec.seed + 1 + rng_.next() % (kFreshSpecs - 1)) % kFreshSpecs;
          tenants[call.tenant].spec = spec_index(spec);
        }
        break;
      }
      case Mix::kTenantChurn: {
        if (pick < 0.6 || (pick < 0.8 && recent_.empty())) {
          call.type = RequestType::kSchedule;
          call.tenant = zipf_tenant();
        } else if (pick < 0.8) {
          call.type = RequestType::kRepair;
          call.tenant = recent_[rng_.next() % recent_.size()];
          add_dead(call, 1 + rng_.next() % 2);
        } else {
          call.type = RequestType::kStatus;
          call.tenant = zipf_tenant();
        }
        break;
      }
    }
    call.spec = tenants[call.tenant].spec;
    return call;
  }

  // Feedback from acked schedules (tenant_churn repairs target tenants
  // scheduled recently, which the cache still holds).
  void on_ack(const Call& call) {
    if (mix_ != Mix::kTenantChurn || call.type != RequestType::kSchedule)
      return;
    recent_.push_back(call.tenant);
    if (recent_.size() > 8) recent_.pop_front();
  }

  double exponential(double mean) { return rng_.exponential(mean); }

 private:
  void add_tenant(std::string name, NetworkSpec spec) {
    tenants.push_back(Tenant{std::move(name), spec_index(spec)});
  }
  int spec_index(const NetworkSpec& spec) {
    const auto it = std::find(specs.begin(), specs.end(), spec);
    if (it != specs.end()) return static_cast<int>(it - specs.begin());
    specs.push_back(spec);
    return static_cast<int>(specs.size()) - 1;
  }
  void add_dead(Call& call, std::size_t count) {
    const std::size_t n = specs[tenants[call.tenant].spec].sensors;
    while (call.dead.size() < count) {
      const std::size_t id = rng_.next() % n;
      if (std::find(call.dead.begin(), call.dead.end(), id) == call.dead.end())
        call.dead.push_back(id);
    }
  }
  int zipf_tenant() {
    const double u = rng_.uniform();
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf_.begin()), order_.size() - 1);
    return order_[k];
  }

  Mix mix_;
  cool::util::Rng rng_;
  std::vector<int> order_;
  std::vector<double> zipf_cdf_;
  std::deque<int> recent_;
  std::map<int, std::vector<std::pair<int, int>>> decks_;  // large_plan, by client
};

// ------------------------------------------------------------------ driver

std::string request_frame(const Call& call, const Generator& gen) {
  cool::svc::Request request;
  request.id = "r" + std::to_string(call.seq);
  request.type = call.type;
  request.network = gen.tenants[call.tenant].name;
  if (call.type == RequestType::kSchedule) {
    request.has_spec = true;
    request.spec = gen.specs[call.spec];
  }
  request.dead = call.dead;
  return request.to_json() + "\n";
}

// Everything the run measured or must check, in attempt order.
struct Ledger {
  std::deque<Call> calls;  // a deque: appends never move earlier calls
  std::size_t unknown_replies = 0;
  std::vector<std::string> request_frames;  // kept for the protocol probes
  std::vector<std::string> reply_frames;
  std::vector<double> send_lag_ms;
  std::vector<double> healthz_depth;
  Spans spans;
};

// Single-threaded event loop over the load connections: sends when due,
// reads replies as they arrive, matches them to calls by id.
class Driver {
 public:
  Driver(Generator& gen, Ledger& ledger, std::vector<Conn*> load, Conn* control)
      : gen_(gen), ledger_(ledger), load_(std::move(load)), control_(control) {}

  bool failed() const noexcept { return broken_; }

  // Issues `call` on load connection `conn_index`; returns its ledger index.
  std::size_t send(Call call, std::size_t conn_index, bool traced) {
    call.seq = ledger_.calls.size();
    call.traced = traced;
    const double t0 = now_ms();
    const std::string frame = request_frame(call, gen_);
    const double t1 = now_ms();
    if (traced) call.encode_us = (t1 - t0) * 1000.0;
    if (ledger_.request_frames.size() < 4000)
      ledger_.request_frames.push_back(frame.substr(0, frame.size() - 1));
    call.sent = now_ms();
    if (call.due == 0.0) call.due = call.sent;
    ledger_.calls.push_back(std::move(call));
    ++outstanding_;
    if (!load_[conn_index]->send_frame(frame)) broken_ = true;
    if (traced)
      ledger_.spans.add("client.encode", ledger_.calls.back().seq, t0, t1,
                        "client.request");
    return ledger_.calls.size() - 1;
  }

  // Reads replies until `until` (steady ms). on_reply(call index) runs for
  // every matched reply.
  template <typename OnReply>
  void pump(double until, OnReply&& on_reply) {
    std::vector<Conn*> conns = load_;
    if (control_) conns.push_back(control_);
    std::vector<std::string> lines;
    // Polls at least once, so replies are read even when `until` has passed.
    for (;;) {
      if (broken_) return;
      const double left = until - now_ms();
      for (std::size_t index : wait_readable(conns, std::max(left, 0.0))) {
        lines.clear();
        if (!conns[index]->read_available(lines)) {
          broken_ = true;
          return;
        }
        const bool control = control_ && index == load_.size();
        for (std::string& line : lines) {
          if (control) {
            on_control(line);
          } else if (const long i = match(line); i >= 0) {
            on_reply(static_cast<std::size_t>(i));
          }
        }
      }
      if (left <= 0.0 || now_ms() >= until) return;
    }
  }

  std::size_t outstanding() const noexcept { return outstanding_; }

  // Waits until nothing is outstanding or `timeout_ms` passes.
  bool drain(double timeout_ms) {
    const double deadline = now_ms() + timeout_ms;
    while (outstanding_ > 0 && now_ms() < deadline && !broken_)
      pump(std::min(deadline, now_ms() + 5.0), [](std::size_t) {});
    return outstanding_ == 0;
  }

  void poll_healthz() {
    if (control_ && !healthz_pending_) {
      healthz_pending_ = control_->send_frame("{\"type\":\"healthz\"}\n");
    }
  }

 private:
  long match(std::string& line) {
    const double t = now_ms();
    // Ids are "r<seq>"; read the id without a full parse (the timed decode
    // below is the client's parse_response).
    const std::size_t at = line.find("\"id\":\"r");
    long index = -1;
    if (at != std::string::npos)
      index = std::strtol(line.c_str() + at + 7, nullptr, 10);
    if (index < 0 || static_cast<std::size_t>(index) >= ledger_.calls.size()) {
      ++ledger_.unknown_replies;
      return -1;
    }
    Call& call = ledger_.calls[static_cast<std::size_t>(index)];
    if (++call.replies > 1) return -1;
    call.replied = t;
    --outstanding_;
    const double d0 = now_ms();
    cool::svc::ResponseParse parsed = cool::svc::parse_response(line);
    const double d1 = now_ms();
    call.decoded = parsed.ok;
    call.resp = std::move(parsed.response);
    if (call.traced) {
      call.decode_us = (d1 - d0) * 1000.0;
      ledger_.spans.add("client.decode", call.seq, d0, d1, "client.request");
      ledger_.spans.add("client.request", call.seq, call.due, t);
    }
    if (ledger_.reply_frames.size() < 4000)
      ledger_.reply_frames.push_back(std::move(line));
    if (call.decoded && call.resp.ok) gen_.on_ack(call);
    return index;
  }

  void on_control(const std::string& line) {
    healthz_pending_ = false;
    const cool::svc::ResponseParse parsed = cool::svc::parse_response(line);
    for (const auto& [key, value] : parsed.response.stats)
      if (key == "queue_depth") ledger_.healthz_depth.push_back(value);
  }

  Generator& gen_;
  Ledger& ledger_;
  std::vector<Conn*> load_;
  Conn* control_;
  std::size_t outstanding_ = 0;
  bool broken_ = false;
  bool healthz_pending_ = false;
};

// ----------------------------------------------------------------- helpers

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// The gated tail is p90. On a 4-vCPU VM whose host steals CPU in bursts,
// p99 is set by those bursts and moved 30-190% between runs of one binary;
// p99 is printed beside it, not gated.
constexpr double kTailQ = 0.9;

// Samples beyond quantile q of n samples (nearest-rank).
std::size_t beyond(std::size_t n, double q) {
  return n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
}

std::string fixed(double value, int digits = 4) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.*f", digits, value);
  return text;
}

// ------------------------------------------------------------------ runner

// A run whose open-loop send lag p99 exceeds this share of the workload's
// latency limit fell behind its schedule: the context line marks it
// invalid. Its result still prints, because every run must give one; its
// latencies are timed from the due times, so the lag is in them.
constexpr double kLagShare = 0.25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string coold;
  std::string run_dir;
  std::string out_dir;
};

class Run {
 public:
  Run(Options options, Workload workload)
      : opt_(std::move(options)),
        w_(std::move(workload)),
        gen_(w_, opt_.seed) {}

  int main();

 private:
  std::string socket_path() const { return "coold.sock"; }
  std::string state_dir(int incarnation) const {
    return "state-" + std::to_string(incarnation);
  }
  bool open_connections();
  bool measure_window();
  bool run_open_phase(double rate, double seconds, int phase,
                      bool traced);
  bool run_closed_phase(double seconds, int phase);
  bool start_daemon(double& setup_s);
  bool kill_and_recover(bool timed, double& recovery_s);
  bool collect_dumps(std::map<std::string, std::string>& dumps);
  bool fetch_stats();
  void offline_checks();
  void report();
  void trace_layers();
  std::vector<std::size_t> window_calls(int phase) const;
  void fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }

  Options opt_;
  Workload w_;
  Generator gen_;
  Ledger ledger_;
  std::unique_ptr<Daemon> daemon_;
  int incarnation_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;  // load connections
  Conn control_;
  bool correct_ = true;

  std::vector<double> setup_s_;
  std::vector<double> recovery_s_;
  double recovery_unchecked_s_ = 0.0;
  double peak_rss_mb_ = 0.0;
  // One window phase: a rate step (open loop) or the closed-loop window.
  struct PhaseRecord {
    double start = 0.0;    // steady ms
    double seconds = 0.0;
    double rate = 0.0;     // offered req/s (closed loop: ok completions/s)
    bool ok = false;       // met the latency limit, no shed, no backlog
    // Daemon CPU time over the phase and its drain.
    double user_ms = 0.0;
    double system_ms = 0.0;
  };
  std::vector<PhaseRecord> phases_;
  // Host steal over the run, steal / (busy + steal) from /proc/stat: the
  // share of the CPU time the VM wanted that the host gave elsewhere.
  double steal_share_ = 0.0;
  double fsync_us_ = 0.0;
  std::map<std::string, double> stats_;   // stats verb, before the kill
  double wal_read_ms_ = 0.0;
  std::vector<Metric> layer_metrics_;
};

bool Run::open_connections() {
  const std::size_t load = w_.open_loop ? 3 : static_cast<std::size_t>(w_.clients);
  conns_.clear();
  for (std::size_t i = 0; i < load; ++i) {
    auto conn = std::make_unique<Conn>();
    if (!conn->connect_retry(socket_path(), 10000.0)) return false;
    conns_.push_back(std::move(conn));
  }
  return control_.connect_retry(socket_path(), 10000.0);
}

// Forks a fresh coold on an empty state dir and schedules every tenant;
// setup_s runs from the fork to the last first-schedule ack.
bool Run::start_daemon(double& setup_s) {
  if (daemon_) daemon_->kill9();
  ++incarnation_;
  // Earlier state dirs are left for run.py, which removes the run dir, so
  // no deletion runs beside the timed fork.
  const double t0 = now_ms();
  daemon_ = std::make_unique<Daemon>(opt_.coold, state_dir(incarnation_),
                                     socket_path());
  // The socket file of the previous incarnation would accept nothing.
  ::unlink(socket_path().c_str());
  if (!daemon_->spawn() || !open_connections()) return false;
  std::vector<Conn*> load;
  for (auto& conn : conns_) load.push_back(conn.get());
  Driver driver(gen_, ledger_, load, nullptr);
  for (std::size_t t = 0; t < gen_.tenants.size(); ++t) {
    Call call;
    call.type = RequestType::kSchedule;
    call.tenant = static_cast<int>(t);
    call.spec = gen_.tenants[t].spec;
    // Pipelined on one connection, in tenant order.
    driver.send(std::move(call), 0, false);
  }
  const bool drained = driver.drain(60000.0);
  setup_s = (now_ms() - t0) / 1000.0;
  return drained && !driver.failed();
}

std::vector<std::size_t> Run::window_calls(int phase) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < ledger_.calls.size(); ++i)
    if (ledger_.calls[i].phase == phase) out.push_back(i);
  return out;
}

// Open loop: Poisson arrivals at `rate` for `seconds`, spread round-robin
// over the load connections. Latency runs from each arrival's due time.
bool Run::run_open_phase(double rate, double seconds, int phase,
                         bool traced) {
  std::vector<Conn*> load;
  for (auto& conn : conns_) load.push_back(conn.get());
  Driver driver(gen_, ledger_, load, opt_.trace ? &control_ : nullptr);
  const Daemon::Cpu cpu0 = daemon_->cpu();
  const double start = now_ms() + 1.0;
  const double end = start + seconds * 1000.0;
  double due = start + gen_.exponential(1000.0 / rate);
  std::size_t next_conn = 0;
  std::size_t offered = 0;
  // A backlog this deep ends the step early, well short of coold's
  // 256-deep queue, so the ladder never makes it shed.
  const std::size_t abort_backlog = 192;
  bool backlog = false;
  double next_healthz = opt_.trace ? start : end;
  while (due < end && !driver.failed()) {
    const double now = now_ms();
    if (now >= due) {
      Call call = gen_.next(0, 1);
      call.due = due;
      call.phase = phase;
      const std::size_t index =
          driver.send(std::move(call), next_conn++ % load.size(), traced);
      // Lag is judged where latency is scored: the nominal rate.
      if (rate == w_.rates[0])
        ledger_.send_lag_ms.push_back(ledger_.calls[index].sent - due);
      ++offered;
      due += gen_.exponential(1000.0 / rate);
      if (driver.outstanding() > abort_backlog) {
        backlog = true;
        break;
      }
      continue;
    }
    if (opt_.trace && now >= next_healthz) {
      driver.poll_healthz();
      next_healthz = now + 20.0;
    }
    driver.pump(std::min(due, next_healthz), [](std::size_t) {});
  }
  const double elapsed = std::max(now_ms(), start) - start;
  // Growing backlog: more requests still open when arrivals stop than a
  // latency limit's worth of arrivals (plus slack for one batch).
  backlog = backlog || static_cast<double>(driver.outstanding()) >
                           16.0 + rate * w_.limit_ms / 1000.0;
  const bool drained = driver.drain(30000.0);
  if (!drained || driver.failed()) {
    fail("phase " + std::to_string(phase) + ": " +
         std::to_string(driver.outstanding()) + " replies missing after drain" +
         (driver.failed() ? " (connection lost)" : ""));
    return false;
  }
  PhaseRecord record;
  const Daemon::Cpu cpu1 = daemon_->cpu();
  record.user_ms = cpu1.user_ms - cpu0.user_ms;
  record.system_ms = cpu1.system_ms - cpu0.system_ms;
  record.start = start;
  record.seconds = elapsed / 1000.0;
  record.rate = static_cast<double>(offered) / std::max(elapsed, 1.0) * 1000.0;
  // The step meets the limit when its p99 is within it, nothing was shed or
  // failed, and the backlog did not grow. The p99 is the median over
  // half-second slices, so one burst of host noise does not fail a step.
  std::map<long, std::vector<double>> slices;
  bool clean = !backlog;
  for (std::size_t i : window_calls(phase)) {
    const Call& call = ledger_.calls[i];
    slices[static_cast<long>((call.due - start) / 500.0)].push_back(call.latency_ms());
    clean = clean && call.decoded && call.resp.ok;
  }
  std::vector<double> slice_p99;
  for (const auto& [k, latency] : slices) slice_p99.push_back(quantile(latency, 0.99));
  record.ok = clean && median(slice_p99) <= w_.limit_ms;
  phases_.push_back(record);
  return true;
}

// Closed loop: each client keeps one request outstanding on its own
// connection and sends the next as soon as the reply arrives.
bool Run::run_closed_phase(double seconds, int phase) {
  std::vector<Conn*> load;
  for (auto& conn : conns_) load.push_back(conn.get());
  Driver driver(gen_, ledger_, load, opt_.trace ? &control_ : nullptr);
  const Daemon::Cpu cpu0 = daemon_->cpu();
  const double start = now_ms();
  const double end = start + seconds * 1000.0;
  const int clients = w_.clients;
  std::vector<int> client_of;  // by ledger index offset
  auto issue = [&](int client) {
    Call call = gen_.next(client, clients);
    call.phase = phase;
    const std::size_t index = driver.send(
        std::move(call), static_cast<std::size_t>(client),
        opt_.trace && phase % 2 == 1);
    if (client_of.size() <= index) client_of.resize(index + 1, -1);
    client_of[index] = client;
  };
  for (int c = 0; c < clients; ++c) issue(c);
  double next_healthz = opt_.trace ? start : end;
  while (now_ms() < end && !driver.failed()) {
    if (opt_.trace && now_ms() >= next_healthz) {
      driver.poll_healthz();
      next_healthz = now_ms() + 20.0;
    }
    driver.pump(std::min(end, next_healthz), [&](std::size_t index) {
      if (now_ms() < end && index < client_of.size() && client_of[index] >= 0)
        issue(client_of[index]);
    });
  }
  const bool drained = driver.drain(30000.0);
  const double elapsed = (now_ms() - start) / 1000.0;
  if (!drained || driver.failed()) {
    fail("phase " + std::to_string(phase) + ": " +
         std::to_string(driver.outstanding()) + " replies missing after drain" +
         (driver.failed() ? " (connection lost)" : ""));
    return false;
  }
  std::size_t ok = 0;
  std::vector<double> latency;
  for (std::size_t i : window_calls(phase)) {
    const Call& call = ledger_.calls[i];
    latency.push_back(call.latency_ms());
    if (call.decoded && call.resp.ok && call.latency_ms() <= w_.limit_ms) ++ok;
  }
  PhaseRecord record;
  const Daemon::Cpu cpu1 = daemon_->cpu();
  record.user_ms = cpu1.user_ms - cpu0.user_ms;
  record.system_ms = cpu1.system_ms - cpu0.system_ms;
  record.start = start;
  record.seconds = elapsed;
  record.rate = static_cast<double>(ok) / elapsed;
  record.ok = quantile(latency, 0.99) <= w_.limit_ms;
  phases_.push_back(record);
  return true;
}

bool Run::measure_window() {
  const double total = opt_.seconds;
  if (opt_.trace) {
    // Alternating untraced (even) and traced (odd) quarters at the nominal
    // load; the difference is the tracing overhead.
    for (int phase = 0; phase < 4; ++phase) {
      const bool ok = w_.open_loop
                          ? run_open_phase(w_.rates[0], total / 4.0, phase,
                                           phase % 2 == 1)
                          : run_closed_phase(total / 4.0, phase);
      if (!ok) return false;
    }
    return true;
  }
  if (!w_.open_loop) return run_closed_phase(total, 0);
  const double nominal = w_.rates.size() == 1 ? total : total * w_.nominal_share;
  if (!run_open_phase(w_.rates[0], nominal, 0, false)) return false;
  const double step = w_.rates.size() > 1
                          ? (total - nominal) / static_cast<double>(w_.rates.size() - 1)
                          : 0.0;
  for (std::size_t k = 1; k < w_.rates.size(); ++k) {
    if (!phases_.back().ok) break;  // the ladder stops at the first miss
    if (!run_open_phase(w_.rates[k], step, static_cast<int>(k), false))
      return false;
  }
  return true;
}

// Status dumps of every tenant (applied count + schedule bits), keyed by
// tenant; evicted tenants dump as "absent".
bool Run::collect_dumps(std::map<std::string, std::string>& dumps) {
  dumps.clear();
  for (const Tenant& tenant : gen_.tenants) {
    std::string reply;
    if (!control_.exchange("{\"type\":\"status\",\"network\":\"" +
                               tenant.name + "\"}",
                           reply, 30000.0))
      return false;
    const cool::svc::ResponseParse parsed = cool::svc::parse_response(reply);
    if (!parsed.ok || !parsed.response.ok) return false;
    std::string dump = "applied=" + std::to_string(parsed.response.applied);
    if (parsed.response.has_assignments) {
      for (const auto& [sensor, slot] : parsed.response.assignments)
        dump += " " + std::to_string(sensor) + ":" + std::to_string(slot);
    } else {
      dump += " absent";
    }
    dumps[tenant.name] = std::move(dump);
  }
  return true;
}

bool Run::fetch_stats() {
  std::string reply;
  if (!control_.exchange("{\"type\":\"stats\"}", reply, 30000.0)) return false;
  const cool::svc::ResponseParse parsed = cool::svc::parse_response(reply);
  if (!parsed.ok) return false;
  for (const auto& [key, value] : parsed.response.stats) stats_[key] = value;
  return true;
}

// Quiesced daemon -> dumps -> SIGKILL -> restart on the same state dir ->
// time until it answers a status read -> dumps must be equal. `timed`
// recoveries first ack a fixed number of mutations since the restart's own
// compaction, so each replays the same amount of work.
bool Run::kill_and_recover(bool timed, double& recovery_s) {
  if (timed) {
    for (int i = 0; i < w_.recovery_mutations; ++i) {
      const Tenant& tenant =
          gen_.tenants[static_cast<std::size_t>(i) % gen_.tenants.size()];
      cool::svc::Request request;
      request.type = RequestType::kSchedule;
      request.network = tenant.name;
      request.has_spec = true;
      request.spec = gen_.specs[static_cast<std::size_t>(tenant.spec)];
      std::string reply;
      if (!control_.exchange(request.to_json(), reply, 60000.0)) return false;
      const cool::svc::ResponseParse parsed = cool::svc::parse_response(reply);
      if (!parsed.ok || !parsed.response.ok) {
        fail("recovery schedule of " + tenant.name + " failed");
        return false;
      }
    }
  }
  std::map<std::string, std::string> before, after;
  if (!collect_dumps(before)) return false;
  if (!timed) peak_rss_mb_ = daemon_->peak_rss_mb();  // the window's daemon
  conns_.clear();
  control_.close();
  const double t0 = now_ms();
  daemon_->kill9();
  double probe_ms = 0.0;
  if (!timed && opt_.trace) {
    // read_wal_dir on the post-kill state dir, before the restart's
    // compaction rewrites it; not part of recovery time.
    std::vector<double> reads;
    for (int i = 0; i < 3; ++i) {
      const double r0 = now_ms();
      cool::svc::read_wal_dir(daemon_->state_dir());
      reads.push_back(now_ms() - r0);
      ledger_.spans.add("svc.wal.read_wal_dir", 0, r0, r0 + reads.back(), "layers");
      probe_ms += reads.back();
    }
    wal_read_ms_ = median(reads);
  }
  const double t1 = now_ms();
  ::unlink(socket_path().c_str());
  if (!daemon_->spawn()) return false;
  std::string reply;
  bool answered = false;
  while (now_ms() - t1 < 60000.0 && !answered) {
    if (!control_.connect(socket_path())) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    answered = control_.exchange(
        "{\"type\":\"status\",\"network\":\"" + gen_.tenants[0].name + "\"}",
        reply, 60000.0);
  }
  recovery_s = (now_ms() - t0 - probe_ms) / 1000.0;
  if (!answered) return false;
  if (!collect_dumps(after)) return false;
  for (const auto& [tenant, dump] : before) {
    if (after[tenant] != dump) fail("recovered state of " + tenant + " differs");
  }
  return open_connections();
}

// Every returned schedule is feasible, every reply's utility equals an
// offline Evaluator run of the returned schedule, and every exact-rung
// schedule equals an offline GreedyScheduler run on the same spec.
void Run::offline_checks() {
  std::vector<const Call*> checked;
  std::set<int> specs;
  for (const Call& call : ledger_.calls)
    if (call.decoded && call.resp.ok && call.resp.has_assignments) {
      checked.push_back(&call);
      specs.insert(call.spec);
    }
  const std::vector<int> spec_ids(specs.begin(), specs.end());
  // Problems and greedy schedules per spec, built on the client's pool
  // (each spec serially inside a worker, greedy's fastest configuration).
  std::vector<std::unique_ptr<cool::core::Problem>> problems(spec_ids.size());
  std::vector<std::unique_ptr<cool::core::PeriodicSchedule>> greedy(spec_ids.size());
  cool::util::parallel_chunks(spec_ids.size(), [&](std::size_t i) {
    problems[i] = std::make_unique<cool::core::Problem>(
        cool::svc::make_problem(gen_.specs[static_cast<std::size_t>(spec_ids[i])]));
    greedy[i] = std::make_unique<cool::core::PeriodicSchedule>(
        cool::core::GreedyScheduler{}.schedule(*problems[i]).schedule);
  });
  std::unordered_map<int, std::size_t> slot;
  for (std::size_t i = 0; i < spec_ids.size(); ++i) slot[spec_ids[i]] = i;

  std::vector<std::string> errors(checked.size());
  cool::util::parallel_chunks(checked.size(), [&](std::size_t k) {
    const Call& call = *checked[k];
    const std::size_t s = slot.at(call.spec);
    const cool::core::Problem& problem = *problems[s];
    try {
      const cool::core::PeriodicSchedule schedule =
          cool::svc::schedule_from_response(call.resp);
      std::string why;
      if (schedule.sensor_count() != problem.sensor_count() ||
          schedule.slots_per_period() != problem.slots_per_period() ||
          !schedule.feasible(problem, &why)) {
        errors[k] = "infeasible schedule " + why;
        return;
      }
      for (std::size_t sensor = 0; sensor < schedule.sensor_count(); ++sensor) {
        const std::size_t active = schedule.active_count(sensor);
        const bool dead = std::find(call.dead.begin(), call.dead.end(),
                                    sensor) != call.dead.end();
        if ((call.plan() && active != 1) || active > 1 || (dead && active != 0)) {
          errors[k] = "sensor " + std::to_string(sensor) + " has " +
                      std::to_string(active) + " active slots per period";
          return;
        }
      }
      if (call.type == RequestType::kStatus) return;
      cool::core::Evaluator evaluator(problem);
      const cool::core::Evaluation eval = evaluator(schedule);
      const double offline = std::accumulate(eval.slot_utilities.begin(),
                                             eval.slot_utilities.end(), 0.0);
      if (std::abs(offline - call.resp.utility) >
          1e-9 * std::max(1.0, std::abs(offline))) {
        errors[k] = "utility " + std::to_string(call.resp.utility) +
                    " != offline " + std::to_string(offline);
        return;
      }
      if (call.plan() && call.resp.degrade <= 1 && !(schedule == *greedy[s]))
        errors[k] = "exact-rung schedule differs from offline greedy";
    } catch (const std::exception& e) {
      errors[k] = e.what();
    }
  });
  for (std::size_t k = 0; k < checked.size(); ++k)
    if (!errors[k].empty())
      fail("call r" + std::to_string(checked[k]->seq) + ": " + errors[k]);

  // Exactly one reply per attempted request.
  for (const Call& call : ledger_.calls)
    if (call.replies != 1)
      fail("call r" + std::to_string(call.seq) + " got " +
           std::to_string(call.replies) + " replies");
  if (ledger_.unknown_replies > 0)
    fail(std::to_string(ledger_.unknown_replies) + " replies matched no request");
}

int Run::main() {
  ::mkdir(opt_.run_dir.c_str(), 0755);
  if (::chdir(opt_.run_dir.c_str()) != 0) {
    std::fprintf(stderr, "cannot enter run dir %s\n", opt_.run_dir.c_str());
    return 2;
  }
  // The client's own pool: 3 workers + this thread = 4 threads, all idle
  // while the daemon is being measured.
  cool::util::set_thread_count(3);
  fsync_us_ = measure_fsync_us("fsync-probe", 20);

  // Setup: fork a fresh coold and schedule every tenant, several times; the
  // last daemon stays up for the measured window.
  const int reps = opt_.trace ? 1 : w_.setup_reps;
  const std::size_t setup_calls_begin = ledger_.calls.size();
  const CpuTimes cpu0 = cpu_times();
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) std::this_thread::sleep_for(kSampleGap);
    double s = 0.0;
    if (!start_daemon(s)) {
      std::fprintf(stderr, "coold did not come up or finish setup\n");
      return 2;
    }
    setup_s_.push_back(s);
    // Setup replies of the discarded daemons are still checked, but kept
    // out of the comparison with the kept daemon's own stats.
    if (rep + 1 < reps)
      for (std::size_t i = setup_calls_begin; i < ledger_.calls.size(); ++i)
        ledger_.calls[i].phase = -2;
  }
  if (!measure_window()) {
    std::fprintf(stderr, "window could not be measured\n");
    return 2;
  }
  if (!fetch_stats()) return 2;

  // Crash drill: one recovery of the window's state (checked, not timed),
  // then timed recoveries that each replay the same fixed mutations.
  if (!kill_and_recover(false, recovery_unchecked_s_)) return 2;
  const int recoveries = opt_.trace ? 0 : w_.recovery_reps;
  for (int rep = 0; rep < recoveries; ++rep) {
    std::this_thread::sleep_for(kSampleGap);
    double s = 0.0;
    if (!kill_and_recover(true, s)) return 2;
    recovery_s_.push_back(s);
  }
  const CpuTimes cpu1 = cpu_times();
  const double stolen = cpu1.steal_ms - cpu0.steal_ms;
  steal_share_ = stolen / std::max(cpu1.busy_ms - cpu0.busy_ms + stolen, 1.0);
  if (opt_.trace) trace_layers();
  daemon_->kill9();

  offline_checks();
  report();
  return correct_ ? 0 : 1;
}

// Share of the unexplained residual allowed when the traced layer times
// account for a workload's nominal-rate latency (socket hops, thread
// wake-ups and the connection reader are not timed by any probe).
constexpr double kUnexplainedLimit = 0.25;

// Per-layer metrics for the traced run: reply-derived stage times, the
// daemon's own counters, and timed calls into each layer.
void Run::trace_layers() {
  std::vector<Metric>& out = layer_metrics_;
  std::vector<double> latency, residual, wait_commit, run, queue_ext;
  std::size_t plans = 0, floors = 0;
  for (const Call& call : ledger_.calls) {
    if (call.phase < -1 || !call.decoded || !call.resp.ok) continue;
    if (call.type != RequestType::kStatus) queue_ext.push_back(call.resp.queue_ms);
    if (call.phase < 0) continue;
    latency.push_back(call.latency_ms());
    residual.push_back(call.latency_ms() - call.resp.queue_ms);
    wait_commit.push_back(call.resp.queue_ms - call.resp.run_ms);
    run.push_back(call.resp.run_ms);
    if (call.plan()) {
      ++plans;
      if (call.resp.degrade == 2) ++floors;
    }
  }
  const std::string n = std::to_string(latency.size()) + " replies";
  const auto stat = [this](const char* key) {
    const auto it = stats_.find(key);
    return it == stats_.end() ? 0.0 : it->second;
  };
  out.push_back({"svc.server.residual_ms_p50", median(residual), "ms", n});
  out.push_back({"svc.queue.wait_commit_ms_p50", median(wait_commit), "ms", n});
  out.push_back({"svc.queue.wait_commit_ms_p99", quantile(wait_commit, 0.99), "ms", n});
  out.push_back({"svc.queue.batch_size_mean",
                 stat("wal_syncs") > 0 ? stat("wal_appends") / stat("wal_syncs") : 0.0,
                 "count", "WAL appends per sync"});
  double depth_max = 0.0;
  for (double d : ledger_.healthz_depth) depth_max = std::max(depth_max, d);
  out.push_back({"svc.queue.depth_max", depth_max, "count",
                 std::to_string(ledger_.healthz_depth.size()) + " healthz polls"});
  out.push_back({"svc.queue.shed", stat("shed"), "count", "stats verb"});
  out.push_back({"svc.session.hit_ratio", stat("session_hit_rate"), "ratio", "stats verb"});
  out.push_back({"svc.session.evictions", stat("evictions"), "count", "stats verb"});
  out.push_back({"core.floor_frac",
                 plans ? static_cast<double>(floors) / static_cast<double>(plans) : 0.0,
                 "ratio", std::to_string(plans) + " plan acks"});
  out.push_back({"core.cancelled", stat("cancelled"), "count", "stats verb"});
  out.push_back({"svc.wal.bytes_per_entry",
                 stat("wal_appends") > 0 ? stat("wal_bytes") / stat("wal_appends") : 0.0,
                 "bytes", "stats verb"});
  out.push_back({"svc.wal.read_ms", wal_read_ms_, "ms", "read_wal_dir after SIGKILL"});
  const double ext_p99 = quantile(queue_ext, 0.99);
  out.push_back({"obs.hist_p99_rel_err",
                 ext_p99 > 0 ? std::abs(stat("p99_ms") - ext_p99) / ext_p99 : 0.0,
                 "ratio", "stats p99 " + fixed(stat("p99_ms")) + " ms vs replies' queue_ms p99 " +
                              fixed(ext_p99) + " ms over " + std::to_string(queue_ext.size())});

  // Timed calls into each layer on this workload's inputs.
  probe_protocol(ledger_.request_frames, ledger_.reply_frames, ledger_.spans, out);
  std::vector<NetworkSpec> specs;
  const std::size_t stride = std::max<std::size_t>(1, gen_.tenants.size() / 8);
  for (std::size_t t = 0; t < gen_.tenants.size(); t += stride)
    specs.push_back(gen_.specs[static_cast<std::size_t>(t)]);
  probe_instances(specs, ledger_.spans, out);
  std::size_t largest = 0;
  for (std::size_t t = 0; t < gen_.tenants.size(); ++t)
    if (gen_.specs[t].sensors > gen_.specs[largest].sensors) largest = t;
  probe_core(gen_.specs[largest], cool::util::thread_count(), ledger_.spans, out);
  std::string snapshot;
  {
    std::ifstream in(cool::svc::snapshot_path(daemon_->state_dir()));
    std::stringstream buffer;
    buffer << in.rdbuf();
    snapshot = buffer.str();
  }
  probe_wal(".", snapshot, ledger_.spans, out);

  // Stage breakdown of the median request, and how much of the latency the
  // timed layers explain.
  const auto find = [&out](const char* name) {
    for (const Metric& m : out)
      if (m.name == name) return m.value;
    return 0.0;
  };
  const double lat50 = median(latency);
  const double shares[3] = {median(residual) / lat50, median(wait_commit) / lat50,
                            median(run) / lat50};
  out.push_back({"stage.server_residual_share", shares[0], "ratio", "of p50 latency"});
  out.push_back({"stage.queue_wait_commit_share", shares[1], "ratio", "of p50 latency"});
  out.push_back({"stage.core_run_share", shares[2], "ratio", "of p50 latency"});
  std::printf("stage breakdown (%s, p50 %s ms): svc.server residual %.1f%%, "
              "svc.queue wait+commit %.1f%%, core run_ms %.1f%%\n",
              w_.name.c_str(), fixed(lat50, 3).c_str(), 100.0 * shares[0],
              100.0 * shares[1], 100.0 * shares[2]);
  const double server_codec_ms =
      (find("svc.protocol.parse_request_us") + find("svc.protocol.encode_response_us")) / 1000.0;
  std::vector<double> unexplained;
  for (const Call& call : ledger_.calls) {
    if (!call.traced || !call.decoded || !call.resp.ok) continue;
    const double explained = call.resp.queue_ms + server_codec_ms +
                             (call.encode_us + call.decode_us) / 1000.0;
    unexplained.push_back((call.latency_ms() - explained) / call.latency_ms());
  }
  const double unexplained_frac = median(unexplained);
  out.push_back({"stage.unexplained_frac", unexplained_frac, "ratio",
                 std::to_string(unexplained.size()) + " traced replies"});
  if (unexplained_frac > kUnexplainedLimit)
    fail("traced layers leave " + fixed(100.0 * unexplained_frac, 1) +
         "% of nominal-rate latency unexplained (limit " +
         fixed(100.0 * kUnexplainedLimit, 0) + "%)");

  const std::string path = opt_.out_dir + "/trace-" + w_.name + "-seed" +
                           std::to_string(opt_.seed) + ".json";
  if (ledger_.spans.write_chrome(path))
    std::printf("trace: %zu spans written to %s\n", ledger_.spans.all().size(),
                path.c_str());
  else
    fail("could not write " + path);
}

// Prints the machine context, every metric with its unit and sample count,
// and the result line last.
void Run::report() {
  std::vector<Metric> metrics;
  std::size_t attempted = 0, failed = 0;
  for (const Call& call : ledger_.calls) {
    if (call.phase < 0) continue;
    ++attempted;
    if (!call.decoded || !call.resp.ok || call.replies != 1) ++failed;
  }

  // Generator lag: a run whose open-loop generator fell behind offered less
  // load than its workload names, so it is marked invalid.
  const double lag_p99 = quantile(ledger_.send_lag_ms, 0.99);
  const bool generator_ok = lag_p99 <= kLagShare * w_.limit_ms;

  const int nominal = 0;
  std::vector<std::size_t> window;
  for (std::size_t i = 0; i < ledger_.calls.size(); ++i) {
    const Call& call = ledger_.calls[i];
    const bool in_window =
        opt_.trace ? call.phase >= 0 : call.phase == nominal;
    if (in_window) window.push_back(i);
  }
  std::vector<double> latency, latency_untraced, latency_traced;
  std::size_t good = 0, plans = 0, exact = 0;
  for (std::size_t i : window) {
    const Call& call = ledger_.calls[i];
    latency.push_back(call.latency_ms());
    (call.phase % 2 == 1 ? latency_traced : latency_untraced)
        .push_back(call.latency_ms());
    const bool ok = call.decoded && call.resp.ok;
    if (ok && call.latency_ms() <= w_.limit_ms) ++good;
    if (ok && call.plan()) {
      ++plans;
      if (call.resp.degrade <= 1) ++exact;
    }
  }
  double window_s = 0.0;
  for (std::size_t p = 0; p < phases_.size(); ++p)
    if (opt_.trace || p == 0) window_s += phases_[p].seconds;
  const std::string samples = std::to_string(latency.size()) + " requests";
  const std::string tail_note =
      samples + ", " + std::to_string(beyond(latency.size(), kTailQ)) + " beyond p90";
  // The rate ladder (fleet_small): the highest step that met the limit.
  double max_ok = 0.0;
  for (const PhaseRecord& phase : phases_)
    if (phase.ok) max_ok = std::max(max_ok, phase.rate);

  // Context stamp: results from different boxes are never comparable.
  struct utsname uts {};
  ::uname(&uts);
  std::printf(
      "context: workload=%s seed=%llu nproc=%ld compiler=\"g++ %s\" "
      "build_type=%s state_fs=%s fsync_us=%s steal=%s%% kernel=%s "
      "generator=%s\n",
      w_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
      ::sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, COOLD_BENCH_BUILD_TYPE,
      filesystem_name(".").c_str(), fixed(fsync_us_, 1).c_str(),
      fixed(100.0 * steal_share_, 2).c_str(), uts.release,
      generator_ok ? "kept_up" : "fell_behind(invalid)");

  // Printed beside the gated metrics but not in the result: wall-clock
  // figures that follow the host's CPU steal (see README.md, "Host steal").
  std::vector<Metric> printed;
  if (!opt_.trace) {
    const double n = static_cast<double>(std::max<std::size_t>(latency.size(), 1));
    const PhaseRecord& window = phases_[0];
    metrics.push_back({"cpu_ms_per_req", (window.user_ms + window.system_ms) / n, "ms",
                       samples + "; daemon CPU " + fixed(window.user_ms, 0) + " ms user + " +
                           fixed(window.system_ms, 0) + " ms system"});
    metrics.push_back({"goodput_frac", static_cast<double>(good) / n, "ratio",
                       samples + ", limit " + fixed(w_.limit_ms, 0) + " ms"});
    metrics.push_back({"exact_plan_frac",
                       plans ? static_cast<double>(exact) / static_cast<double>(plans) : 0.0,
                       "ratio", std::to_string(plans) + " plan acks"});
    metrics.push_back({"setup_s", median(setup_s_), "s",
                       std::to_string(setup_s_.size()) + " forks"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb_, "MiB", "VmHWM"});
    printed.push_back({"req_p50_ms", median(latency), "ms", samples});
    printed.push_back({"req_tail_ms", quantile(latency, kTailQ), "ms", tail_note});
    printed.push_back({"req_p99_ms", quantile(latency, 0.99), "ms",
                       samples + ", " + std::to_string(beyond(latency.size(), 0.99)) +
                           " beyond p99"});
    printed.push_back({"goodput_rps", static_cast<double>(good) / std::max(window_s, 1e-9),
                       "1/s", samples + ", limit " + fixed(w_.limit_ms, 0) + " ms"});
    printed.push_back({"fail_frac",
                       attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                                 : 0.0,
                       "ratio", std::to_string(failed) + " of " + std::to_string(attempted) +
                                    " attempted"});
    printed.push_back({"recovery_s", median(recovery_s_), "s",
                       std::to_string(recovery_s_.size()) + " restarts"});
    if (phases_.size() > 1)
      printed.push_back({"max_ok_rate_rps", max_ok, "1/s",
                         std::to_string(phases_.size()) + " rate steps run"});
    printed.push_back({"client.send_lag_p99_ms", lag_p99, "ms",
                       std::string("generator ") + (generator_ok ? "kept up" : "FELL BEHIND")});
    std::printf("recovery of the window's state (replay length varies): %s s\n",
                fixed(recovery_unchecked_s_).c_str());
    for (const auto& [name, values] : {std::pair{"setup_s", &setup_s_},
                                       std::pair{"recovery_s", &recovery_s_}}) {
      std::printf("%s samples:", name);
      for (double v : *values) std::printf(" %s", fixed(v).c_str());
      std::printf("\n");
    }
  } else {
    metrics = layer_metrics_;
    const double p50_u = median(latency_untraced);
    const double p50_t = median(latency_traced);
    metrics.push_back({"client.send_lag_p99_ms", lag_p99, "ms",
                       std::to_string(ledger_.send_lag_ms.size()) + " sends"});
    metrics.push_back({"client.trace_overhead_frac",
                       p50_u > 0 ? p50_t / p50_u - 1.0 : 0.0, "ratio",
                       "traced p50 " + fixed(p50_t) + " ms vs untraced " +
                           fixed(p50_u) + " ms"});
  }
  for (const auto& [list, kind] : {std::pair{&metrics, "metric"}, std::pair{&printed, "printed"}})
    for (const Metric& m : *list)
      std::printf("%-7s %-34s %14s %-6s (%s)\n", kind, m.name.c_str(),
                  fixed(m.value, 6).c_str(), m.unit.c_str(), m.note.c_str());
  if (!generator_ok)
    std::fprintf(stderr,
                 "invalid run: generator send lag p99 %.3f ms exceeds %.3f ms "
                 "(%.0f%% of the latency limit)\n",
                 lag_p99, kLagShare * w_.limit_ms, 100.0 * kLagShare);
  std::string line = "{\"correct\":" + std::string(correct_ ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ",";
    line += "\"" + metrics[i].name + "\":{\"value\":" +
            cool::obs::json_number(metrics[i].value) + ",\"unit\":\"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace
}  // namespace coold_bench

int main(int argc, char** argv) {
  using namespace coold_bench;
  try {
    cool::util::Cli cli(argc, argv);
    Options opt;
    opt.workload = cli.get_string("workload", "");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    opt.seconds = cli.get_double("seconds", 10.0);
    opt.trace = cli.get_int("trace", 0) != 0;
    opt.coold = cli.get_string("coold", "");
    opt.run_dir = cli.get_string("run-dir", "");
    opt.out_dir = cli.get_string("out", "");
    cli.finish();
    if (opt.coold.empty() || opt.run_dir.empty() || opt.out_dir.empty())
      throw std::invalid_argument("--coold, --run-dir and --out are required");
    Run run(opt, workload_by_name(opt.workload));
    return run.main();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coold_bench_client: %s\n", e.what());
    return 2;
  }
}

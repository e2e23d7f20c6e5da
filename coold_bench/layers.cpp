#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "core/baselines.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/problem.h"
#include "core/repair.h"
#include "energy/pattern.h"
#include "net/network.h"
#include "obs/json.h"
#include "svc/session.h"
#include "svc/wal.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "wire.h"

namespace coold_bench {
namespace {

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

// Times fn() `reps` times (at least once), one span per call; returns the
// median milliseconds.
template <typename Fn>
double time_calls(Spans& spans, const char* name, int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < std::max(1, reps); ++i) {
    const double t0 = now_ms();
    fn();
    const double t1 = now_ms();
    spans.add(name, 0, t0, t1, "layers");
    ms.push_back(t1 - t0);
  }
  return median_of(ms);
}

// Repetitions so one probe spends about `budget_ms`, given one call's cost.
int reps_for(double one_call_ms, double budget_ms, int lo, int hi) {
  const double n = budget_ms / std::max(one_call_ms, 1e-3);
  return std::clamp(static_cast<int>(n), lo, hi);
}

std::string tmp_dir(const std::string& dir, const char* leaf) {
  const std::string path = dir + "/" + leaf;
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
  std::filesystem::create_directories(path, ignored);
  return path;
}

}  // namespace

void Spans::add(std::string name, std::uint64_t id, double start_ms,
                double end_ms, std::string parent) {
  spans_.push_back(
      Span{std::move(name), std::move(parent), id, start_ms, end_ms});
}

bool Spans::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << cool::obs::json_number(s.start_ms * 1000.0)
        << ",\"dur\":" << cool::obs::json_number((s.end_ms - s.start_ms) * 1000.0)
        << ",\"args\":{\"request\":" << s.id << ",\"parent\":\"" << s.parent
        << "\"}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double measure_fsync_us(const std::string& dir, int reps) {
  const std::string path = tmp_dir(dir, "wal-probe");
  cool::svc::WalWriter writer(path, /*fsync_enabled=*/true);
  cool::svc::WalEntry entry;
  entry.request.id = "probe";
  entry.request.type = cool::svc::RequestType::kReplan;
  entry.request.network = "fleet-0";
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    entry.lsn = static_cast<std::uint64_t>(i) + 1;
    const double t0 = now_ms();
    writer.append(entry);
    writer.sync();
    us.push_back((now_ms() - t0) * 1000.0);
  }
  return median_of(us);
}

void probe_protocol(const std::vector<std::string>& request_frames,
                    const std::vector<std::string>& reply_frames, Spans& spans,
                    std::vector<Metric>& out) {
  const std::string n_req = std::to_string(request_frames.size()) + " frames";
  const std::string n_rep = std::to_string(reply_frames.size()) + " frames";
  std::size_t sink = 0;
  // Per-call means over every captured frame, repeated three times (median).
  const double parse_ms = time_calls(spans, "svc.protocol.parse_request", 3, [&] {
    for (const std::string& frame : request_frames)
      sink += cool::svc::parse_request(frame).ok;
  });
  std::vector<cool::svc::Response> responses;
  double bytes = 0.0;
  for (const std::string& frame : reply_frames) {
    responses.push_back(cool::svc::parse_response(frame).response);
    bytes += static_cast<double>(frame.size());
  }
  const double encode_ms = time_calls(spans, "svc.protocol.Response::to_json", 3, [&] {
    for (const cool::svc::Response& response : responses)
      sink += response.to_json().size();
  });
  const double decode_ms = time_calls(spans, "svc.protocol.parse_response", 3, [&] {
    for (const std::string& frame : reply_frames)
      sink += cool::svc::parse_response(frame).ok;
  });
  const auto per_call_us = [](double ms, std::size_t n) {
    return n ? ms * 1000.0 / static_cast<double>(n) : 0.0;
  };
  out.push_back({"svc.protocol.parse_request_us",
                 per_call_us(parse_ms, request_frames.size()), "us", n_req});
  out.push_back({"svc.protocol.encode_response_us",
                 per_call_us(encode_ms, responses.size()), "us", n_rep});
  out.push_back({"svc.protocol.decode_response_us",
                 per_call_us(decode_ms, reply_frames.size()), "us", n_rep});
  out.push_back({"svc.protocol.response_bytes",
                 reply_frames.empty() ? 0.0 : bytes / static_cast<double>(reply_frames.size()),
                 "bytes", n_rep});
  if (sink == 0) std::fprintf(stderr, "protocol probe saw no frames\n");
}

void probe_instances(const std::vector<cool::svc::NetworkSpec>& specs,
                     Spans& spans, std::vector<Metric>& out) {
  std::vector<double> session_ms, network_ms, coverage_ms;
  for (const cool::svc::NetworkSpec& spec : specs) {
    session_ms.push_back(time_calls(spans, "svc.session.Session", 1, [&] {
      cool::svc::Session session(spec);
    }));
    // The same spec -> instance mapping as svc::make_problem, split into
    // its two stages.
    cool::net::NetworkConfig config;
    config.sensor_count = spec.sensors;
    config.target_count = spec.targets;
    config.region_side = spec.region_side;
    config.sensing_radius = spec.sensing_radius;
    config.comm_radius = spec.comm_radius;
    std::unique_ptr<cool::net::Network> network;
    network_ms.push_back(time_calls(spans, "net.make_random_network", 1, [&] {
      cool::util::Rng rng(spec.seed);
      network = std::make_unique<cool::net::Network>(
          cool::net::make_random_network(config, rng));
    }));
    cool::energy::ChargingPattern pattern;
    pattern.discharge_minutes = 15.0;
    pattern.recharge_minutes =
        15.0 * static_cast<double>(spec.slots_per_period - 1);
    coverage_ms.push_back(
        time_calls(spans, "core.Problem::detection_instance", 1, [&] {
          cool::core::Problem::detection_instance(*network, spec.detect_p,
                                                  pattern, spec.periods);
        }));
  }
  const std::string note = std::to_string(specs.size()) + " specs";
  out.push_back({"svc.session.build_ms", median_of(session_ms), "ms", note});
  out.push_back({"net.network_build_ms", median_of(network_ms), "ms", note});
  out.push_back({"net.coverage_build_ms", median_of(coverage_ms), "ms", note});
}

void probe_core(const cool::svc::NetworkSpec& spec, std::size_t threads,
                Spans& spans, std::vector<Metric>& out) {
  cool::svc::Session session(spec);
  const cool::core::Problem& problem = session.problem();
  cool::core::PlannerContext ctx;
  ctx.scratch_states = &session.scratch_states();
  ctx.arena = &session.arena();
  const std::string note = std::to_string(spec.sensors) + " sensors, " +
                           std::to_string(threads) + " threads";

  // Warm-up: session scratch and arena blocks exist after the first call.
  const double first = time_calls(spans, "core.LazyGreedyScheduler::schedule", 1, [&] {
    cool::core::LazyGreedyScheduler{}.schedule(problem, ctx);
  });
  const int reps = reps_for(first, 400.0, 3, 25);
  std::optional<cool::core::GreedyResult> lazy, greedy;
  const double lazy_ms = time_calls(spans, "core.LazyGreedyScheduler::schedule", reps, [&] {
    lazy = cool::core::LazyGreedyScheduler{}.schedule(problem, ctx);
  });
  const double greedy_ms = time_calls(spans, "core.GreedyScheduler::schedule", reps, [&] {
    greedy = cool::core::GreedyScheduler{}.schedule(problem, ctx);
  });
  const double hef_ms = time_calls(spans, "core.HefScheduler::schedule", reps, [&] {
    cool::core::HefScheduler{}.schedule(problem, ctx);
  });
  std::vector<std::uint8_t> dead(spec.sensors, 0);
  dead[spec.sensors / 3] = 1;
  dead[2 * spec.sensors / 3] = 1;
  std::optional<cool::core::RepairResult> repaired;
  const double repair_ms = time_calls(spans, "core.repair_schedule", 3, [&] {
    repaired = cool::core::repair_schedule(greedy->schedule, problem.slot_utility(), dead);
  });
  out.push_back({"core.lazy_ms", lazy_ms, "ms", note});
  out.push_back({"core.greedy_ms", greedy_ms, "ms", note});
  out.push_back({"core.hef_ms", hef_ms, "ms", note});
  out.push_back({"core.repair_ms", repair_ms, "ms", note + ", 2 dead"});
  out.push_back({"core.oracle_calls_lazy", static_cast<double>(lazy->oracle_calls), "count", note});
  out.push_back({"core.oracle_calls_greedy", static_cast<double>(greedy->oracle_calls), "count", note});
  out.push_back({"core.oracle_calls_repair", static_cast<double>(repaired->oracle_calls), "count", note});
  out.push_back({"submodular.oracle_calls_per_s",
                 static_cast<double>(greedy->oracle_calls) / (greedy_ms / 1000.0),
                 "1/s", "greedy, " + note});

  // EvalState::marginal_batch over the whole ground set, against a state
  // holding one slot's share of the sensors.
  std::unique_ptr<cool::sub::EvalState> state = problem.slot_utility().make_state();
  std::vector<std::size_t> elements(spec.sensors);
  for (std::size_t e = 0; e < elements.size(); ++e) {
    elements[e] = e;
    if (e % spec.slots_per_period == 0) state->add(e);
  }
  std::vector<double> gains(elements.size());
  const int batch_reps = 200;
  const double batch_ms = time_calls(spans, "submodular.EvalState::marginal_batch", 5, [&] {
    for (int r = 0; r < batch_reps; ++r) state->marginal_batch(elements, gains);
  });
  out.push_back({"submodular.marginal_batch_ns",
                 batch_ms * 1e6 / (batch_reps * static_cast<double>(elements.size())),
                 "ns", "per element, " + note});

  // Greedy at one thread over greedy at the client's full pool.
  cool::util::set_thread_count(1);
  const double serial_ms = time_calls(spans, "core.GreedyScheduler::schedule@1", reps, [&] {
    cool::core::GreedyScheduler{}.schedule(problem, ctx);
  });
  cool::util::set_thread_count(threads);
  out.push_back({"util.parallel.greedy_speedup", serial_ms / greedy_ms, "ratio",
                 "1 vs " + std::to_string(threads) + " threads, " +
                     std::to_string(spec.sensors) + " sensors"});
}

void probe_wal(const std::string& dir, const std::string& snapshot_json,
               Spans& spans, std::vector<Metric>& out) {
  const double t0 = now_ms();
  const double append_us = measure_fsync_us(dir, 50);
  spans.add("svc.wal.WalWriter::append+sync", 0, t0, now_ms(), "layers");
  out.push_back({"svc.wal.append_sync_us", append_us, "us", "50 appends, fsync on"});
  const std::string snap_dir = tmp_dir(dir, "snapshot-probe");
  const double snapshot_ms = time_calls(spans, "svc.wal.write_snapshot_atomic", 5, [&] {
    cool::svc::write_snapshot_atomic(snap_dir, snapshot_json);
  });
  out.push_back({"svc.wal.snapshot_ms", snapshot_ms, "ms",
                 std::to_string(snapshot_json.size()) + " bytes"});
}

}  // namespace coold_bench

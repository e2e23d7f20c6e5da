// Per-layer probes for the traced run: spans kept in memory, and timed
// calls into each layer's public functions on the workload's own inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svc/protocol.h"

namespace coold_bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count / percentile, printed on the report line
};

struct Span {
  std::string name;
  std::string parent;  // empty for a root span
  std::uint64_t id = 0;  // request sequence number (0 for layer probes)
  double start_ms = 0.0;
  double end_ms = 0.0;
};

// In-memory span store, written out once when the run ends.
class Spans {
 public:
  void add(std::string name, std::uint64_t id, double start_ms, double end_ms,
           std::string parent = {});
  const std::vector<Span>& all() const noexcept { return spans_; }
  // Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Median microseconds of one WalWriter append plus fsync, in `dir`.
double measure_fsync_us(const std::string& dir, int reps);

// svc.protocol: parse_request over the frames the client sent,
// Response::to_json and parse_response over the replies it received.
void probe_protocol(const std::vector<std::string>& request_frames,
                    const std::vector<std::string>& reply_frames, Spans& spans,
                    std::vector<Metric>& out);

// svc.session / net: Session construction, make_random_network and
// Problem::detection_instance on the workload's specs.
void probe_instances(const std::vector<cool::svc::NetworkSpec>& specs,
                     Spans& spans, std::vector<Metric>& out);

// core / submodular / util.parallel: warm planner calls with session
// scratch on `spec`, marginal_batch on its oracle, greedy's thread speedup
// at `threads` workers.
void probe_core(const cool::svc::NetworkSpec& spec, std::size_t threads,
                Spans& spans, std::vector<Metric>& out);

// svc.wal: WalWriter append + fsync and write_snapshot_atomic of
// `snapshot_json` (the resident set's snapshot) in `dir`.
void probe_wal(const std::string& dir, const std::string& snapshot_json,
               Spans& spans, std::vector<Metric>& out);

}  // namespace coold_bench

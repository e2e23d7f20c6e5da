#include "svc/protocol.h"

#include <cmath>
#include <stdexcept>

#include "obs/json.h"
#include "obs/trace.h"

namespace cool::svc {

namespace {

using obs::JsonValue;

// Validation helpers: every extractor reports by throwing ParseFailure,
// which parse_request converts into an error slug — one exit path, no
// crashes, no partially-filled requests escaping.
struct ParseFailure {
  std::string message;
};

[[noreturn]] void reject(std::string message) { throw ParseFailure{std::move(message)}; }

double number_field(const JsonValue& object, const std::string& key) {
  if (!object.at(key).is_number()) reject("field '" + key + "' must be a number");
  return object.at(key).as_number();
}

// Non-negative integer with an inclusive cap; rejects NaN, negatives,
// fractions and anything beyond the cap (resource-exhaustion guard).
std::size_t size_field(const JsonValue& object, const std::string& key,
                       std::size_t min_value, std::size_t max_value) {
  const double raw = number_field(object, key);
  if (!std::isfinite(raw) || raw < 0.0 || raw != std::floor(raw))
    reject("field '" + key + "' must be a non-negative integer");
  if (raw < static_cast<double>(min_value) ||
      raw > static_cast<double>(max_value))
    reject("field '" + key + "' out of range [" + std::to_string(min_value) +
           ", " + std::to_string(max_value) + "]");
  return static_cast<std::size_t>(raw);
}

double positive_field(const JsonValue& object, const std::string& key,
                      double max_value) {
  const double raw = number_field(object, key);
  if (!std::isfinite(raw) || raw <= 0.0 || raw > max_value)
    reject("field '" + key + "' out of range (0, " + std::to_string(max_value) +
           "]");
  return raw;
}

std::string string_field(const JsonValue& object, const std::string& key,
                         std::size_t max_bytes) {
  if (!object.at(key).is_string()) reject("field '" + key + "' must be a string");
  const std::string& value = object.at(key).as_string();
  if (value.size() > max_bytes)
    reject("field '" + key + "' longer than " + std::to_string(max_bytes) +
           " bytes");
  return value;
}

NetworkSpec spec_from_json(const JsonValue& value, const ParseLimits& limits) {
  if (!value.is_object()) reject("'spec' must be an object");
  NetworkSpec spec;
  if (value.contains("sensors"))
    spec.sensors = size_field(value, "sensors", 1, limits.max_sensors);
  if (value.contains("targets"))
    spec.targets = size_field(value, "targets", 1, limits.max_targets);
  if (value.contains("seed"))
    spec.seed = static_cast<std::uint64_t>(
        size_field(value, "seed", 0, static_cast<std::size_t>(1) << 53));
  if (value.contains("region_side"))
    spec.region_side = positive_field(value, "region_side", 1e7);
  if (value.contains("sensing_radius"))
    spec.sensing_radius = positive_field(value, "sensing_radius", 1e7);
  if (value.contains("comm_radius"))
    spec.comm_radius = positive_field(value, "comm_radius", 1e7);
  if (value.contains("p")) spec.detect_p = positive_field(value, "p", 1.0);
  if (value.contains("slots_per_period"))
    spec.slots_per_period =
        size_field(value, "slots_per_period", 3, limits.max_slots_per_period);
  if (value.contains("periods"))
    spec.periods = size_field(value, "periods", 1, limits.max_periods);
  return spec;
}

RequestType type_from_string(const std::string& text) {
  if (text == "schedule") return RequestType::kSchedule;
  if (text == "repair") return RequestType::kRepair;
  if (text == "replan") return RequestType::kReplan;
  if (text == "status") return RequestType::kStatus;
  if (text == "stats") return RequestType::kStats;
  if (text == "healthz") return RequestType::kHealthz;
  if (text == "dump") return RequestType::kDump;
  if (text == "profile") return RequestType::kProfile;
  if (text == "shutdown") return RequestType::kShutdown;
  reject("unknown request type '" + text + "'");
}

}  // namespace

const char* to_string(RequestType type) {
  switch (type) {
    case RequestType::kSchedule: return "schedule";
    case RequestType::kRepair: return "repair";
    case RequestType::kReplan: return "replan";
    case RequestType::kStatus: return "status";
    case RequestType::kStats: return "stats";
    case RequestType::kHealthz: return "healthz";
    case RequestType::kDump: return "dump";
    case RequestType::kProfile: return "profile";
    case RequestType::kShutdown: return "shutdown";
  }
  return "unknown";
}

std::optional<std::uint64_t> integer_in_range(double number, std::uint64_t lo,
                                              std::uint64_t hi) {
  if (!(number >= static_cast<double>(lo) &&
        number <= static_cast<double>(hi)) ||
      number != std::floor(number))
    return std::nullopt;
  return static_cast<std::uint64_t>(number);
}

std::string NetworkSpec::to_json() const {
  std::string out = "{";
  out += "\"sensors\":" + std::to_string(sensors);
  out += ",\"targets\":" + std::to_string(targets);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"region_side\":" + obs::json_number(region_side);
  out += ",\"sensing_radius\":" + obs::json_number(sensing_radius);
  out += ",\"comm_radius\":" + obs::json_number(comm_radius);
  out += ",\"p\":" + obs::json_number(detect_p);
  out += ",\"slots_per_period\":" + std::to_string(slots_per_period);
  out += ",\"periods\":" + std::to_string(periods);
  out += '}';
  return out;
}

std::string Request::to_json() const {
  std::string out = "{";
  out += "\"id\":\"" + obs::json_escape(id) + '"';
  out += ",\"type\":\"" + std::string(to_string(type)) + '"';
  if (!network.empty())
    out += ",\"network\":\"" + obs::json_escape(network) + '"';
  out += ",\"priority\":" + std::to_string(priority);
  if (deadline_ms > 0.0)
    out += ",\"deadline_ms\":" + obs::json_number(deadline_ms);
  if (degrade_min > 0) out += ",\"degrade_min\":" + std::to_string(degrade_min);
  if (has_spec) out += ",\"spec\":" + spec.to_json();
  if (!action.empty()) out += ",\"action\":\"" + obs::json_escape(action) + '"';
  if (sample_hz > 0) out += ",\"sample_hz\":" + std::to_string(sample_hz);
  if (!dead.empty()) {
    out += ",\"dead\":[";
    for (std::size_t i = 0; i < dead.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(dead[i]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

ParseResult request_from_json(const obs::JsonValue& value,
                              const ParseLimits& limits) {
  ParseResult result;
  try {
    if (!value.is_object()) reject("frame must be a JSON object");
    Request request;
    if (!value.contains("type")) reject("missing 'type'");
    request.type = type_from_string(string_field(value, "type", 32));
    if (value.contains("id"))
      request.id = string_field(value, "id", limits.max_id_bytes);
    if (value.contains("network"))
      request.network =
          string_field(value, "network", limits.max_network_bytes);
    if (value.contains("priority")) {
      request.priority = static_cast<int>(size_field(value, "priority", 0, 2));
    }
    if (value.contains("deadline_ms")) {
      const double raw = number_field(value, "deadline_ms");
      if (!std::isfinite(raw) || raw < 0.0 || raw > limits.max_deadline_ms)
        reject("field 'deadline_ms' out of range");
      request.deadline_ms = raw;
    }
    if (value.contains("degrade_min"))
      request.degrade_min =
          static_cast<int>(size_field(value, "degrade_min", 0, 2));
    if (value.contains("spec")) {
      request.spec = spec_from_json(value.at("spec"), limits);
      request.has_spec = true;
    }
    if (value.contains("action"))
      request.action = string_field(value, "action", 32);
    if (value.contains("sample_hz"))
      request.sample_hz =
          static_cast<int>(size_field(value, "sample_hz", 1, 10000));
    if (value.contains("dead")) {
      if (!value.at("dead").is_array()) reject("'dead' must be an array");
      const auto& items = value.at("dead").as_array();
      if (items.size() > limits.max_dead)
        reject("'dead' lists more than " + std::to_string(limits.max_dead) +
               " sensors");
      request.dead.reserve(items.size());
      for (const auto& item : items) {
        if (!item.is_number()) reject("'dead' entries must be numbers");
        const double raw = item.as_number();
        if (!std::isfinite(raw) || raw < 0.0 || raw != std::floor(raw) ||
            raw > static_cast<double>(limits.max_sensors))
          reject("'dead' entry out of range");
        request.dead.push_back(static_cast<std::size_t>(raw));
      }
    }
    // Cross-field requirements, so executors never see an ill-formed mix.
    const bool plan_type = request.type == RequestType::kSchedule ||
                           request.type == RequestType::kRepair ||
                           request.type == RequestType::kReplan;
    if (plan_type && request.network.empty())
      reject(std::string(to_string(request.type)) + " requires 'network'");
    if (request.type == RequestType::kSchedule && !request.has_spec)
      reject("schedule requires 'spec'");
    if (request.type == RequestType::kRepair && request.dead.empty())
      reject("repair requires a non-empty 'dead' list");
    if (request.type == RequestType::kProfile) {
      if (request.action != "start" && request.action != "stop" &&
          request.action != "dump" && request.action != "status")
        reject("profile requires 'action' of start|stop|dump|status");
      if (request.sample_hz > 0 && request.action != "start")
        reject("'sample_hz' only applies to profile start");
    }
    result.ok = true;
    result.request = std::move(request);
  } catch (const ParseFailure& failure) {
    result.ok = false;
    result.error = "bad_request: " + failure.message;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = std::string("bad_request: ") + e.what();
  }
  return result;
}

NetworkSpec network_spec_from_json(const obs::JsonValue& value,
                                   const ParseLimits& limits) {
  try {
    return spec_from_json(value, limits);
  } catch (const ParseFailure& failure) {
    throw std::runtime_error("bad spec: " + failure.message);
  }
}

ParseResult parse_request(std::string_view frame, const ParseLimits& limits) {
  ParseResult result;
  if (frame.size() > limits.max_frame_bytes) {
    result.error = "frame_too_large: " + std::to_string(frame.size()) +
                   " bytes (cap " + std::to_string(limits.max_frame_bytes) +
                   ")";
    return result;
  }
  JsonValue value;
  try {
    // obs/json bounds nesting depth and rejects truncated frames, overflow
    // numbers and broken escapes with exceptions — caught here, so hostile
    // bytes land as an error response instead of a dead daemon.
    value = obs::parse_json(frame);
  } catch (const std::exception& e) {
    result.error = std::string("bad_json: ") + e.what();
    return result;
  }
  return request_from_json(value, limits);
}

std::string Response::to_json() const {
  std::string out = "{";
  out += "\"id\":\"" + obs::json_escape(id) + '"';
  out += std::string(",\"ok\":") + (ok ? "true" : "false");
  out += ",\"type\":\"" + obs::json_escape(type) + '"';
  if (!network.empty())
    out += ",\"network\":\"" + obs::json_escape(network) + '"';
  if (!ok) {
    out += ",\"error\":\"" + obs::json_escape(error) + '"';
    if (retry_after_ms > 0.0)
      out += ",\"retry_after_ms\":" + obs::json_number(retry_after_ms);
  }
  if (degrade >= 0) {
    out += ",\"degrade\":" + std::to_string(degrade);
    out += ",\"planner\":\"" + obs::json_escape(planner) + '"';
    out += ",\"utility\":" + obs::json_number(utility);
    out += ",\"oracle_calls\":" + std::to_string(oracle_calls);
  }
  if (has_assignments) {
    out += ",\"sensors\":" + std::to_string(sensors);
    out += ",\"slots_per_period\":" + std::to_string(slots_per_period);
    out += ",\"applied\":" + std::to_string(applied);
    out += ",\"assignments\":[";
    for (std::size_t i = 0; i < assignments.size(); ++i) {
      if (i) out += ',';
      out += '[' + std::to_string(assignments[i].first) + ',' +
             std::to_string(assignments[i].second) + ']';
    }
    out += ']';
  }
  if (queue_ms > 0.0) out += ",\"queue_ms\":" + obs::json_number(queue_ms);
  if (run_ms > 0.0) out += ",\"run_ms\":" + obs::json_number(run_ms);
  if (lsn > 0) out += ",\"lsn\":" + std::to_string(lsn);
  if (trace != 0) out += ",\"trace\":\"" + obs::format_trace_id(trace) + '"';
  if (!detail.empty())
    out += ",\"detail\":\"" + obs::json_escape(detail) + '"';
  if (!stats.empty()) {
    out += ",\"stats\":{";
    for (std::size_t i = 0; i < stats.size(); ++i) {
      if (i) out += ',';
      out += '"' + obs::json_escape(stats[i].first) +
             "\":" + obs::json_number(stats[i].second);
    }
    out += '}';
  }
  if (!tenants.empty()) {
    out += ",\"tenants\":{";
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      if (t) out += ',';
      out += '"' + obs::json_escape(tenants[t].first) + "\":{";
      const auto& fields = tenants[t].second;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i) out += ',';
        out += '"' + obs::json_escape(fields[i].first) +
               "\":" + obs::json_number(fields[i].second);
      }
      out += '}';
    }
    out += '}';
  }
  if (!provenance_json.empty()) out += ",\"provenance\":" + provenance_json;
  out += '}';
  return out;
}

ResponseParse parse_response(std::string_view frame,
                             const ParseLimits& limits) {
  ResponseParse result;
  if (frame.size() > limits.max_frame_bytes) {
    result.error = "frame_too_large";
    return result;
  }
  try {
    const JsonValue value = obs::parse_json(frame);
    if (!value.is_object()) {
      result.error = "bad_response: not an object";
      return result;
    }
    Response& response = result.response;
    // Integer members must be exact and in range; anything else rejects the
    // whole frame instead of reaching an undefined cast.
    const auto integer = [](const JsonValue& number, std::uint64_t lo,
                            std::uint64_t hi) {
      const auto parsed = integer_in_range(number.as_number(), lo, hi);
      if (!parsed) throw std::runtime_error("integer field out of range");
      return *parsed;
    };
    const auto count = [&](const JsonValue& number) {
      return static_cast<std::size_t>(integer(number, 0, kMaxJsonInteger));
    };
    if (value.contains("id")) response.id = value.at("id").as_string();
    if (value.contains("ok")) response.ok = value.at("ok").as_bool();
    if (value.contains("type")) response.type = value.at("type").as_string();
    if (value.contains("network"))
      response.network = value.at("network").as_string();
    if (value.contains("error")) response.error = value.at("error").as_string();
    if (value.contains("retry_after_ms"))
      response.retry_after_ms = value.at("retry_after_ms").as_number();
    if (value.contains("degrade"))
      response.degrade = static_cast<int>(integer(value.at("degrade"), 0, 2));
    if (value.contains("planner"))
      response.planner = value.at("planner").as_string();
    if (value.contains("utility"))
      response.utility = value.at("utility").as_number();
    if (value.contains("oracle_calls"))
      response.oracle_calls = count(value.at("oracle_calls"));
    if (value.contains("sensors")) response.sensors = count(value.at("sensors"));
    if (value.contains("slots_per_period"))
      response.slots_per_period = count(value.at("slots_per_period"));
    if (value.contains("applied")) response.applied = count(value.at("applied"));
    if (value.contains("assignments")) {
      response.has_assignments = true;
      for (const auto& pair : value.at("assignments").as_array()) {
        const auto& cells = pair.as_array();
        if (cells.size() != 2) throw std::runtime_error("bad assignment pair");
        response.assignments.emplace_back(count(cells[0]), count(cells[1]));
      }
    }
    if (value.contains("queue_ms"))
      response.queue_ms = value.at("queue_ms").as_number();
    if (value.contains("run_ms")) response.run_ms = value.at("run_ms").as_number();
    if (value.contains("lsn"))
      response.lsn = integer(value.at("lsn"), 1, kMaxJsonInteger);
    if (value.contains("trace"))
      response.trace = obs::parse_trace_id(value.at("trace").as_string());
    if (value.contains("detail"))
      response.detail = value.at("detail").as_string();
    if (value.contains("stats")) {
      for (const auto& [key, stat] : value.at("stats").as_object())
        response.stats.emplace_back(key, stat.as_number());
    }
    if (value.contains("tenants")) {
      for (const auto& [tenant, block] : value.at("tenants").as_object()) {
        std::vector<std::pair<std::string, double>> fields;
        for (const auto& [key, stat] : block.as_object())
          fields.emplace_back(key, stat.as_number());
        response.tenants.emplace_back(tenant, std::move(fields));
      }
    }
    if (value.contains("provenance"))
      response.provenance_json = "present";  // raw text not reconstructed
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = std::string("bad_response: ") + e.what();
  }
  return result;
}

core::PeriodicSchedule schedule_from_response(const Response& response) {
  if (!response.has_assignments || response.sensors == 0 ||
      response.slots_per_period == 0)
    throw std::runtime_error("response carries no schedule");
  core::PeriodicSchedule schedule(response.sensors, response.slots_per_period);
  for (const auto& [sensor, slot] : response.assignments) {
    if (sensor >= response.sensors || slot >= response.slots_per_period)
      throw std::runtime_error("assignment out of range");
    schedule.set_active(sensor, slot);
  }
  return schedule;
}

}  // namespace cool::svc

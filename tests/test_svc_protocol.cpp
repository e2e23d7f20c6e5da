// Adversarial coverage for the coold wire parser: the daemon faces
// untrusted bytes, so every malformed shape must land as a ParseResult
// error — never an exception escaping parse_request, never a crash, and
// never a partially-validated request reaching an executor.
#include <gtest/gtest.h>

#include <string>

#include "svc/protocol.h"

namespace cool {
namespace {

using svc::ParseLimits;
using svc::ParseResult;
using svc::Request;
using svc::RequestType;
using svc::Response;

TEST(SvcProtocol, ParsesMinimalStatus) {
  const ParseResult result = svc::parse_request("{\"type\":\"status\"}");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.request.type, RequestType::kStatus);
}

TEST(SvcProtocol, ParsesFullScheduleRequest) {
  const ParseResult result = svc::parse_request(
      "{\"id\":\"r1\",\"type\":\"schedule\",\"network\":\"t1\","
      "\"priority\":0,\"deadline_ms\":250,\"spec\":{\"sensors\":20,"
      "\"targets\":30,\"seed\":9,\"slots_per_period\":3,\"periods\":5,"
      "\"p\":0.5}}");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.request.spec.sensors, 20u);
  EXPECT_EQ(result.request.spec.slots_per_period, 3u);
  EXPECT_DOUBLE_EQ(result.request.spec.detect_p, 0.5);
}

TEST(SvcProtocol, RequestJsonRoundTrips) {
  Request request;
  request.id = "weird \"id\" with\\escapes";
  request.type = RequestType::kRepair;
  request.network = "tenant-7";
  request.priority = 2;
  request.deadline_ms = 125.5;
  request.degrade_min = 1;
  request.dead = {3, 17};
  const ParseResult result = svc::parse_request(request.to_json());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.request.id, request.id);
  EXPECT_EQ(result.request.type, RequestType::kRepair);
  EXPECT_EQ(result.request.dead, request.dead);
  EXPECT_EQ(result.request.degrade_min, 1);
}

TEST(SvcProtocol, ProfileRequestRoundTripsAndValidates) {
  Request request;
  request.id = "prof-1";
  request.type = RequestType::kProfile;
  request.action = "start";
  request.sample_hz = 499;
  const ParseResult result = svc::parse_request(request.to_json());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.request.type, RequestType::kProfile);
  EXPECT_EQ(result.request.action, "start");
  EXPECT_EQ(result.request.sample_hz, 499);

  // The verb needs a recognized action; sample_hz only rides on start and
  // must stay inside the sampler's accepted range.
  EXPECT_FALSE(svc::parse_request("{\"type\":\"profile\"}").ok);
  EXPECT_FALSE(
      svc::parse_request("{\"type\":\"profile\",\"action\":\"fly\"}").ok);
  EXPECT_FALSE(svc::parse_request(
                   "{\"type\":\"profile\",\"action\":\"stop\",\"sample_hz\":99}")
                   .ok)
      << "sample_hz on a non-start action";
  EXPECT_FALSE(svc::parse_request(
                   "{\"type\":\"profile\",\"action\":\"start\",\"sample_hz\":0}")
                   .ok);
  EXPECT_FALSE(svc::parse_request("{\"type\":\"profile\",\"action\":\"start\","
                                  "\"sample_hz\":20000}")
                   .ok);
  for (const char* action : {"start", "stop", "dump", "status"}) {
    const ParseResult parsed = svc::parse_request(
        std::string("{\"type\":\"profile\",\"action\":\"") + action + "\"}");
    EXPECT_TRUE(parsed.ok) << parsed.error;
  }
}

TEST(SvcProtocol, RejectsNonObjectAndGarbage) {
  for (const char* frame :
       {"", "   ", "not json", "42", "[1,2,3]", "\"string\"", "null",
        "{\"type\":\"status\"", "{\"type\":", "{", "}", "\x01\x02\xff"}) {
    const ParseResult result = svc::parse_request(frame);
    EXPECT_FALSE(result.ok) << "accepted: " << frame;
    EXPECT_FALSE(result.error.empty());
  }
}

TEST(SvcProtocol, RejectsDepthFlood) {
  // 4096 nested arrays: obs/json bounds recursion, so this must come back
  // as an error, not a stack overflow.
  std::string flood;
  for (int i = 0; i < 4096; ++i) flood += '[';
  const ParseResult result = svc::parse_request(flood);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("bad_json"), std::string::npos);
}

TEST(SvcProtocol, RejectsOversizedFrameBeforeParsing) {
  std::string frame = "{\"type\":\"status\",\"pad\":\"";
  frame.append(128 * 1024, 'x');
  frame += "\"}";
  const ParseResult result = svc::parse_request(frame);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("frame_too_large"), std::string::npos);
}

TEST(SvcProtocol, RejectsResourceExhaustionShapes) {
  // Each of these asks for an absurd instance; the parser's caps refuse
  // them before any allocation happens.
  for (const char* frame :
       {"{\"type\":\"schedule\",\"network\":\"x\",\"spec\":{\"sensors\":1000000000}}",
        "{\"type\":\"schedule\",\"network\":\"x\",\"spec\":{\"targets\":1e18}}",
        "{\"type\":\"schedule\",\"network\":\"x\",\"spec\":{\"slots_per_period\":9999}}",
        "{\"type\":\"schedule\",\"network\":\"x\",\"spec\":{\"periods\":1e15}}",
        "{\"type\":\"status\",\"deadline_ms\":1e18}"}) {
    const ParseResult result = svc::parse_request(frame);
    EXPECT_FALSE(result.ok) << "accepted: " << frame;
  }
}

TEST(SvcProtocol, RejectsNonIntegerAndNegativeSizes) {
  for (const char* frame :
       {"{\"type\":\"schedule\",\"network\":\"x\",\"spec\":{\"sensors\":-5}}",
        "{\"type\":\"schedule\",\"network\":\"x\",\"spec\":{\"sensors\":2.5}}",
        "{\"type\":\"schedule\",\"network\":\"x\",\"spec\":{\"sensors\":\"40\"}}",
        "{\"type\":\"repair\",\"network\":\"x\",\"dead\":[-1]}",
        "{\"type\":\"repair\",\"network\":\"x\",\"dead\":[1.5]}",
        "{\"type\":\"repair\",\"network\":\"x\",\"dead\":[\"3\"]}"}) {
    const ParseResult result = svc::parse_request(frame);
    EXPECT_FALSE(result.ok) << "accepted: " << frame;
  }
}

TEST(SvcProtocol, RejectsTinySlotsPerPeriod) {
  // T < 3 would leave rho <= 1 and break the ladder's greedy contract.
  const ParseResult result = svc::parse_request(
      "{\"type\":\"schedule\",\"network\":\"x\",\"spec\":{\"slots_per_period\":2}}");
  EXPECT_FALSE(result.ok);
}

TEST(SvcProtocol, EnforcesCrossFieldRequirements) {
  EXPECT_FALSE(svc::parse_request("{\"type\":\"schedule\",\"network\":\"x\"}").ok)
      << "schedule without spec";
  EXPECT_FALSE(svc::parse_request(
                   "{\"type\":\"schedule\",\"spec\":{\"sensors\":10}}")
                   .ok)
      << "schedule without network";
  EXPECT_FALSE(svc::parse_request("{\"type\":\"repair\",\"network\":\"x\"}").ok)
      << "repair without dead list";
  EXPECT_FALSE(svc::parse_request("{\"type\":\"replan\"}").ok)
      << "replan without network";
  EXPECT_FALSE(svc::parse_request("{\"type\":\"sched\"}").ok) << "unknown type";
}

TEST(SvcProtocol, RejectsOverlongStrings) {
  ParseLimits limits;
  std::string id(limits.max_id_bytes + 1, 'a');
  EXPECT_FALSE(
      svc::parse_request("{\"type\":\"status\",\"id\":\"" + id + "\"}").ok);
  std::string network(limits.max_network_bytes + 1, 'n');
  EXPECT_FALSE(svc::parse_request(
                   "{\"type\":\"replan\",\"network\":\"" + network + "\"}")
                   .ok);
}

TEST(SvcProtocol, RejectsTooManyDeadSensors) {
  ParseLimits limits;
  limits.max_dead = 4;
  std::string frame = "{\"type\":\"repair\",\"network\":\"x\",\"dead\":[1,2,3,4,5]}";
  EXPECT_FALSE(svc::parse_request(frame, limits).ok);
}

TEST(SvcProtocol, ResponseRoundTripsThroughParse) {
  Response response;
  response.id = "r9";
  response.ok = true;
  response.type = "schedule";
  response.network = "t1";
  response.degrade = 2;
  response.planner = "hef";
  response.utility = 12.5;
  response.oracle_calls = 321;
  response.has_assignments = true;
  response.sensors = 4;
  response.slots_per_period = 3;
  response.assignments = {{0, 1}, {1, 0}, {2, 2}, {3, 1}};
  response.lsn = 17;
  const svc::ResponseParse parsed = svc::parse_response(response.to_json());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(parsed.response.ok);
  EXPECT_EQ(parsed.response.degrade, 2);
  EXPECT_EQ(parsed.response.planner, "hef");
  EXPECT_EQ(parsed.response.assignments, response.assignments);
  EXPECT_EQ(parsed.response.lsn, 17u);
}

TEST(SvcProtocol, ScheduleFromResponseValidatesShape) {
  Response response;
  response.has_assignments = true;
  response.sensors = 3;
  response.slots_per_period = 3;
  response.assignments = {{0, 0}, {1, 2}};
  const core::PeriodicSchedule schedule = svc::schedule_from_response(response);
  EXPECT_TRUE(schedule.active(0, 0));
  EXPECT_TRUE(schedule.active(1, 2));
  EXPECT_FALSE(schedule.active(2, 0));

  response.assignments.push_back({7, 0});  // sensor out of range
  EXPECT_THROW(svc::schedule_from_response(response), std::runtime_error);
  response.assignments.back() = {0, 9};  // slot out of range
  EXPECT_THROW(svc::schedule_from_response(response), std::runtime_error);
}

TEST(SvcProtocol, ParseResponseToleratesGarbage) {
  EXPECT_FALSE(svc::parse_response("nope").ok);
  EXPECT_FALSE(svc::parse_response("{\"ok\":").ok);
  EXPECT_FALSE(svc::parse_response("[]").ok);
}

TEST(SvcProtocol, ParseResponseRejectsNonIntegralOrOutOfRangeIntegers) {
  // Rejected, never cast: a double -> integer cast of an out-of-range value
  // is undefined behaviour, and a fraction is not a count.
  for (const char* member :
       {"\"lsn\":-3", "\"lsn\":1e300", "\"lsn\":2.5", "\"lsn\":0",
        "\"degrade\":1e300", "\"degrade\":7.5", "\"degrade\":7",
        "\"degrade\":-1", "\"oracle_calls\":-1", "\"sensors\":1e300",
        "\"applied\":0.5", "\"assignments\":[[1e300,0]]",
        "\"assignments\":[[0,-2]]"}) {
    const std::string frame =
        std::string("{\"id\":\"r\",\"ok\":true,") + member + "}";
    EXPECT_FALSE(svc::parse_response(frame).ok) << frame;
  }
  // In-range values still parse, up to lsn 2^53.
  EXPECT_TRUE(
      svc::parse_response("{\"degrade\":1,\"lsn\":9007199254740992}").ok);
}

}  // namespace
}  // namespace cool

// fleet_msg_test.cpp — the fleet control protocol's wire format:
// format/parse round trips for every message type, first-key
// discrimination against the heartbeat and record streams, fault-spec
// parsing, strictness against mangled lines, and the lease-ledger
// events.
#include <gtest/gtest.h>

#include "shard/fleet_msg.hpp"

namespace dsm::shard {
namespace {

TEST(FaultKindTest, NamesRoundTrip) {
  for (const FaultKind k :
       {FaultKind::kWorkerExit, FaultKind::kWorkerHang,
        FaultKind::kTruncatedRecord, FaultKind::kDroppedHeartbeat}) {
    const auto back = fault_from_name(fault_name(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(fault_from_name("segfault").has_value());
  EXPECT_FALSE(fault_from_name("").has_value());
}

TEST(FaultSpecTest, ParsesKindAtIndex) {
  FaultKind kind = FaultKind::kNone;
  std::size_t spec = 0;
  ASSERT_TRUE(parse_fault_spec("worker-exit@3", &kind, &spec));
  EXPECT_EQ(kind, FaultKind::kWorkerExit);
  EXPECT_EQ(spec, 3u);
  ASSERT_TRUE(parse_fault_spec("dropped-heartbeat@0", &kind, &spec));
  EXPECT_EQ(kind, FaultKind::kDroppedHeartbeat);
  EXPECT_EQ(spec, 0u);

  EXPECT_FALSE(parse_fault_spec("worker-exit", &kind, &spec));
  EXPECT_FALSE(parse_fault_spec("worker-exit@", &kind, &spec));
  EXPECT_FALSE(parse_fault_spec("worker-exit@x", &kind, &spec));
  EXPECT_FALSE(parse_fault_spec("@3", &kind, &spec));
  EXPECT_FALSE(parse_fault_spec("rm-rf@3", &kind, &spec));
}

TEST(FleetMsgTest, HelloRoundTrips) {
  const std::string line = format_hello("fig2_bbv_baseline", 48);
  ASSERT_TRUE(is_fleet_msg(line));
  const auto msg = parse_fleet_msg(line);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, FleetMsg::Type::kHello);
  EXPECT_EQ(msg->bench, "fig2_bbv_baseline");
  EXPECT_EQ(msg->total, 48u);
}

TEST(FleetMsgTest, HelloWithEscapedBenchRoundTrips) {
  // Every escape json_escape emits: quote, backslash, newline, tab.
  const std::string odd = "a\"b\\c\nd\te";
  const std::string line = format_hello(odd, 3);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto msg = parse_fleet_msg(line);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->bench, odd);
  EXPECT_EQ(msg->total, 3u);
}

TEST(FleetMsgTest, PullWelcomeFinRoundTrip) {
  const auto pull = parse_fleet_msg(format_pull());
  ASSERT_TRUE(pull.has_value());
  EXPECT_EQ(pull->type, FleetMsg::Type::kPull);

  const auto welcome = parse_fleet_msg(format_welcome(7, 250));
  ASSERT_TRUE(welcome.has_value());
  EXPECT_EQ(welcome->type, FleetMsg::Type::kWelcome);
  EXPECT_EQ(welcome->worker, 7u);
  EXPECT_EQ(welcome->hb_ms, 250u);

  const auto fin = parse_fleet_msg(format_fin());
  ASSERT_TRUE(fin.has_value());
  EXPECT_EQ(fin->type, FleetMsg::Type::kFin);
}

TEST(FleetMsgTest, LeaseRoundTripsWithAndWithoutFault) {
  const auto plain = parse_fleet_msg(format_lease(4, 8));
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->type, FleetMsg::Type::kLease);
  EXPECT_EQ(plain->lo, 4u);
  EXPECT_EQ(plain->hi, 8u);
  EXPECT_EQ(plain->fault, FaultKind::kNone);

  const auto armed = parse_fleet_msg(
      format_lease(0, 6, FaultKind::kTruncatedRecord, 5));
  ASSERT_TRUE(armed.has_value());
  EXPECT_EQ(armed->fault, FaultKind::kTruncatedRecord);
  EXPECT_EQ(armed->fault_spec, 5u);
}

TEST(FleetMsgTest, DiscriminatesAgainstOtherStreams) {
  // The wire carries three line kinds; only "fleet" lines are control.
  EXPECT_TRUE(is_fleet_msg("{\"fleet\":\"pull\"}"));
  EXPECT_FALSE(is_fleet_msg("{\"hb\":1,\"bench\":\"x\"}"));
  EXPECT_FALSE(is_fleet_msg("{\"v\":2,\"bench\":\"x\"}"));
  EXPECT_FALSE(is_fleet_msg(""));
}

TEST(FleetMsgTest, RejectsMangledLines) {
  EXPECT_FALSE(parse_fleet_msg("{\"fleet\":\"nonsense\"}").has_value());
  EXPECT_FALSE(parse_fleet_msg("{\"fleet\":\"lease\",\"lo\":1}").has_value());
  EXPECT_FALSE(parse_fleet_msg("{\"fleet\":\"pull\"").has_value());
  EXPECT_FALSE(parse_fleet_msg("{\"fleet\":\"pull\"} trailing").has_value());
  EXPECT_FALSE(
      parse_fleet_msg("{\"fleet\":\"lease\",\"lo\":-1,\"hi\":2}").has_value());
}

TEST(LeaseEventTest, RoundTripsEveryField) {
  LeaseEvent ev;
  ev.worker = 3;
  ev.state = "leased";
  ev.lo = 10;
  ev.hi = 14;
  ev.retries = 2;
  ev.wall_ms = 12345;
  const std::string line = format_lease_event(ev);
  LeaseEvent back;
  ASSERT_TRUE(parse_lease_event(line, &back));
  EXPECT_EQ(back.worker, 3u);
  EXPECT_EQ(back.state, "leased");
  EXPECT_EQ(back.lo, 10u);
  EXPECT_EQ(back.hi, 14u);
  EXPECT_EQ(back.retries, 2u);
  EXPECT_EQ(back.wall_ms, 12345u);
}

TEST(LeaseEventTest, EscapedStateRoundTrips) {
  LeaseEvent ev;
  ev.state = "a\"b\\c\nd\te";
  const std::string line = format_lease_event(ev);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  LeaseEvent back;
  ASSERT_TRUE(parse_lease_event(line, &back));
  EXPECT_EQ(back.state, ev.state);
}

TEST(LeaseEventTest, RejectsNonLedgerLines) {
  LeaseEvent ev;
  EXPECT_FALSE(parse_lease_event("{\"hb\":1}", &ev));
  EXPECT_FALSE(parse_lease_event("", &ev));
  EXPECT_FALSE(parse_lease_event("{\"ls\":1,\"worker\":0}", &ev));
}

}  // namespace
}  // namespace dsm::shard

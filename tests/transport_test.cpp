#include <gtest/gtest.h>

#include "net/transport.hpp"

namespace rbc::net {
namespace {

TEST(LatencyModel, FixedLatency) {
  LatencyModel m(0.15);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(m.sample(), 0.15);
}

TEST(LatencyModel, RejectsNegative) {
  EXPECT_THROW(LatencyModel(-0.1), rbc::CheckFailure);
}

TEST(Channel, RealtimeModeSleepsTheChargedLatency) {
  // Lower-bound-only assertions: the sleep must be at least the charged
  // time; scheduler overshoot is unbounded and must not fail the test.
  LatencyModel model(0.02);
  model.set_realtime(true);
  Channel a{model};
  Channel b{model};
  Channel::connect(a, b);

  const auto start = std::chrono::steady_clock::now();
  a.send(Message{HandshakeRequest{}});
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(wall, 0.02);
  EXPECT_DOUBLE_EQ(a.elapsed_s(), 0.02);
  EXPECT_DOUBLE_EQ(b.elapsed_s(), 0.02);
}

TEST(Channel, ChargeLinkTimeChargesBothEndsAndSleepsOnce) {
  LatencyModel model(0.0);
  model.set_realtime(true);
  Channel a{model};
  Channel b{model};
  Channel::connect(a, b);

  const auto start = std::chrono::steady_clock::now();
  a.charge_link_time(0.03);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Both logical clocks advance by the wait, but wall time is spent once —
  // a single co-simulated driver sits out the timeout for both endpoints.
  EXPECT_DOUBLE_EQ(a.elapsed_s(), 0.03);
  EXPECT_DOUBLE_EQ(b.elapsed_s(), 0.03);
  EXPECT_GE(wall, 0.03);
  EXPECT_THROW(a.charge_link_time(-0.1), rbc::CheckFailure);
}

TEST(Channel, ChargeLinkTimeWithoutPeerThrows) {
  Channel a{LatencyModel(0.0)};
  EXPECT_THROW(a.charge_link_time(0.1), rbc::CheckFailure);
}

TEST(Channel, SendReceiveRoundTrip) {
  Channel client{LatencyModel(0.15)};
  Channel server{LatencyModel(0.15)};
  Channel::connect(client, server);

  HandshakeRequest req;
  req.device_id = 99;
  client.send(Message{req});
  ASSERT_TRUE(server.has_message());
  auto msg = server.receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get<HandshakeRequest>(msg.value()).device_id, 99u);
}

TEST(Channel, AccountsLatencyOnBothEndpoints) {
  Channel client{LatencyModel(0.15)};
  Channel server{LatencyModel(0.15)};
  Channel::connect(client, server);

  client.send(Message{HandshakeRequest{}});
  server.send(Message{Challenge{}});
  EXPECT_DOUBLE_EQ(client.elapsed_s(), 0.30);
  EXPECT_DOUBLE_EQ(server.elapsed_s(), 0.30);
}

TEST(Channel, PaperCommBudgetReproduced) {
  // 4 messages x 0.15 s + 0.30 s PUF read = 0.90 s (Table 5 comm budget).
  Channel client{LatencyModel(0.15)};
  Channel server{LatencyModel(0.15)};
  Channel::connect(client, server);

  client.send(Message{HandshakeRequest{}});        // 1
  server.send(Message{Challenge{}});               // 2
  client.charge_local_time(0.30);                  // PUF read over USB
  DigestSubmission digest;
  digest.digest.assign(32, 0);
  client.send(Message{digest});                    // 3
  server.send(Message{AuthResult{}});              // 4
  EXPECT_DOUBLE_EQ(client.elapsed_s(), 0.90);
}

TEST(Channel, MessagesDeliveredInOrder) {
  Channel a{LatencyModel(0.0)};
  Channel b{LatencyModel(0.0)};
  Channel::connect(a, b);
  for (u32 addr = 0; addr < 5; ++addr) {
    Challenge c;
    c.puf_address = addr;
    a.send(Message{c});
  }
  for (u32 addr = 0; addr < 5; ++addr) {
    auto m = b.receive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(std::get<Challenge>(m.value()).puf_address, addr);
  }
  EXPECT_FALSE(b.has_message());
}

TEST(Channel, ReceiveOnEmptyThrows) {
  Channel a{LatencyModel(0.0)};
  EXPECT_THROW(a.receive(), rbc::CheckFailure);
}

TEST(Channel, SendWithoutPeerThrows) {
  Channel a{LatencyModel(0.0)};
  EXPECT_THROW(a.send(Message{HandshakeRequest{}}), rbc::CheckFailure);
}

TEST(Channel, CorruptFrameSurfacesWireError) {
  Channel a{LatencyModel(0.0)};
  a.inject_raw(Bytes{0xff, 0x01, 0x02});
  auto m = a.receive();
  ASSERT_FALSE(m.has_value());
  EXPECT_EQ(m.error(), WireError::kUnknownTag);
}

TEST(Channel, ChargeLocalTimeValidation) {
  Channel a{LatencyModel(0.0)};
  a.charge_local_time(0.5);
  EXPECT_DOUBLE_EQ(a.elapsed_s(), 0.5);
  EXPECT_THROW(a.charge_local_time(-1.0), rbc::CheckFailure);
}

}  // namespace
}  // namespace rbc::net

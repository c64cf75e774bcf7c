// Simulated network: delivery, latency, loss, failure injection, accounting.
#include "sim/network.h"

#include <gtest/gtest.h>

#include <vector>

namespace geogrid::sim {
namespace {

struct Recorder : Process {
  std::vector<std::pair<NodeId, net::MsgType>> received;
  std::vector<Time> times;
  EventLoop* loop = nullptr;

  void on_message(NodeId from, const net::Message& msg) override {
    received.emplace_back(from, net::message_type(msg));
    if (loop) times.push_back(loop->now());
  }
};

TEST(Network, DeliversWithLatency) {
  EventLoop loop;
  Network net(loop, Rng(1));
  Recorder a, b;
  b.loop = &loop;
  net.attach(NodeId{1}, a, Point{0, 0});
  net.attach(NodeId{2}, b, Point{10, 0});
  net.send(NodeId{1}, NodeId{2}, net::HeartbeatAck{RegionId{5}});
  loop.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, (NodeId{1}));
  EXPECT_EQ(b.received[0].second, net::MsgType::kHeartbeatAck);
  EXPECT_GT(b.times[0], 0.0);  // latency is never zero
}

TEST(Network, FartherNodesSeeHigherBaseLatency) {
  EventLoop loop;
  Network::Options opt;
  opt.latency.jitter_seconds = 0.0;  // deterministic
  Network net(loop, Rng(1), opt);
  Recorder near, far;
  near.loop = &far == &near ? nullptr : &loop;
  near.loop = &loop;
  far.loop = &loop;
  Recorder src;
  net.attach(NodeId{1}, src, Point{0, 0});
  net.attach(NodeId{2}, near, Point{1, 0});
  net.attach(NodeId{3}, far, Point{60, 0});
  net.send(NodeId{1}, NodeId{2}, net::HeartbeatAck{RegionId{1}});
  net.send(NodeId{1}, NodeId{3}, net::HeartbeatAck{RegionId{1}});
  loop.run();
  ASSERT_EQ(near.times.size(), 1u);
  ASSERT_EQ(far.times.size(), 1u);
  EXPECT_LT(near.times[0], far.times[0]);
}

TEST(Network, MessagesToDownNodesDrop) {
  EventLoop loop;
  Network net(loop, Rng(2));
  Recorder a, b;
  net.attach(NodeId{1}, a, Point{0, 0});
  net.attach(NodeId{2}, b, Point{1, 1});
  net.set_up(NodeId{2}, false);
  net.send(NodeId{1}, NodeId{2}, net::HeartbeatAck{RegionId{1}});
  loop.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().messages_dropped, 1u);

  net.set_up(NodeId{2}, true);
  net.send(NodeId{1}, NodeId{2}, net::HeartbeatAck{RegionId{1}});
  loop.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, MessagesFromDownNodesDrop) {
  EventLoop loop;
  Network net(loop, Rng(3));
  Recorder a, b;
  net.attach(NodeId{1}, a, Point{0, 0});
  net.attach(NodeId{2}, b, Point{1, 1});
  net.set_up(NodeId{1}, false);
  net.send(NodeId{1}, NodeId{2}, net::HeartbeatAck{RegionId{1}});
  loop.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(Network, CrashAfterSendDropsInFlight) {
  EventLoop loop;
  Network net(loop, Rng(4));
  Recorder a, b;
  net.attach(NodeId{1}, a, Point{0, 0});
  net.attach(NodeId{2}, b, Point{1, 1});
  net.send(NodeId{1}, NodeId{2}, net::HeartbeatAck{RegionId{1}});
  net.set_up(NodeId{2}, false);  // receiver dies while message in flight
  loop.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(Network, LossProbabilityDropsSomeMessages) {
  EventLoop loop;
  Network::Options opt;
  opt.loss_probability = 0.5;
  Network net(loop, Rng(5), opt);
  Recorder a, b;
  net.attach(NodeId{1}, a, Point{0, 0});
  net.attach(NodeId{2}, b, Point{1, 1});
  for (int i = 0; i < 1000; ++i) {
    net.send(NodeId{1}, NodeId{2}, net::HeartbeatAck{RegionId{1}});
  }
  loop.run();
  EXPECT_GT(b.received.size(), 350u);
  EXPECT_LT(b.received.size(), 650u);
}

TEST(Network, SelfSendDeliversThroughLoop) {
  EventLoop loop;
  Network net(loop, Rng(6));
  Recorder a;
  net.attach(NodeId{1}, a, Point{0, 0});
  net.send(NodeId{1}, NodeId{1}, net::HeartbeatAck{RegionId{1}});
  EXPECT_TRUE(a.received.empty());  // not synchronous
  loop.run();
  EXPECT_EQ(a.received.size(), 1u);
}

TEST(Network, AccountsTraffic) {
  EventLoop loop;
  Network net(loop, Rng(7));
  Recorder a, b;
  net.attach(NodeId{1}, a, Point{0, 0});
  net.attach(NodeId{2}, b, Point{1, 1});
  net.send(NodeId{1}, NodeId{2}, net::HeartbeatAck{RegionId{1}});
  net.send(NodeId{1}, NodeId{2}, net::Heartbeat{RegionId{1}, 1.0, 2.0});
  loop.run();
  const auto& s = net.stats();
  EXPECT_EQ(s.messages_sent, 2u);
  EXPECT_EQ(s.messages_delivered, 2u);
  // HeartbeatAck: u16 tag + u32 region; Heartbeat: the same plus two f64.
  EXPECT_EQ(s.bytes_sent, 6 + 22 + 2 * net::kPacketOverheadBytes);
  EXPECT_EQ(s.count(net::MsgType::kHeartbeatAck), 1u);
  EXPECT_EQ(s.count(net::MsgType::kHeartbeat), 1u);
}

TEST(Network, VerifySerializationPreservesContent) {
  EventLoop loop;
  Network net(loop, Rng(8));

  struct Inspect : Process {
    double load = 0.0;
    void on_message(NodeId, const net::Message& msg) override {
      load = std::get<net::Heartbeat>(msg).load;
    }
  } sink;
  Recorder src;
  net.attach(NodeId{1}, src, Point{0, 0});
  net.attach(NodeId{2}, sink, Point{1, 1});
  net.send(NodeId{1}, NodeId{2}, net::Heartbeat{RegionId{3}, 7.25, 1.0});
  loop.run();
  EXPECT_DOUBLE_EQ(sink.load, 7.25);
}

TEST(Network, DetachedNodeUnreachable) {
  EventLoop loop;
  Network net(loop, Rng(9));
  Recorder a, b;
  net.attach(NodeId{1}, a, Point{0, 0});
  net.attach(NodeId{2}, b, Point{1, 1});
  net.detach(NodeId{2});
  EXPECT_FALSE(net.is_attached(NodeId{2}));
  net.send(NodeId{1}, NodeId{2}, net::HeartbeatAck{RegionId{1}});
  loop.run();
  EXPECT_TRUE(b.received.empty());
}

}  // namespace
}  // namespace geogrid::sim

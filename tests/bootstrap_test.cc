// Bootstrap directory and host cache.
#include "services/bootstrap.h"

#include <gtest/gtest.h>

namespace geogrid::services {
namespace {

net::NodeInfo make_node(std::uint32_t id) {
  net::NodeInfo n;
  n.id = NodeId{id};
  n.coord = Point{static_cast<double>(id), 1.0};
  n.capacity = 10.0;
  return n;
}

struct Sink : sim::Process {
  std::optional<net::BootstrapEntryReply> reply;
  void on_message(NodeId, const net::Message& msg) override {
    if (const auto* r = std::get_if<net::BootstrapEntryReply>(&msg)) {
      reply = *r;
    }
  }
};

class BootstrapTest : public ::testing::Test {
 protected:
  sim::EventLoop loop;
  sim::Network net{loop, Rng(1)};
  BootstrapServer server{net, NodeId{0}, Rng(2)};
};

TEST_F(BootstrapTest, FirstNodeGetsNoEntry) {
  Sink joiner;
  net.attach(NodeId{1}, joiner, Point{1, 1});
  net.send(NodeId{1}, NodeId{0}, net::BootstrapEntryRequest{make_node(1)});
  loop.run();
  ASSERT_TRUE(joiner.reply.has_value());
  EXPECT_FALSE(joiner.reply->entry.has_value());
}

TEST_F(BootstrapTest, RegisteredNodesServeAsEntries) {
  Sink joiner;
  net.attach(NodeId{1}, joiner, Point{1, 1});
  net.send(NodeId{1}, NodeId{0}, net::BootstrapRegister{make_node(7)});
  loop.run();  // registration lands before the request (no reordering)
  net.send(NodeId{1}, NodeId{0}, net::BootstrapEntryRequest{make_node(1)});
  loop.run();
  ASSERT_TRUE(joiner.reply.has_value());
  ASSERT_TRUE(joiner.reply->entry.has_value());
  EXPECT_EQ(joiner.reply->entry->id, (NodeId{7}));
}

TEST_F(BootstrapTest, NeverReturnsRequesterItself) {
  server.pick_entry(NodeId{1});  // direct API
  Sink joiner;
  net.attach(NodeId{1}, joiner, Point{1, 1});
  net.send(NodeId{1}, NodeId{0}, net::BootstrapRegister{make_node(1)});
  net.send(NodeId{1}, NodeId{0}, net::BootstrapRegister{make_node(2)});
  loop.run();
  for (int i = 0; i < 50; ++i) {
    const auto entry = server.pick_entry(NodeId{1});
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->id, (NodeId{2}));
  }
}

TEST_F(BootstrapTest, OnlySelfRegisteredMeansNoEntry) {
  Sink joiner;
  net.attach(NodeId{1}, joiner, Point{1, 1});
  net.send(NodeId{1}, NodeId{0}, net::BootstrapRegister{make_node(1)});
  net.send(NodeId{1}, NodeId{0}, net::BootstrapEntryRequest{make_node(1)});
  loop.run();
  ASSERT_TRUE(joiner.reply.has_value());
  EXPECT_FALSE(joiner.reply->entry.has_value());
}

TEST_F(BootstrapTest, UnregisterRemovesNode) {
  Sink sender;
  net.attach(NodeId{9}, sender, Point{2, 2});
  for (std::uint32_t i = 1; i <= 3; ++i) {
    net.send(NodeId{9}, NodeId{0}, net::BootstrapRegister{make_node(i)});
  }
  loop.run();
  EXPECT_EQ(server.registered(), 3u);
  server.unregister(NodeId{2});
  EXPECT_EQ(server.registered(), 2u);
  for (int i = 0; i < 50; ++i) {
    const auto entry = server.pick_entry(kInvalidNode);
    ASSERT_TRUE(entry.has_value());
    EXPECT_NE(entry->id, (NodeId{2}));
  }
}

}  // namespace
}  // namespace geogrid::services

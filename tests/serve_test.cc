// The serving edge end-to-end over real loopback sockets: lifecycle, the
// wire-vs-in-process byte-identity contract, notification push,
// subscription ownership across connections, query-after-update
// visibility, backpressure gating, replies streamed while a batch runs,
// and hostile-input survival.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "mobility/query_engine.h"
#include "mobility/sharded_directory.h"
#include "nearest_reference.h"
#include "net/framing.h"
#include "overlay/partition.h"
#include "pubsub/notification_engine.h"
#include "pubsub/subscription_index.h"
#include "serve/client.h"

namespace geogrid::serve {
namespace {

using mobility::LocationRecord;
using mobility::Query;
using mobility::QueryEngine;
using mobility::ShardedDirectory;
using pubsub::NotificationEngine;
using pubsub::SubscriptionIndex;

constexpr Rect kPlane{0.0, 0.0, 64.0, 64.0};

// The mobile-layer quadrant geometry shared with the mobility/pubsub
// suites: four regions via two split rounds.
struct QuadrantFixture {
  overlay::Partition partition{kPlane};
  QuadrantFixture() {
    const NodeId a = partition.add_node({NodeId{1}, Point{10, 10}, 10.0});
    const NodeId b = partition.add_node({NodeId{2}, Point{10, 50}, 10.0});
    const NodeId c = partition.add_node({NodeId{3}, Point{50, 10}, 10.0});
    const NodeId d = partition.add_node({NodeId{4}, Point{50, 50}, 10.0});
    const RegionId root = partition.create_root(a);
    const RegionId north = partition.split(root, b);
    partition.split(root, c);
    partition.split(north, d);
    EXPECT_EQ(partition.region_count(), 4u);
  }
};

/// One full engine complement.  The server test always runs two: a sharded
/// multi-threaded stack behind the wire and a serial single-shard stack as
/// the in-process reference — identical answers are the contract.
struct EngineStack {
  QuadrantFixture fx;
  ShardedDirectory dir;
  QueryEngine queries;
  SubscriptionIndex subs;
  NotificationEngine notify;

  EngineStack(std::size_t shards, std::size_t threads)
      : dir(fx.partition, {.shards = shards, .track_deltas = true}),
        queries(dir, {.threads = threads}),
        subs(kPlane),
        notify(dir, subs, {.threads = threads}) {}

  ServerEngines engines() { return {dir, queries, subs, notify}; }

  std::vector<std::byte> dir_bytes() const {
    net::Writer w;
    dir.serialize(w);
    return std::move(w).take();
  }
};

/// Deterministic fleet positions inside the plane; epoch e moves every
/// `stride`-th user a little.
std::vector<LocationRecord> fleet_batch(std::size_t users, std::uint64_t seq,
                                        std::size_t stride = 1) {
  std::vector<LocationRecord> recs;
  recs.reserve(users);
  for (std::size_t i = 0; i < users; ++i) {
    const double base_x = static_cast<double>((i * 7 + 3) % 61) + 0.5;
    const double base_y = static_cast<double>((i * 13 + 5) % 59) + 0.5;
    Point p{base_x, base_y};
    if (i % stride == 0) {
      p.x += 0.25 * static_cast<double>(seq % 3);
      p.y += 0.25 * static_cast<double>(seq % 2);
    }
    recs.push_back(LocationRecord{
        UserId{static_cast<std::uint32_t>(i + 1)}, p, seq, 0.0});
  }
  return recs;
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// A raw loopback socket connected to `port`, or -1: for tests that send
/// or read bytes exactly as they cross the wire.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `requests` in one send() on the raw socket `fd` and reads until
/// `want` bytes came back, the server closed the connection, or
/// `timeout_ms` passed; closes `fd` and returns what arrived.
std::vector<std::byte> raw_exchange(int fd,
                                    std::span<const std::byte> requests,
                                    std::size_t want, int timeout_ms = 30000) {
  std::vector<std::byte> got;
  if (fd < 0) return got;
  if (::send(fd, requests.data(), requests.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(requests.size())) {
    ::close(fd);
    return got;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::byte buf[65536];
  while (got.size() < want && std::chrono::steady_clock::now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 10) <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    got.insert(got.end(), buf, buf + n);
  }
  ::close(fd);
  return got;
}

/// 650 users on a 26 x 25 lattice inside (10, 10)-(17.5, 17.2), and user
/// 1000 alone in the far corner.
std::vector<LocationRecord> lattice_batch() {
  std::vector<LocationRecord> batch;
  for (std::uint32_t i = 0; i < 650; ++i) {
    const Point p{10.0 + 0.3 * (i % 26), 10.0 + 0.3 * (i / 26)};
    batch.push_back(LocationRecord{UserId{i + 1}, p, 1, 0.0});
  }
  batch.push_back(LocationRecord{UserId{1000}, Point{60.5, 60.5}, 1, 0.0});
  return batch;
}

/// A rect holding all 650 lattice users (and not the corner one).
constexpr Rect kLatticeArea{9, 9, 10, 10};

/// `n` mixed queries over lattice_batch(), starting `phase` steps into the
/// pattern: locate hits and misses; empty, one-record and 650-record
/// ranges; kNN with k past the population, with a NaN center and with a
/// small k.  One query in ten answers about 23 KB.
std::vector<Query> mixed_queries(std::size_t n, std::size_t phase) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Query> queries;
  queries.reserve(n);
  for (std::size_t i = phase; i < phase + n; ++i) {
    switch (i % 20) {
      case 0: queries.push_back(Query::range(kLatticeArea)); break;
      case 1: queries.push_back(Query::nearest(Point{13, 13}, 5000)); break;
      case 2: queries.push_back(Query::range(Rect{40, 2, 4, 4})); break;
      case 3: queries.push_back(Query::range(Rect{60, 60, 1, 1})); break;
      case 4: queries.push_back(Query::nearest(Point{nan, nan}, 5)); break;
      case 5: queries.push_back(Query::nearest(Point{12, 12}, 3)); break;
      default:  // ids past 651 miss, except 1000
        queries.push_back(Query::locate(
            UserId{static_cast<std::uint32_t>(i * 37 % 1400 + 1)}));
    }
  }
  return queries;
}

/// The request frames for `queries`, with ids from `first_id` on, and the
/// reply frames a server owes them, built from the in-process answers of
/// `reference`.
struct Exchange {
  std::vector<std::byte> requests;
  std::vector<std::byte> replies;
};

Exchange expected_exchange(EngineStack& reference,
                           std::span<const Query> queries,
                           std::uint64_t first_id) {
  const std::vector<mobility::QueryResult> answers =
      reference.queries.run(queries);
  Exchange ex;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const mobility::QueryResult& a = answers[i];
    const std::uint64_t id = first_id + i;
    if (q.kind == Query::Kind::kLocate) {
      net::LocateRequest req;
      req.request_id = id;
      req.user = q.user;
      net::append_frame(req, ex.requests);
      net::LocateReply reply;
      reply.request_id = id;
      reply.user = q.user;
      reply.found = a.found;
      reply.region = kInvalidRegion;
      if (a.found) {
        reply.location = a.located.position;
        reply.seq = a.located.seq;
        reply.region = reference.dir.region_of(q.user);
      }
      net::append_frame(reply, ex.replies);
      continue;
    }
    if (q.kind == Query::Kind::kRange) {
      net::LocationQuery req;
      req.query_id = id;
      req.area = q.rect;
      net::append_frame(req, ex.requests);
    } else {
      net::NearestRequest req;
      req.query_id = id;
      req.center = q.point;
      req.k = q.k;
      net::append_frame(req, ex.requests);
    }
    net::Writer payload;
    a.encode(payload);
    const net::QueryResult reply{
        id, kInvalidRegion,
        std::string(reinterpret_cast<const char*>(payload.bytes().data()),
                    payload.bytes().size())};
    net::append_frame(reply, ex.replies);
  }
  return ex;
}

/// Expects `got` to equal `want`; a failure prints the first byte that
/// differs rather than megabytes of both.
void expect_same_bytes(std::span<const std::byte> got,
                       std::span<const std::byte> want, std::size_t conn) {
  EXPECT_EQ(got.size(), want.size()) << "connection " << conn;
  const auto diff =
      std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  EXPECT_EQ(diff.first - got.begin(), static_cast<std::ptrdiff_t>(want.size()))
      << "connection " << conn << ": first byte that differs";
}

std::vector<std::byte> result_bytes(
    std::span<const mobility::QueryResult> results) {
  net::Writer w;
  QueryEngine::serialize(w, results);
  return std::move(w).take();
}

std::vector<std::byte> notify_bytes(std::span<const net::Notify> batch) {
  std::vector<std::byte> out;
  for (const net::Notify& n : batch) {
    const auto frame = net::encode_message(net::Message{n});
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

class ServeTest : public ::testing::TestWithParam<bool> {
 protected:
  Client make_client(const Server& server) {
    Client::Options copt;
    copt.port = server.port();
    Client c(copt);
    c.connect();
    return c;
  }
};

TEST_P(ServeTest, StartStopAssignsEphemeralPort) {
  EngineStack stack(2, 1);
  Server server(stack.engines(), core::ServeOptions{});
  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);

  Client c = make_client(server);
  EXPECT_TRUE(c.connected());
  EXPECT_TRUE(wait_until([&] { return server.connection_count() == 1; }));
  c.close();
  EXPECT_TRUE(wait_until([&] { return server.connection_count() == 0; }));
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST_P(ServeTest, WireStreamsMatchInProcessEngines) {
  EngineStack wired(4, 2);    // behind the server
  EngineStack reference(1, 1);  // in-process, serial

  core::ServeOptions opt;
  opt.ingest_flush_records = 256;
  Server server(wired.engines(), opt);
  server.start();

  Client c = make_client(server);
  const std::vector<LocationRecord> batch = fleet_batch(500, 1);
  EXPECT_EQ(c.update_batch(batch), 500u);
  reference.dir.apply_updates(batch);

  // Mixed read batch over the wire vs the reference engine directly.
  std::vector<Query> queries;
  for (std::uint32_t i = 1; i <= 40; ++i) {
    queries.push_back(Query::locate(UserId{i * 13}));  // tail misses (>500)
  }
  queries.push_back(Query::range(Rect{0, 0, 32, 32}));
  queries.push_back(Query::range(Rect{16, 16, 40, 40}));
  queries.push_back(Query::nearest(Point{32, 32}, 8));
  queries.push_back(Query::nearest(Point{5, 60}, 3));

  const std::vector<mobility::QueryResult> got = c.query_batch(queries);
  const std::vector<mobility::QueryResult> want = reference.queries.run(queries);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(result_bytes(got), result_bytes(want));

  c.close();
  server.stop();
  // The stored state itself is byte-identical too (canonical across shard
  // counts; wire-ingested records are stamped timestamp 0.0 on both sides).
  EXPECT_EQ(wired.dir_bytes(), reference.dir_bytes());

  const auto counters = server.counters();
  EXPECT_EQ(counters.updates_in, 500u);
  EXPECT_EQ(counters.locates_in, 40u);
  EXPECT_EQ(counters.ranges_in, 2u);
  EXPECT_EQ(counters.nearests_in, 2u);
  EXPECT_GE(counters.ingest_flushes, 1u);
  EXPECT_GT(server.latency(net::MsgType::kLocationUpdate).count(), 0u);
  EXPECT_GT(server.latency(net::MsgType::kLocateRequest).count(), 0u);
}

TEST_P(ServeTest, QueryRepliesFrameTheAnswerAsAQueryResultPayload) {
  // The server frames each range or kNN answer in place.  Its bytes must be
  // those of a net::QueryResult whose payload string holds the encoded
  // answer: here for empty, 1-record and 650-record answers of each kind.
  EngineStack wired(2, 1);
  EngineStack reference(1, 1);
  Server server(wired.engines(), core::ServeOptions{});
  server.start();

  // 650 users on a 26 x 25 lattice inside (10, 10)-(17.5, 17.2), and one
  // alone in the far corner.
  std::vector<LocationRecord> batch;
  for (std::uint32_t i = 0; i < 650; ++i) {
    const Point p{10.0 + 0.3 * (i % 26), 10.0 + 0.3 * (i / 26)};
    batch.push_back(LocationRecord{UserId{i + 1}, p, 1, 0.0});
  }
  batch.push_back(LocationRecord{UserId{1000}, Point{60.5, 60.5}, 1, 0.0});
  Client updater = make_client(server);
  ASSERT_EQ(updater.update_batch(batch), batch.size());
  reference.dir.apply_updates(batch);

  const std::vector<Query> queries = {
      Query::range(Rect{40, 2, 4, 4}),    Query::range(Rect{60, 60, 1, 1}),
      Query::range(Rect{9, 9, 10, 10}),   Query::nearest(Point{32, 32}, 0),
      Query::nearest(Point{60, 60}, 1),   Query::nearest(Point{13, 13}, 650),
  };
  const std::vector<mobility::QueryResult> answers =
      reference.queries.run(queries);
  const std::size_t sizes[] = {0, 1, 650, 0, 1, 650};
  std::vector<std::byte> requests;
  std::vector<std::byte> want;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(answers[i].records.size(), sizes[i]) << "query " << i;
    const std::uint64_t id = 100 + i;
    if (queries[i].kind == Query::Kind::kRange) {
      net::LocationQuery req;
      req.query_id = id;
      req.area = queries[i].rect;
      net::append_frame(req, requests);
    } else {
      net::NearestRequest req;
      req.query_id = id;
      req.center = queries[i].point;
      req.k = queries[i].k;
      net::append_frame(req, requests);
    }
    net::Writer payload;
    answers[i].encode(payload);
    const net::QueryResult reply{
        id, kInvalidRegion,
        std::string(reinterpret_cast<const char*>(payload.bytes().data()),
                    payload.bytes().size())};
    const std::vector<std::byte> frame =
        net::encode_frame(net::Message{reply});
    want.insert(want.end(), frame.begin(), frame.end());
  }

  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, requests.data(), requests.size(), 0),
            static_cast<ssize_t>(requests.size()));
  std::vector<std::byte> got;
  std::byte buf[65536];
  EXPECT_TRUE(wait_until([&] {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) got.insert(got.end(), buf, buf + n);
    return got.size() >= want.size();
  }));
  EXPECT_EQ(got, want);
  ::close(fd);
  updater.close();
  server.stop();
}

TEST_P(ServeTest, ReadingClientGetsABatchPastTheSlowConsumerLimit) {
  // 256 range answers of all 650 lattice users are about 6 MB, past the
  // slow-consumer limit of 4 x outbuf_gate_bytes (4 MiB by default).  The
  // client reads all along, so the server must stream the batch to it
  // rather than buffer the whole of it and cut the client.
  EngineStack wired(1, 1);
  EngineStack reference(1, 1);
  Server server(wired.engines(), core::ServeOptions{});
  server.start();
  const std::vector<LocationRecord> batch = lattice_batch();
  Client c = make_client(server);
  ASSERT_EQ(c.update_batch(batch), batch.size());
  reference.dir.apply_updates(batch);

  const std::vector<Query> queries(256, Query::range(kLatticeArea));
  const std::vector<mobility::QueryResult> want =
      reference.queries.run(queries);
  ASSERT_EQ(want.front().records.size(), 650u);
  std::vector<mobility::QueryResult> got;
  ASSERT_NO_THROW(got = c.query_batch(queries));
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(result_bytes(got), result_bytes(want));

  c.close();
  server.stop();
  EXPECT_EQ(server.counters().slow_consumer_closes, 0u);
}

TEST_P(ServeTest, MixedBatchesFromTwoConnectionsMatchInProcessAnswers) {
  // Two connections send 1,001 mixed queries each at once.  However the
  // server's cycles split and interleave them, each connection's replies
  // must arrive in its own request order, byte for byte the frames of the
  // in-process answers.  A one-thread engine runs the flushes in slices of
  // 16 (1,001 is not a multiple); a three-thread one runs each flush whole.
  for (const std::size_t threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    EngineStack wired(2, threads);
    EngineStack reference(1, 1);
    Server server(wired.engines(), core::ServeOptions{});
    server.start();
    const std::vector<LocationRecord> batch = lattice_batch();
    Client updater = make_client(server);
    ASSERT_EQ(updater.update_batch(batch), batch.size());
    reference.dir.apply_updates(batch);

    const std::vector<Query> first = mixed_queries(1001, 0);
    const std::vector<Query> second = mixed_queries(1001, 7);
    const Exchange ex[2] = {expected_exchange(reference, first, 1),
                            expected_exchange(reference, second, 5001)};
    std::vector<std::byte> got[2];
    std::vector<std::thread> senders;
    for (std::size_t i = 0; i < 2; ++i) {
      senders.emplace_back([&, i] {
        got[i] = raw_exchange(raw_connect(server.port()), ex[i].requests,
                              ex[i].replies.size());
      });
    }
    for (std::thread& t : senders) t.join();
    for (std::size_t i = 0; i < 2; ++i) {
      expect_same_bytes(got[i], ex[i].replies, i);
    }
    updater.close();
    server.stop();
    const auto counters = server.counters();
    EXPECT_EQ(counters.replies_out, 2002u);
    EXPECT_EQ(counters.slow_consumer_closes, 0u);
  }
}

TEST_P(ServeTest, MidReadFlushStreamsToTheConnectionBeingRead) {
  // Past 8,192 staged queries the server flushes in the middle of a read,
  // and the flush's slices send to the connection whose read is still on
  // the stack.  To have one cycle read that many, eight connections each
  // load part of the lattice, which makes them updaters; while those
  // updates stay staged, the backpressure gate keeps the eight unread.
  // Each then sends 1,100 mixed queries in one send(), which wait in its
  // socket.  The deadline flush re-opens all eight at once, and the next
  // cycle reads 8,800 queries: the mid-read flush fires in the last read.
  constexpr std::size_t kConns = 8;
  EngineStack wired(1, 1);
  EngineStack reference(1, 1);
  core::ServeOptions opt;
  opt.backpressure_records = 1;
  opt.flush_deadline_ms = 1000;
  Server server(wired.engines(), opt);
  server.start();
  const std::vector<LocationRecord> batch = lattice_batch();
  reference.dir.apply_updates(batch);

  // Every expectation is built before the first update goes out, so the
  // bursts reach the server well within the deadline.
  std::vector<std::byte> updates[kConns];
  Exchange ex[kConns];
  for (std::size_t k = 0; k < kConns; ++k) {
    for (std::size_t i = k; i < batch.size(); i += kConns) {
      net::LocationUpdate upd;
      upd.user = batch[i].user;
      upd.location = batch[i].position;
      upd.seq = batch[i].seq;
      net::append_frame(upd, updates[k]);
      const net::LocationUpdateAck ack{upd.user, upd.seq,
                                       reference.dir.region_of(upd.user)};
      net::append_frame(ack, ex[k].replies);
    }
    const Exchange queries = expected_exchange(
        reference, mixed_queries(1100, 3 * k), 1 + 10000 * k);
    ex[k].requests = queries.requests;
    ex[k].replies.insert(ex[k].replies.end(), queries.replies.begin(),
                         queries.replies.end());
  }
  int fds[kConns] = {};
  for (std::size_t k = 0; k < kConns; ++k) {
    fds[k] = raw_connect(server.port());
    ASSERT_GE(fds[k], 0);
    ASSERT_EQ(::send(fds[k], updates[k].data(), updates[k].size(), 0),
              static_cast<ssize_t>(updates[k].size()));
  }
  ASSERT_TRUE(wait_until([&] {
    return server.counters().updates_in == batch.size();
  }));

  std::vector<std::byte> got[kConns];
  std::vector<std::thread> senders;
  for (std::size_t k = 0; k < kConns; ++k) {
    senders.emplace_back([&, k] {
      got[k] = raw_exchange(fds[k], ex[k].requests, ex[k].replies.size());
    });
  }
  for (std::thread& t : senders) t.join();
  for (std::size_t k = 0; k < kConns; ++k) {
    expect_same_bytes(got[k], ex[k].replies, k);
  }
  server.stop();
  const auto counters = server.counters();
  EXPECT_EQ(counters.replies_out, kConns * 1100);
  // Every connection's queries waited behind the gate for one cycle.
  EXPECT_GE(counters.backpressure_gates, kConns);
  EXPECT_EQ(counters.slow_consumer_closes, 0u);
}

TEST_P(ServeTest, ClientLeavingMidStreamIsSkippedAndOthersServed) {
  // A raw connection sends 256 large range queries and closes without
  // reading, while a second client sends its own batch.  Sends to the
  // leaver fail part-way through the flush; the later slices must skip it,
  // and the server must go on serving the second client in full.
  EngineStack wired(1, 1);
  EngineStack reference(1, 1);
  Server server(wired.engines(), core::ServeOptions{});
  server.start();
  const std::vector<LocationRecord> batch = lattice_batch();
  Client c = make_client(server);
  ASSERT_EQ(c.update_batch(batch), batch.size());
  reference.dir.apply_updates(batch);

  const std::vector<Query> large(256, Query::range(kLatticeArea));
  const Exchange leaving = expected_exchange(reference, large, 1);  // unread
  const std::vector<Query> mine = mixed_queries(200, 0);
  const std::vector<mobility::QueryResult> want = reference.queries.run(mine);

  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  std::vector<mobility::QueryResult> got;
  std::thread querier([&] {
    try {
      got = c.query_batch(mine);
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what();
    }
  });
  EXPECT_EQ(::send(fd, leaving.requests.data(), leaving.requests.size(), 0),
            static_cast<ssize_t>(leaving.requests.size()));
  ::close(fd);
  querier.join();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(result_bytes(got), result_bytes(want));

  EXPECT_TRUE(wait_until([&] { return server.counters().closed == 1; }));
  EXPECT_EQ(server.connection_count(), 1u);
  // Still serving, large batches included.
  EXPECT_EQ(result_bytes(c.query_batch(large)),
            result_bytes(reference.queries.run(large)));
  c.close();
  server.stop();
  const auto counters = server.counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.slow_consumer_closes, 0u);
}

TEST_P(ServeTest, NotificationsPushedOverTheWireMatchReference) {
  EngineStack wired(4, 2);
  EngineStack reference(1, 1);

  core::ServeOptions opt;
  opt.ingest_flush_records = 300;  // exactly one flush per 300-user batch
  opt.flush_deadline_ms = 10000;   // never the trigger here
  Server server(wired.engines(), opt);
  server.start();
  Client c = make_client(server);

  // Three subscription kinds, mirrored verbatim into the reference index.
  const Rect fence{0, 0, 24, 24};
  const Rect range{8, 8, 40, 40};
  c.subscribe_area(1, fence, geofence_filter(1));
  c.subscribe_area(2, range, range_filter(2));
  c.subscribe_friend(3, UserId{7});
  {
    net::Subscribe s1;
    s1.sub_id = 1;
    s1.area = fence;
    s1.filter = geofence_filter(1);
    reference.subs.subscribe(s1, subscription_spec(s1).kind);
    net::Subscribe s2;
    s2.sub_id = 2;
    s2.area = range;
    s2.filter = range_filter(2);
    reference.subs.subscribe(s2, subscription_spec(s2).kind);
    net::Subscribe s3;
    s3.sub_id = 3;
    s3.filter = friend_filter(UserId{7});
    reference.subs.subscribe_friend(s3, UserId{7});
  }

  std::vector<net::Notify> reference_stream;
  std::vector<net::Notify> wire_stream;
  for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
    const std::vector<LocationRecord> batch =
        fleet_batch(300, epoch, /*stride=*/epoch == 1 ? 1 : 3);
    EXPECT_EQ(c.update_batch(batch), 300u);  // acks follow the epoch flush
    reference.dir.apply_updates(batch);
    std::size_t expected = 0;
    for (const pubsub::Notification& n : reference.notify.drain()) {
      reference_stream.push_back(reference.notify.to_notify(n));
      ++expected;
    }
    // The epoch's Notifys were queued right after its acks; keep polling
    // until the whole epoch's push arrived.
    EXPECT_TRUE(wait_until([&] {
      return c.poll_notifications(10) >= expected;
    }));
    for (net::Notify& n : c.take_notifications()) {
      wire_stream.push_back(std::move(n));
    }
  }

  EXPECT_FALSE(reference_stream.empty());
  EXPECT_EQ(wire_stream.size(), reference_stream.size());
  EXPECT_EQ(notify_bytes(wire_stream), notify_bytes(reference_stream));

  c.close();
  server.stop();
  EXPECT_EQ(server.counters().notifies_out, reference_stream.size());
  // Disconnect cleans up the standing subscriptions.
  EXPECT_EQ(wired.subs.size(), 0u);
}

TEST_P(ServeTest, QueryForcesVisibilityOfStagedUpdates) {
  EngineStack wired(2, 1);
  core::ServeOptions opt;
  opt.ingest_flush_records = 1 << 20;  // size never triggers
  opt.flush_deadline_ms = 10000;       // deadline never triggers
  Server server(wired.engines(), opt);
  server.start();
  Client c = make_client(server);

  const std::vector<LocationRecord> batch = fleet_batch(50, 1);
  c.update_batch(batch, /*wait_acks=*/false);
  // The locate must observe every update sent before it: the query flush
  // forces the ingest flush first.
  const mobility::QueryResult r = c.locate(UserId{17});
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.located.user, UserId{17});
  EXPECT_EQ(r.located.seq, 1u);

  c.close();
  server.stop();
  const auto counters = server.counters();
  EXPECT_GE(counters.forced_flushes, 1u);
  EXPECT_EQ(counters.updates_in, 50u);
}

TEST_P(ServeTest, BackpressureGatesReadsUntilFlush) {
  EngineStack wired(2, 1);
  core::ServeOptions opt;
  opt.backpressure_records = 2048;  // tiny: force gating
  opt.ingest_flush_records = 1 << 20;
  opt.flush_deadline_ms = 25;  // drain via deadline flushes
  Server server(wired.engines(), opt);
  server.start();
  Client c = make_client(server);

  // ~20k updates is several hundred KB.  The deadline is long enough that
  // the staged queue crosses the watermark mid-burst even when the server
  // keeps pace and reads the stream in small pieces, so the loop must
  // gate the socket, flush, re-open, and still ack everything.
  const std::vector<LocationRecord> batch = fleet_batch(20000, 1);
  EXPECT_EQ(c.update_batch(batch), 20000u);

  c.close();
  server.stop();
  const auto counters = server.counters();
  EXPECT_EQ(counters.updates_in, 20000u);
  EXPECT_EQ(counters.acks_out, 20000u);
  EXPECT_GT(counters.backpressure_gates, 0u);
  EXPECT_GT(counters.ingest_flushes, 1u);
}

TEST_P(ServeTest, MalformedFrameClosesConnectionServerSurvives) {
  EngineStack wired(2, 1);
  Server server(wired.engines(), core::ServeOptions{});
  server.start();

  // Hostile peers, one connection each: six varint continuation bytes (an
  // overlong length prefix the decoder must reject), and a 9-byte
  // LoadStatsExchange frame declaring 2^40 snapshots (a count the decoder
  // must refuse before allocating for it).
  const std::vector<std::vector<unsigned char>> hostile = {
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
      {0x08, 0x32, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20},
  };
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, hostile[i].data(), hostile[i].size(), 0),
              static_cast<ssize_t>(hostile[i].size()));

    // The server cuts the connection (recv sees EOF) and stays up.
    EXPECT_TRUE(wait_until([&] {
      return server.counters().malformed_frames == i + 1;
    }));
    char buf[8];
    EXPECT_TRUE(wait_until([&] {
      return ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT) == 0;
    }));
    ::close(fd);
  }

  Client c = make_client(server);
  c.update_batch(fleet_batch(10, 1));
  EXPECT_TRUE(c.locate(UserId{1}).found);
  c.close();
  server.stop();
  EXPECT_EQ(server.counters().malformed_frames, 2u);
}

TEST_P(ServeTest, HostileQueriesAnswerAndServerSurvives) {
  // Queries a client can send in one frame each: a kNN with k = 2^32 - 1
  // (nothing may be sized by k), a center far off the plane (no walk over
  // the empty grid in between), a NaN center, and a range over +-1e10
  // (cell coordinates past the int32 range).  Each answer must equal a
  // brute-force scan — empty for NaN — and the server must go on serving.
  EngineStack wired(2, 1);
  Server server(wired.engines(), core::ServeOptions{});
  server.start();
  const std::vector<LocationRecord> batch = fleet_batch(100, 1);
  Client c = make_client(server);
  ASSERT_EQ(c.update_batch(batch), batch.size());

  const auto nearest = [&batch](const Point& p, std::size_t k) {
    return testutil::brute_nearest(batch, p, k);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Query> queries = {
      Query::nearest(Point{32, 32}, 0xffffffffu),
      Query::nearest(Point{1e5, 1e5}, 7),
      Query::nearest(Point{nan, nan}, 7),
      Query::range(Rect{-1e10, -1e10, 2e10, 2e10}),
  };
  const std::vector<mobility::QueryResult> got = c.query_batch(queries);
  ASSERT_EQ(got.size(), queries.size());
  EXPECT_EQ(got[0].records, nearest(Point{32, 32}, batch.size()));
  EXPECT_EQ(got[1].records, nearest(Point{1e5, 1e5}, 7));
  EXPECT_TRUE(got[2].records.empty());
  std::vector<LocationRecord> by_id = batch;  // fleet ids ascend already
  EXPECT_EQ(got[3].records, by_id);

  Client other = make_client(server);
  const std::vector<mobility::QueryResult> ordinary =
      other.query_batch(std::vector<Query>{Query::nearest(Point{10, 10}, 3)});
  ASSERT_EQ(ordinary.size(), 1u);
  EXPECT_EQ(ordinary[0].records, nearest(Point{10, 10}, 3));
  other.close();
  c.close();
  server.stop();
}

TEST_P(ServeTest, OversizedFramePrefixCutsConnection) {
  EngineStack wired(2, 1);
  core::ServeOptions opt;
  opt.max_frame_bytes = 1024;
  Server server(wired.engines(), opt);
  server.start();

  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  net::Writer w;
  w.varint(1u << 30);  // announce a 1GB frame
  ASSERT_GT(::send(fd, w.bytes().data(), w.bytes().size(), 0), 0);
  EXPECT_TRUE(wait_until([&] {
    return server.counters().malformed_frames == 1;
  }));
  char buf[8];
  EXPECT_TRUE(wait_until([&] {
    return ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT) == 0;
  }));
  ::close(fd);
  server.stop();
}

TEST_P(ServeTest, ConcurrentClientsAllServed) {
  EngineStack wired(4, 2);
  core::ServeOptions opt;
  opt.ingest_flush_records = 512;
  Server server(wired.engines(), opt);
  server.start();

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 1000;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> located{0};
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client::Options copt;
      copt.port = server.port();
      Client c(copt);
      c.connect();
      // Disjoint user ranges per client; each verifies its own slice.
      std::vector<LocationRecord> recs;
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const auto uid =
            static_cast<std::uint32_t>(t * kPerClient + i + 1);
        recs.push_back(LocationRecord{
            UserId{uid},
            Point{static_cast<double>(uid % 61) + 0.5,
                  static_cast<double>(uid % 59) + 0.5},
            1, 0.0});
      }
      ASSERT_EQ(c.update_batch(recs), kPerClient);
      std::vector<Query> qs;
      for (std::size_t i = 0; i < 32; ++i) {
        qs.push_back(Query::locate(
            UserId{static_cast<std::uint32_t>(t * kPerClient + i + 1)}));
      }
      for (const mobility::QueryResult& r : c.query_batch(qs)) {
        if (r.found) located.fetch_add(1, std::memory_order_relaxed);
      }
      c.close();
    });
  }
  for (std::thread& t : threads) t.join();
  server.stop();

  EXPECT_EQ(located.load(), kClients * 32);
  const auto counters = server.counters();
  EXPECT_EQ(counters.updates_in, kClients * kPerClient);
  EXPECT_EQ(counters.acks_out, kClients * kPerClient);
  EXPECT_EQ(counters.accepted, kClients);
}

TEST_P(ServeTest, UnsubscribeStopsPush) {
  EngineStack wired(2, 1);
  core::ServeOptions opt;
  opt.ingest_flush_records = 100;
  opt.flush_deadline_ms = 10000;
  Server server(wired.engines(), opt);
  server.start();
  Client c = make_client(server);

  c.subscribe_area(1, Rect{0, 0, 64, 64}, range_filter(1));
  EXPECT_EQ(c.update_batch(fleet_batch(100, 1)), 100u);
  c.poll_notifications(50);
  EXPECT_GT(c.take_notifications().size(), 0u);  // enters for the fleet

  c.unsubscribe(1);
  // The unsubscribe has no ack; a synchronous locate fences it (FIFO).
  c.locate(UserId{1});
  EXPECT_EQ(c.update_batch(fleet_batch(100, 2)), 100u);
  c.poll_notifications(50);
  EXPECT_EQ(c.take_notifications().size(), 0u);

  // The freed id is reused by a second connection.  Closing the first
  // connection must leave the new owner's subscription standing.
  Client b = make_client(server);
  b.subscribe_area(1, Rect{0, 0, 64, 64}, range_filter(1));
  c.close();
  EXPECT_TRUE(wait_until([&] { return server.connection_count() == 1; }));
  EXPECT_EQ(b.update_batch(fleet_batch(100, 3)), 100u);
  // Every user moved inside the area: one kMove each.
  EXPECT_TRUE(wait_until([&] { return b.poll_notifications(10) >= 100; }));
  EXPECT_EQ(b.take_notifications().size(), 100u);

  b.close();
  EXPECT_TRUE(wait_until([&] { return server.connection_count() == 0; }));
  server.stop();
  EXPECT_EQ(wired.subs.size(), 0u);
}

/// A bare loopback listener in place of a server, so a test scripts
/// exactly the bytes a Client receives.
class BareListener {
 public:
  BareListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd_ < 0 ||
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 1) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ADD_FAILURE() << "bare listener setup failed";
      return;
    }
    port_ = ntohs(addr.sin_port);
  }
  ~BareListener() {
    if (fd_ >= 0) ::close(fd_);
  }
  BareListener(const BareListener&) = delete;
  BareListener& operator=(const BareListener&) = delete;

  Client connect_client() const {
    Client::Options copt;
    copt.port = port_;
    Client c(copt);
    c.connect();
    return c;
  }
  int accept_peer() const { return ::accept(fd_, nullptr, nullptr); }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

TEST(ServeClient, PollNotificationsThrowsOnUnawaitedReply) {
  // An ack landing during a poll must surface, not vanish: dropping it
  // would leave the next blocking call waiting for it forever.
  BareListener listener;
  Client c = listener.connect_client();
  const int peer = listener.accept_peer();
  ASSERT_GE(peer, 0);
  net::LocationUpdateAck ack;
  ack.user = UserId{1};
  ack.seq = 1;
  const std::vector<std::byte> frame = net::encode_frame(net::Message{ack});
  ASSERT_EQ(::send(peer, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  EXPECT_THROW(c.poll_notifications(5000), std::runtime_error);
  ::close(peer);
}

TEST(ServeClient, PollNotificationsSkipsAcksOwedToAnUnawaitedBatch) {
  // The acks of update_batch(..., wait_acks=false) are owed, not
  // unexpected: a poll skips exactly that many and throws on one more.
  BareListener listener;
  Client c = listener.connect_client();
  const int peer = listener.accept_peer();
  ASSERT_GE(peer, 0);
  const std::vector<LocationRecord> batch = {{UserId{1}, {1.0, 1.0}, 1, 0.0},
                                             {UserId{2}, {2.0, 2.0}, 1, 0.0}};
  EXPECT_EQ(c.update_batch(batch, /*wait_acks=*/false), 0u);
  const auto send_frames = [peer](const std::vector<net::Message>& frames) {
    std::vector<std::byte> wire;
    for (const net::Message& m : frames) net::append_frame(m, wire);
    ASSERT_EQ(::send(peer, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  };
  // Both owed acks, then a Notify: once the Notify is buffered, the acks
  // ahead of it were skipped.
  send_frames({net::LocationUpdateAck{UserId{1}, 1, RegionId{1}},
               net::LocationUpdateAck{UserId{2}, 1, RegionId{1}},
               net::Notify{7, "geofence", "enter"}});
  EXPECT_TRUE(wait_until([&] { return c.poll_notifications(10) == 1; }));
  send_frames({net::LocationUpdateAck{UserId{3}, 1, RegionId{1}}});
  EXPECT_THROW(
      {
        for (int i = 0; i < 50; ++i) c.poll_notifications(100);
      },
      std::runtime_error);
  ::close(peer);
}

TEST(ServeClient, PollNotificationsThrowsWhenServerCloses) {
  BareListener listener;
  Client c = listener.connect_client();
  const int peer = listener.accept_peer();
  ASSERT_GE(peer, 0);
  ::close(peer);
  EXPECT_THROW(c.poll_notifications(5000), std::runtime_error);
}

// epoll is the one readiness backend; the single instantiation keeps the
// suite's test names.
INSTANTIATE_TEST_SUITE_P(Backends, ServeTest, ::testing::Values(false),
                         [](const ::testing::TestParamInfo<bool>&) {
                           return std::string("EpollBackend");
                         });

}  // namespace
}  // namespace geogrid::serve

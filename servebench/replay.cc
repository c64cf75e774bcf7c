#include "replay.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string_view>

#include "net/framing.h"
#include "serve/server.h"

namespace servebench {

namespace {

/// Bytes per recv(): the server and the client both read 64 KiB at a time.
constexpr std::size_t kRecvChunk = 65536;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Cheap order-sensitive hash of answer fields; mismatch detection only.
struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void word(std::uint64_t w) {
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  void real(double d) { word(std::bit_cast<std::uint64_t>(d)); }
  void text(std::string_view s) {
    word(s.size());
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, s.data() + i, 8);
      word(w);
    }
    std::uint64_t tail = 0;
    std::memcpy(&tail, s.data() + i, s.size() - i);
    word(tail);
  }
  void record(const mobility::LocationRecord& r) {
    word(r.user.value);
    real(r.position.x);
    real(r.position.y);
    word(r.seq);
    real(r.timestamp);
  }
};

}  // namespace

void RoundDigest::reply(const mobility::QueryResult& r) {
  Hasher h;
  h.word(replies);
  h.word(static_cast<std::uint64_t>(r.kind));
  if (r.kind == mobility::Query::Kind::kLocate) {
    h.word(r.found ? 1 : 0);
    if (r.found) h.record(r.located);
  } else {
    h.word(r.records.size());
    for (const mobility::LocationRecord& rec : r.records) h.record(rec);
  }
  replies = h.h;
}

void RoundDigest::notify(const net::Notify& n) {
  Hasher h;
  h.word(notifications);
  h.word(n.sub_id);
  h.text(n.topic);
  h.text(n.payload);
  notifications = h.h;
}

std::uint64_t RoundDigest::value() const {
  return mix(mix(replies) ^ notifications);
}

std::uint64_t records_in(const mobility::QueryResult& r) {
  if (r.kind == mobility::Query::Kind::kLocate) return r.found ? 1 : 0;
  return r.records.size();
}

mobility::QueryResult locate_result(const net::LocateReply& reply) {
  mobility::QueryResult r;
  r.kind = mobility::Query::Kind::kLocate;
  r.found = reply.found;
  if (reply.found) r.located = {reply.user, reply.location, reply.seq, 0.0};
  return r;
}

Stack::Stack(const overlay::Partition& partition, double cell_size)
    : directory(partition,
                mobility::ShardedDirectory::Options{.shards = 1,
                                                    .cell_size = cell_size,
                                                    .track_deltas = true}),
      queries(directory, mobility::QueryEngine::Options{.threads = 1}),
      subscriptions(partition.plane()),
      notifications(directory, subscriptions,
                    pubsub::NotificationEngine::Options{.threads = 1}) {}

net::Subscribe subscribe_message(const SubOrder& order) {
  net::Subscribe m;
  m.sub_id = order.sub_id;
  switch (order.kind) {
    case pubsub::SubKind::kFriend:
      m.filter = serve::friend_filter(order.friend_user);
      break;
    case pubsub::SubKind::kRange:
      m.area = order.area;
      m.filter = serve::range_filter(order.sub_id);
      break;
    case pubsub::SubKind::kGeofence:
      m.area = order.area;
      m.filter = serve::geofence_filter(order.sub_id);
      break;
  }
  return m;
}

Replay::Replay(const Spec& spec, std::uint64_t seed,
               core::GridSimulation& sim, SpanLog* spans)
    : spec_(spec), gen_(spec, seed, sim),
      stack_(sim.partition(), gen_.cell_size()), spans_(spans),
      updaters_(spec.updaters) {}

void Replay::setup() {
  const std::vector<mobility::LocationRecord>& pop = gen_.population();
  for (std::size_t i = 0; i < pop.size(); i += kLoadBatch) {
    const std::size_t n = std::min(kLoadBatch, pop.size() - i);
    stack_.directory.apply_updates({pop.data() + i, n});
    (void)stack_.notifications.drain();
  }
  const std::vector<SubOrder> subs = gen_.subscriptions();
  const Clock::time_point t0 = Clock::now();
  for (const SubOrder& s : subs) {
    const net::Subscribe m = subscribe_message(s);
    if (s.kind == pubsub::SubKind::kFriend) {
      stack_.subscriptions.subscribe_friend(m, s.friend_user);
    } else {
      stack_.subscriptions.subscribe(m, s.kind);
    }
    stack_.subscriptions.refresh();
  }
  subscribe_us_ = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                      .count();
  subscribed_ = subs.size();
}

void Replay::begin_timed() {
  dir0_ = stack_.directory.counters();
  query0_ = stack_.queries.counters();
  notify0_ = stack_.notifications.counters();
  match_samples0_ = stack_.notifications.match_latency().count();
  match_us0_ = stack_.notifications.match_latency().sum_micros();
}

void Replay::round(bool timed) {
  gen_.next_round(rd_);
  digest_ = RoundDigest{};
  for (Conn& c : updaters_) c.out.clear();
  querier_.out.clear();
  subscriber_.out.clear();
  if (timed) counts_.rounds += 1;
  if (!rd_.reports.empty()) update_subround(rd_.number, timed);
  if (!rd_.queries.empty()) query_subround(rd_.number, timed);
  if (spec_.kind == Kind::kGeofencePush) subscriber_fence(rd_.number, timed);
  answers_.push_back(digest_.value());
  if (timed) {
    for (const Conn& c : updaters_) counts_.wire_bytes += c.out.size();
    counts_.wire_bytes += querier_.out.size() + subscriber_.out.size();
  }
}

template <typename EachMessage>
std::uint64_t Replay::frame(std::uint64_t id, bool timed,
                            std::size_t frames, EachMessage&& each) {
  // As serve::Client: a fresh buffer per call, one append_frame per
  // message.
  Timed span(log(timed), id, "net.request_encode");
  std::vector<std::byte> wire;
  each([&](const net::Message& m) { net::append_frame(m, wire); });
  span.done(frames);
  request_bytes_ = std::move(wire);
  decode_requests(id, timed);
  return request_bytes_.size();
}

void Replay::decode_requests(std::uint64_t id, bool timed) {
  // As the server: 64 KiB reads fed to the connection's FrameDecoder,
  // every complete frame staged into the ingest or query batch.
  Timed span(log(timed), id, "net.request_decode");
  staged_.clear();
  staged_queries_.clear();
  std::uint64_t frames = 0;
  for (std::size_t off = 0; off < request_bytes_.size(); off += kRecvChunk) {
    const std::size_t n = std::min(kRecvChunk, request_bytes_.size() - off);
    server_decoder_.feed(request_bytes_.data() + off, n);
    while (true) {
      net::FrameDecoder::Result r = server_decoder_.next();
      if (r.status == net::FrameDecoder::Status::kError) {
        throw std::runtime_error("replay: request stream malformed: " +
                                 r.error);
      }
      if (r.status == net::FrameDecoder::Status::kNeedMore) break;
      ++frames;
      const net::Message& m = *r.message;
      if (const auto* u = std::get_if<net::LocationUpdate>(&m)) {
        staged_.push_back({u->user, u->location, u->seq, 0.0});
      } else if (const auto* l = std::get_if<net::LocateRequest>(&m)) {
        staged_queries_.push_back(mobility::Query::locate(l->user));
      } else if (const auto* q = std::get_if<net::LocationQuery>(&m)) {
        staged_queries_.push_back(mobility::Query::range(q->area));
      } else if (const auto* k = std::get_if<net::NearestRequest>(&m)) {
        staged_queries_.push_back(mobility::Query::nearest(k->center, k->k));
      }
    }
  }
  span.done(frames);
}

void Replay::decode_replies(std::uint64_t id, bool timed, const Conn& conn) {
  // As serve::Client: 64 KiB reads, Notify frames set aside, acks
  // skipped, replies reconstructed into engine results.
  Timed span(log(timed), id, "net.reply_decode");
  std::uint64_t frames = 0;
  for (std::size_t off = 0; off < conn.out.size(); off += kRecvChunk) {
    const std::size_t n = std::min(kRecvChunk, conn.out.size() - off);
    client_decoder_.feed(conn.out.data() + off, n);
    while (true) {
      net::FrameDecoder::Result r = client_decoder_.next();
      if (r.status == net::FrameDecoder::Status::kError) {
        throw std::runtime_error("replay: reply stream malformed: " + r.error);
      }
      if (r.status == net::FrameDecoder::Status::kNeedMore) break;
      ++frames;
      net::Message& m = *r.message;
      if (auto* notify = std::get_if<net::Notify>(&m)) {
        notifies_.push_back(std::move(*notify));
      } else if (const auto* reply = std::get_if<net::QueryResult>(&m)) {
        net::Reader rd(reinterpret_cast<const std::byte*>(reply->payload.data()),
                       reply->payload.size());
        decoded_.push_back(mobility::QueryResult::decode(rd));
      } else if (const auto* loc = std::get_if<net::LocateReply>(&m)) {
        decoded_.push_back(locate_result(*loc));
      }
    }
  }
  span.done(frames);
  notifies_.clear();
  decoded_.clear();
}

void Replay::queue(Conn& conn, const net::Message& m) {
  net::append_frame(m, conn.out);
}

void Replay::locate_reply(Conn& conn, UserId user,
                          const mobility::QueryResult& r) {
  net::LocateReply reply;
  reply.user = user;
  reply.found = r.found;
  if (r.found) {
    reply.location = r.located.position;
    reply.seq = r.located.seq;
    reply.region = stack_.directory.region_of(user);
  } else {
    reply.region = kInvalidRegion;
  }
  queue(conn, net::Message{reply});
}

void Replay::answer(const mobility::QueryResult& r, bool timed) {
  digest_.reply(r);
  if (!timed) return;
  counts_.replies += 1;
  counts_.records += records_in(r);
}

std::vector<mobility::QueryResult> Replay::run_queries(
    std::uint64_t id, bool timed, std::span<const mobility::Query> batch) {
  Timed span(log(timed), id, "mobility.query");
  std::vector<mobility::QueryResult> results = stack_.queries.run(batch);
  span.done(batch.size());
  return results;
}

void Replay::fence(std::uint64_t id, bool timed, Conn& conn, UserId user) {
  const std::uint64_t bytes = frame(id, timed, 1, [&](auto&& emit) {
    net::LocateRequest req;
    req.user = user;
    emit(net::Message{req});
  });
  if (timed) counts_.wire_bytes += bytes;
  const std::vector<mobility::QueryResult> res =
      run_queries(id, timed, staged_queries_);
  {
    Timed span(log(timed), id, "net.reply_encode");
    locate_reply(conn, user, res.front());
    span.done(1);
  }
  answer(res.front(), timed);
}

void Replay::update_subround(std::uint64_t id, bool timed) {
  Conn& conn = updaters_[rd_.updater];
  const std::uint64_t bytes =
      frame(id, timed, rd_.reports.size(), [&](auto&& emit) {
        for (const mobility::LocationRecord& rec : rd_.reports) {
          net::LocationUpdate upd;
          upd.user = rec.user;
          upd.location = rec.position;
          upd.seq = rec.seq;
          emit(net::Message{upd});
        }
      });
  const std::vector<mobility::LocationRecord>& batch = staged_;
  {
    Timed span(log(timed), id, "mobility.apply");
    stack_.directory.apply_updates(batch);
    span.done(batch.size());
  }
  {
    Timed span(log(timed), id, "net.reply_encode");
    for (const mobility::LocationRecord& rec : batch) {
      net::LocationUpdateAck ack;
      ack.user = rec.user;
      ack.seq = rec.seq;
      ack.region = stack_.directory.region_of(rec.user);
      queue(conn, net::Message{ack});
    }
    span.done(batch.size());
  }
  {
    // Publication is timed on its own; the drain below then reuses the
    // snapshot published at this epoch.
    Timed span(log(timed), id, "mobility.publish");
    (void)stack_.directory.publish_snapshot();
    span.done(1);
  }
  std::vector<pubsub::Notification> drained;
  {
    Timed span(log(timed), id, "pubsub.drain");
    drained = stack_.notifications.drain();
    span.done(1);
  }
  {
    Timed span(log(timed), id, "net.reply_encode");
    for (const pubsub::Notification& n : drained) {
      stack_.notifications.to_notify(n, notify_);
      queue(subscriber_, net::Message{notify_});
      digest_.notify(notify_);
    }
    span.done(drained.size());
  }
  if (timed) {
    counts_.wire_bytes += bytes;
    counts_.reports += batch.size();
    counts_.ingest_flushes += 1;
    counts_.notifications += drained.size();
  }
  fence(id, timed, conn, rd_.fence);
  decode_replies(id, timed, conn);
}

void Replay::query_subround(std::uint64_t id, bool timed) {
  const std::uint64_t bytes =
      frame(id, timed, rd_.queries.size(), [&](auto&& emit) {
        for (const mobility::Query& q : rd_.queries) {
          switch (q.kind) {
            case mobility::Query::Kind::kLocate: {
              net::LocateRequest req;
              req.user = q.user;
              emit(net::Message{req});
              break;
            }
            case mobility::Query::Kind::kRange: {
              net::LocationQuery req;
              req.area = q.rect;
              emit(net::Message{req});
              break;
            }
            case mobility::Query::Kind::kNearest: {
              net::NearestRequest req;
              req.center = q.point;
              req.k = q.k;
              emit(net::Message{req});
              break;
            }
          }
        }
      });
  const std::vector<mobility::Query>& batch = staged_queries_;
  if (SpanLog* spans = log(timed)) {
    // Region discovery timed from outside the engine: the resolver call
    // QueryEngine makes for every range.  Measurement only, so untraced
    // replays skip it.
    Timed span(spans, id, "overlay.intersecting");
    std::uint64_t ranges = 0;
    for (const mobility::Query& q : batch) {
      if (q.kind != mobility::Query::Kind::kRange) continue;
      stack_.directory.resolver().intersecting(q.rect, regions_);
      range_regions_ += regions_.size();
      ++ranges;
    }
    span.done(ranges);
  }
  const std::vector<mobility::QueryResult> results =
      run_queries(id, timed, batch);
  {
    // As the server: payload encode, then the framed reply into the
    // connection buffer.
    Timed span(log(timed), id, "net.reply_encode");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const mobility::QueryResult& r = results[i];
      if (batch[i].kind == mobility::Query::Kind::kLocate) {
        locate_reply(querier_, batch[i].user, r);
        continue;
      }
      net::QueryResult reply;
      reply.from_region = kInvalidRegion;
      net::Writer w;
      r.encode(w);
      reply.payload.assign(reinterpret_cast<const char*>(w.bytes().data()),
                           w.bytes().size());
      queue(querier_, net::Message{reply});
    }
    span.done(results.size());
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    answer(results[i], timed);
    if (timed && batch[i].kind == mobility::Query::Kind::kRange) {
      ++ranges_;
      range_records_ += results[i].records.size();
    }
  }
  if (timed) counts_.wire_bytes += bytes;
  decode_replies(id, timed, querier_);
}

void Replay::subscriber_fence(std::uint64_t id, bool timed) {
  fence(id, timed, subscriber_, rd_.sub_fence);
  decode_replies(id, timed, subscriber_);
}

// ---- traced-run metrics --------------------------------------------------

namespace {

struct SpanSum {
  double us = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace

double Replay::engine_us() const {
  double us = 0.0;
  for (const Span& s : spans_->spans()) {
    const std::string_view n = s.name;
    if (n == "mobility.apply" || n == "mobility.publish" ||
        n == "pubsub.drain" || n == "mobility.query") {
      us += s.dur_us;
    }
  }
  return us;
}

void Replay::layer_metrics(Metrics& out) const {
  std::map<std::string_view, SpanSum> by;
  for (const Span& s : spans_->spans()) {
    if (s.parent == 0) continue;
    SpanSum& t = by[s.name];
    t.us += s.dur_us;
    t.calls += 1;
    t.items += s.items;
    t.allocs += s.allocs;
    t.alloc_bytes += s.alloc_bytes;
  }
  auto per_item = [&](std::string_view name) {
    const SpanSum& t = by[name];
    return ratio(t.us, static_cast<double>(t.items));
  };
  const SpanSum& req_enc = by["net.request_encode"];
  const SpanSum& req_dec = by["net.request_decode"];
  const SpanSum& rep_enc = by["net.reply_encode"];
  const SpanSum& rep_dec = by["net.reply_decode"];
  const double frames = static_cast<double>(req_enc.items + rep_enc.items);
  const double net_allocs = static_cast<double>(
      req_enc.allocs + req_dec.allocs + rep_enc.allocs + rep_dec.allocs);
  const double net_bytes =
      static_cast<double>(req_enc.alloc_bytes + req_dec.alloc_bytes +
                          rep_enc.alloc_bytes + rep_dec.alloc_bytes);
  out.push_back({"net.request_encode_us_per_frame",
                 per_item("net.request_encode"), "us"});
  out.push_back({"net.request_decode_us_per_frame",
                 per_item("net.request_decode"), "us"});
  out.push_back({"net.reply_encode_us_per_frame",
                 per_item("net.reply_encode"), "us"});
  out.push_back({"net.reply_decode_us_per_frame",
                 per_item("net.reply_decode"), "us"});
  out.push_back({"net.allocs_per_frame", ratio(net_allocs, frames),
                 "allocs/frame"});
  out.push_back({"net.alloc_bytes_per_frame", ratio(net_bytes, frames),
                 "B/frame"});

  const mobility::ShardedDirectory::Counters& d = stack_.directory.counters();
  const double reports = static_cast<double>(counts_.reports);
  const SpanSum& apply = by["mobility.apply"];
  const SpanSum& publish = by["mobility.publish"];
  const SpanSum& query = by["mobility.query"];
  const SpanSum& drain = by["pubsub.drain"];
  out.push_back({"mobility.apply_us_per_update", per_item("mobility.apply"),
                 "us"});
  out.push_back({"mobility.apply_allocs_per_update",
                 ratio(static_cast<double>(apply.allocs), reports),
                 "allocs/update"});
  out.push_back({"mobility.fast_path_share",
                 ratio(static_cast<double>(d.locate_fast_path -
                                           dir0_.locate_fast_path),
                       reports),
                 "fraction"});
  out.push_back({"mobility.handoff_share",
                 ratio(static_cast<double>(d.handoffs - dir0_.handoffs),
                       reports),
                 "fraction"});
  out.push_back({"mobility.publish_ms",
                 ratio(publish.us, static_cast<double>(publish.calls)) / 1e3,
                 "ms"});
  // One shard, dirty every epoch: always 1, so printed, not a metric.
  out.push_back({"mobility.slices_copied_per_publish",
                 ratio(static_cast<double>(d.snapshot_slices_copied -
                                           dir0_.snapshot_slices_copied),
                       static_cast<double>(counts_.ingest_flushes)),
                 "slices", false});
  out.push_back({"mobility.publish_allocs",
                 ratio(static_cast<double>(publish.allocs),
                       static_cast<double>(publish.calls)),
                 "allocs/call"});
  out.push_back({"mobility.query_us_per_query", per_item("mobility.query"),
                 "us"});
  out.push_back({"mobility.query_allocs_per_query",
                 ratio(static_cast<double>(query.allocs),
                       static_cast<double>(query.items)),
                 "allocs/query"});
  const mobility::QueryEngine::Counters& q = stack_.queries.counters();
  out.push_back({"mobility.records_per_range",
                 ratio(static_cast<double>(range_records_),
                       static_cast<double>(ranges_)),
                 "records"});
  out.push_back({"mobility.records_per_region_scanned",
                 ratio(static_cast<double>(q.records_returned -
                                           query0_.records_returned),
                       static_cast<double>(q.regions_scanned -
                                           query0_.regions_scanned)),
                 "records"});
  out.push_back({"overlay.regions_per_range",
                 ratio(static_cast<double>(range_regions_),
                       static_cast<double>(ranges_)),
                 "regions"});
  if (ranges_ > 0) {
    out.push_back({"overlay.resolve_us_per_range",
                   per_item("overlay.intersecting"), "us", false});
  }

  const pubsub::NotificationEngine::Counters& n =
      stack_.notifications.counters();
  const double drains = static_cast<double>(n.drains - notify0_.drains);
  const double candidates =
      static_cast<double>(n.delta_users - notify0_.delta_users);
  out.push_back({"pubsub.drain_ms",
                 ratio(drain.us, static_cast<double>(drain.calls)) / 1e3,
                 "ms"});
  out.push_back({"pubsub.drain_allocs",
                 ratio(static_cast<double>(drain.allocs),
                       static_cast<double>(drain.calls)),
                 "allocs/call"});
  out.push_back({"pubsub.candidates_per_epoch", ratio(candidates, drains),
                 "users"});
  out.push_back({"pubsub.notifications_per_candidate",
                 ratio(static_cast<double>(n.notifications -
                                           notify0_.notifications),
                       candidates),
                 "count"});
  // The match histogram is cumulative since the population load; its
  // count and sum give the timed rounds' mean.
  const metrics::LatencyHistogram& match = stack_.notifications.match_latency();
  out.push_back({"pubsub.match_mean_us",
                 ratio(match.sum_micros() - match_us0_,
                       static_cast<double>(match.count() - match_samples0_)),
                 "us"});
  if (subscribed_ > 0) {
    out.push_back({"pubsub.subscribe_us",
                   subscribe_us_ / static_cast<double>(subscribed_), "us",
                   false});
  }
}

}  // namespace servebench

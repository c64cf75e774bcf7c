#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/framing.h"

namespace geogrid::serve {

namespace {

using Clock = std::chrono::steady_clock;

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Staged queries that force a mid-cycle flush (see stage_query).
constexpr std::size_t kQueryFlushRequests = 8192;
/// Queries per engine call when the engine answers on the loop thread:
/// each slice's replies go out before the next slice runs.
constexpr std::size_t kQuerySlice = 16;
constexpr int kListenBacklog = 128;
constexpr int kMaxEvents = 256;

}  // namespace

std::string friend_filter(UserId user) {
  return "friend:" + std::to_string(user.value);
}

std::string geofence_filter(std::uint64_t sub_id) {
  return "geofence:" + std::to_string(sub_id);
}

std::string range_filter(std::uint64_t sub_id) {
  return "range:" + std::to_string(sub_id);
}

SubscriptionSpec subscription_spec(const net::Subscribe& msg) {
  SubscriptionSpec spec;
  if (msg.filter.starts_with("friend:")) {
    spec.kind = pubsub::SubKind::kFriend;
    std::uint32_t uid = kInvalidUser.value;
    const char* first = msg.filter.data() + 7;
    const char* last = msg.filter.data() + msg.filter.size();
    std::from_chars(first, last, uid);
    spec.friend_user = UserId{uid};
  } else if (msg.filter.starts_with("geofence")) {
    spec.kind = pubsub::SubKind::kGeofence;
  } else {
    spec.kind = pubsub::SubKind::kRange;
  }
  return spec;
}

struct Server::Impl {
  enum class FlushReason : std::uint8_t { kSize, kDeadline, kForced };

  struct Conn {
    int fd = -1;
    std::uint64_t serial = 0;
    net::FrameDecoder decoder;
    net::FrameBuffer out;
    std::size_t out_pos = 0;
    bool want_read = true;
    bool want_write = false;
    bool gated_backpressure = false;
    bool gated_outbuf = false;
    bool closing = false;
    bool is_updater = false;  ///< has ever sent a LocationUpdate
  };

  /// The ack owed for staged_updates[i]; the record holds its user and seq.
  struct PendingAck {
    std::uint64_t serial = 0;
    Clock::time_point arrived{};
  };

  /// The reply owed for staged_queries[i]; a locate reply echoes the staged
  /// query's user.
  struct PendingReply {
    std::uint64_t serial = 0;
    std::uint64_t id = 0;
    net::MsgType req_type = net::MsgType::kLocateRequest;
    Clock::time_point arrived{};
  };

  Impl(ServerEngines engines, const core::ServeOptions& o)
      : opt(o), eng(engines) {}

  core::ServeOptions opt;
  ServerEngines eng;

  int listen_fd = -1;
  int wake_r = -1;
  int wake_w = -1;
  int epfd = -1;
  std::uint16_t bound_port = 0;
  std::thread thread;
  std::atomic<bool> stop_flag{false};
  std::atomic<bool> is_running{false};
  std::atomic<std::size_t> live_conns{0};

  std::unordered_map<std::uint64_t, Conn> conns;     ///< by serial
  std::unordered_map<int, std::uint64_t> by_fd;      ///< fd -> serial
  /// sub -> serial of the connection it pushes to; the one ownership record.
  std::unordered_map<std::uint64_t, std::uint64_t> sub_owner;
  std::uint64_t next_serial = 1;

  /// Cycle staging, index-aligned: the i-th staged update or query is owed
  /// the i-th pending ack or reply.
  std::vector<mobility::LocationRecord> staged_updates;
  std::vector<PendingAck> pending_acks;
  std::vector<mobility::Query> staged_queries;
  std::vector<PendingReply> pending_replies;
  Clock::time_point ingest_deadline{};
  std::vector<std::uint64_t> to_close;

  /// Shared with reader threads; the loop folds its per-cycle deltas and
  /// latency samples in under one lock per cycle.
  mutable std::mutex stats_mu;
  Counters counters;
  std::array<metrics::LatencyHistogram, net::kMsgTypeSlots> hists{};

  /// Loop-local staging folded at cycle end.
  Counters delta{};
  std::vector<std::pair<net::MsgType, double>> samples;

  // ---- lifecycle -------------------------------------------------------

  void start() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listen_fd < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opt.port);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      fail_start("bind() failed: " + std::string(std::strerror(errno)));
    }
    if (::listen(listen_fd, kListenBacklog) != 0) {
      fail_start("listen() failed");
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &blen);
    bound_port = ntohs(bound.sin_port);

    int pipefd[2];
    if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
      fail_start("pipe2() failed");
    }
    wake_r = pipefd[0];
    wake_w = pipefd[1];

    epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd < 0) fail_start("epoll_create1() failed");
    watch(EPOLL_CTL_ADD, listen_fd, /*want_read=*/true, /*want_write=*/false);
    watch(EPOLL_CTL_ADD, wake_r, /*want_read=*/true, /*want_write=*/false);

    stop_flag.store(false, std::memory_order_relaxed);
    is_running.store(true, std::memory_order_release);
    thread = std::thread([this] { loop(); });
  }

  void stop() {
    if (!is_running.load(std::memory_order_acquire) && !thread.joinable()) {
      return;
    }
    stop_flag.store(true, std::memory_order_relaxed);
    if (wake_w >= 0) {
      const char b = 'x';
      [[maybe_unused]] ssize_t n = ::write(wake_w, &b, 1);
    }
    if (thread.joinable()) thread.join();
    is_running.store(false, std::memory_order_release);
    close_fds();
  }

  [[noreturn]] void fail_start(const std::string& what) {
    close_fds();
    throw std::runtime_error(what);
  }

  void close_fds() {
    for (int* fd : {&listen_fd, &wake_r, &wake_w, &epfd}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }

  ~Impl() { stop(); }

  // ---- event loop ------------------------------------------------------

  void loop() {
    epoll_event events[kMaxEvents];
    while (!stop_flag.load(std::memory_order_relaxed)) {
      const int n = ::epoll_wait(epfd, events, kMaxEvents, wait_timeout_ms());
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == listen_fd) {
          accept_all();
          continue;
        }
        if (fd == wake_r) {
          char buf[64];
          while (::read(wake_r, buf, sizeof(buf)) > 0) {
          }
          continue;
        }
        auto it = by_fd.find(fd);
        if (it == by_fd.end()) continue;  // closed earlier this batch
        Conn& c = conns.at(it->second);
        const std::uint32_t ev = events[i].events;
        if ((ev & EPOLLOUT) != 0 && !c.closing) drain_out(c);
        // Errors and hangups read too: recv() reports them.
        if ((ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 && !c.closing) {
          read_conn(c);
        }
        if (c.closing) to_close.push_back(c.serial);
      }
      end_cycle();
    }
    // Loop thread owns the connection table: tear it down here.
    to_close.clear();
    for (auto& [serial, c] : conns) {
      ::close(c.fd);
    }
    conns.clear();
    by_fd.clear();
    sub_owner.clear();
    live_conns.store(0, std::memory_order_relaxed);
  }

  int wait_timeout_ms() const {
    if (staged_updates.empty()) return -1;
    const auto now = Clock::now();
    if (now >= ingest_deadline) return 0;
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        ingest_deadline - now)
                        .count();
    return static_cast<int>(ms) + 1;
  }

  void accept_all() {
    while (true) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const std::uint64_t serial = next_serial++;
      Conn c;
      c.fd = fd;
      c.serial = serial;
      c.decoder = net::FrameDecoder(
          net::FrameDecoder::Options{opt.max_frame_bytes});
      conns.emplace(serial, std::move(c));
      by_fd.emplace(fd, serial);
      watch(EPOLL_CTL_ADD, fd, /*want_read=*/true, /*want_write=*/false);
      live_conns.fetch_add(1, std::memory_order_relaxed);
      delta.accepted += 1;
    }
  }

  void close_conn(std::uint64_t serial) {
    auto it = conns.find(serial);
    if (it == conns.end()) return;
    for (auto sub = sub_owner.begin(); sub != sub_owner.end();) {
      if (sub->second == serial) {
        eng.subscriptions.unsubscribe(sub->first);
        sub = sub_owner.erase(sub);
      } else {
        ++sub;
      }
    }
    Conn& c = it->second;
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd, nullptr);
    by_fd.erase(c.fd);
    ::close(c.fd);
    conns.erase(it);
    live_conns.fetch_sub(1, std::memory_order_relaxed);
    delta.closed += 1;
  }

  void update_interest(Conn& c) {
    const bool want_read =
        !c.closing && !c.gated_backpressure && !c.gated_outbuf;
    const bool want_write = !c.closing && c.out_pos < c.out.size();
    if (want_read == c.want_read && want_write == c.want_write) return;
    c.want_read = want_read;
    c.want_write = want_write;
    watch(EPOLL_CTL_MOD, c.fd, want_read, want_write);
  }

  void watch(int op, int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epfd, op, fd, &ev);
  }

  // ---- reading ---------------------------------------------------------

  void read_conn(Conn& c) {
    std::byte buf[65536];
    while (!c.closing) {
      // Backpressure: a staged-ingest queue past the watermark means the
      // directory is the bottleneck; stop consuming from the writers that
      // feed it and let TCP flow control push back.  Re-opened at the
      // next ingest flush.
      if (c.is_updater && staged_updates.size() >= opt.backpressure_records &&
          !c.gated_backpressure) {
        c.gated_backpressure = true;
        delta.backpressure_gates += 1;
        update_interest(c);
        return;
      }
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        const auto arrived = Clock::now();
        c.decoder.feed(buf, static_cast<std::size_t>(n));
        drain_frames(c, arrived);
        if (static_cast<std::size_t>(n) < sizeof(buf)) return;
        continue;
      }
      if (n == 0) {  // orderly peer shutdown
        c.closing = true;
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      c.closing = true;
      return;
    }
  }

  void drain_frames(Conn& c, Clock::time_point arrived) {
    while (!c.closing) {
      net::FrameDecoder::Result r = c.decoder.next();
      if (r.status == net::FrameDecoder::Status::kNeedMore) return;
      if (r.status == net::FrameDecoder::Status::kError) {
        delta.malformed_frames += 1;
        c.closing = true;
        return;
      }
      delta.frames_in += 1;
      handle_message(c, *r.message, arrived);
    }
  }

  void handle_message(Conn& c, const net::Message& m,
                      Clock::time_point arrived) {
    if (const auto* upd = std::get_if<net::LocationUpdate>(&m)) {
      c.is_updater = true;
      if (staged_updates.empty()) {
        ingest_deadline =
            arrived + std::chrono::milliseconds(opt.flush_deadline_ms);
      }
      // The wire carries no timestamp; stamp 0.0 so the stored bytes are a
      // pure function of the message stream (the byte-identity contract).
      staged_updates.push_back(mobility::LocationRecord{
          upd->user, upd->location, upd->seq, 0.0});
      pending_acks.push_back(PendingAck{c.serial, arrived});
      delta.updates_in += 1;
      return;
    }
    if (const auto* loc = std::get_if<net::LocateRequest>(&m)) {
      delta.locates_in += 1;
      stage_query(c, mobility::Query::locate(loc->user), loc->request_id,
                  net::MsgType::kLocateRequest, arrived);
      return;
    }
    if (const auto* rq = std::get_if<net::LocationQuery>(&m)) {
      delta.ranges_in += 1;
      stage_query(c, mobility::Query::range(rq->area), rq->query_id,
                  net::MsgType::kLocationQuery, arrived);
      return;
    }
    if (const auto* nr = std::get_if<net::NearestRequest>(&m)) {
      delta.nearests_in += 1;
      stage_query(c, mobility::Query::nearest(nr->center, nr->k),
                  nr->query_id, net::MsgType::kNearestRequest, arrived);
      return;
    }
    if (const auto* sub = std::get_if<net::Subscribe>(&m)) {
      delta.subscribes_in += 1;
      const SubscriptionSpec spec = subscription_spec(*sub);
      if (spec.kind == pubsub::SubKind::kFriend) {
        eng.subscriptions.subscribe_friend(*sub, spec.friend_user);
      } else {
        eng.subscriptions.subscribe(*sub, spec.kind);
      }
      sub_owner[sub->sub_id] = c.serial;
      // Keep the index grid pitch tracking the subscription population
      // (log-many rebuilds, geometric total cost); never changes which
      // notifications match, only how fast matching runs.
      eng.subscriptions.refresh();
      net::SubscribeAck ack;
      ack.sub_id = sub->sub_id;
      ack.region = kInvalidRegion;
      queue(c, ack);
      samples.emplace_back(net::MsgType::kSubscribe,
                           micros_between(arrived, Clock::now()));
      return;
    }
    if (const auto* unsub = std::get_if<net::Unsubscribe>(&m)) {
      delta.unsubscribes_in += 1;
      eng.subscriptions.unsubscribe(unsub->sub_id);
      sub_owner.erase(unsub->sub_id);
      return;
    }
    // A validly encoded message this edge does not serve (overlay
    // control traffic and the like): counted, not fatal.
    delta.unexpected_messages += 1;
  }

  void stage_query(Conn& c, const mobility::Query& q, std::uint64_t id,
                   net::MsgType req_type, Clock::time_point arrived) {
    staged_queries.push_back(q);
    pending_replies.push_back(PendingReply{c.serial, id, req_type, arrived});
    if (staged_queries.size() >= kQueryFlushRequests) {
      // Mid-cycle hard cap: run the batch now rather than letting one
      // giant read burst grow it without bound.  Visibility rule first.
      flush_ingest(FlushReason::kForced);
      flush_queries();
    }
  }

  // ---- flushing --------------------------------------------------------

  void flush_ingest(FlushReason reason) {
    if (staged_updates.empty()) return;
    eng.directory.apply_updates(staged_updates);
    delta.ingest_flushes += 1;
    switch (reason) {
      case FlushReason::kSize: delta.size_flushes += 1; break;
      case FlushReason::kDeadline: delta.deadline_flushes += 1; break;
      case FlushReason::kForced: delta.forced_flushes += 1; break;
    }

    // Acks carry the post-apply owning region — only now knowable.
    const auto now = Clock::now();
    for (std::size_t i = 0; i < pending_acks.size(); ++i) {
      const PendingAck& a = pending_acks[i];
      auto it = conns.find(a.serial);
      if (it == conns.end() || it->second.closing) continue;
      net::LocationUpdateAck ack;
      ack.user = staged_updates[i].user;
      ack.seq = staged_updates[i].seq;
      ack.region = eng.directory.region_of(ack.user);
      queue(it->second, ack);
      delta.acks_out += 1;
      samples.emplace_back(net::MsgType::kLocationUpdate,
                           micros_between(a.arrived, now));
    }
    staged_updates.clear();
    pending_acks.clear();

    // Each flush is a notification epoch: drain the movement the batch
    // just made visible and push to the owning connections.
    const std::vector<pubsub::Notification> batch = eng.notifications.drain();
    net::Notify msg;
    for (const pubsub::Notification& n : batch) {
      auto owner = sub_owner.find(n.sub_id);
      if (owner == sub_owner.end()) continue;
      auto it = conns.find(owner->second);
      if (it == conns.end() || it->second.closing) continue;
      eng.notifications.to_notify(n, msg);
      queue(it->second, msg);
      delta.notifies_out += 1;
    }

    // The queue drained: re-open every connection parked on backpressure.
    for (auto& [serial, c] : conns) {
      if (c.gated_backpressure) {
        c.gated_backpressure = false;
        update_interest(c);
      }
    }
  }

  void flush_queries() {
    if (staged_queries.empty()) return;
    delta.query_flushes += 1;
    // On the loop thread the batch runs in slices, and each slice's replies
    // are sent before the next slice runs, so the client decodes slice k
    // while the engine answers slice k + 1.  Every slice answers from the
    // same snapshot: nothing ingests in between.  A pooled engine answers
    // the whole batch in one dispatch, since each dispatch wakes every
    // parked worker.
    const std::span<const mobility::Query> batch(staged_queries);
    const std::size_t slice =
        eng.queries.thread_count() == 1 ? kQuerySlice : batch.size();
    for (std::size_t lo = 0; lo < batch.size(); lo += slice) {
      const std::size_t hi = std::min(batch.size(), lo + slice);
      const std::vector<mobility::QueryResult> results =
          eng.queries.run(batch.subspan(lo, hi - lo));
      for (std::size_t i = lo; i < hi; ++i) queue_reply(i, results[i - lo]);
      if (hi < batch.size()) send_slice(lo, hi);
    }
    staged_queries.clear();
    pending_replies.clear();
  }

  /// Frames the reply owed for staged_queries[i].
  void queue_reply(std::size_t i, const mobility::QueryResult& r) {
    const PendingReply& p = pending_replies[i];
    auto it = conns.find(p.serial);
    if (it == conns.end() || it->second.closing) return;
    Conn& c = it->second;
    if (p.req_type == net::MsgType::kLocateRequest) {
      net::LocateReply reply;
      reply.request_id = p.id;
      reply.user = staged_queries[i].user;
      reply.found = r.found;
      if (r.found) {
        reply.location = r.located.position;
        reply.seq = r.located.seq;
        reply.region = eng.directory.region_of(reply.user);
      } else {
        reply.region = kInvalidRegion;
      }
      queue(c, reply);
    } else {
      // The engine's answer is the reply's payload, encoded in place.
      queue(c, net::QueryResultOf<mobility::QueryResult>{
                   p.id, kInvalidRegion, net::EncodedBlob(r)});
    }
    delta.replies_out += 1;
    samples.emplace_back(p.req_type, micros_between(p.arrived, Clock::now()));
  }

  /// Sends to each live connection that replies [lo, hi) went to.  A
  /// connection whose send fails is marked closing, and the later slices
  /// skip it.
  void send_slice(std::size_t lo, std::size_t hi) {
    std::uint64_t last = 0;  // serials start at 1
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t serial = pending_replies[i].serial;
      if (serial == last) continue;
      last = serial;
      auto it = conns.find(serial);
      if (it != conns.end() && !it->second.closing) drain_out(it->second);
    }
  }

  void end_cycle() {
    const bool force = !staged_queries.empty();
    const bool at_size = staged_updates.size() >= opt.ingest_flush_records;
    const bool at_deadline =
        !staged_updates.empty() && Clock::now() >= ingest_deadline;
    if (at_size) {
      flush_ingest(FlushReason::kSize);
    } else if (at_deadline) {
      flush_ingest(FlushReason::kDeadline);
    } else if (force) {
      flush_ingest(FlushReason::kForced);
    }
    if (force) flush_queries();

    // One write pass: everything still queued leaves in as few send()
    // calls as the kernel allows, and each connection's epoll interest is
    // reconciled with its gates and backlog.
    for (auto& [serial, c] : conns) {
      if (!c.closing && c.out_pos < c.out.size()) drain_out(c);
      if (c.closing) to_close.push_back(serial);
    }
    for (std::uint64_t serial : to_close) close_conn(serial);
    to_close.clear();

    fold_stats();
  }

  // ---- writing ---------------------------------------------------------

  /// Frames `m` straight into the connection's output buffer, then gates
  /// or cuts a connection that does not drain it.  Epoll interest is left
  /// to drain_out, which every queued byte reaches within the cycle, so a
  /// backlog that a send clears before the cycle ends never arms EPOLLOUT.
  template <typename M>
  void queue(Conn& c, const M& m) {
    net::append_frame(m, c.out);
    const std::size_t backlog = c.out.size() - c.out_pos;
    if (backlog > 4 * opt.outbuf_gate_bytes) {
      // The peer is not consuming; buffering further is self-harm.
      delta.slow_consumer_closes += 1;
      c.closing = true;
      return;
    }
    if (backlog > opt.outbuf_gate_bytes && !c.gated_outbuf) {
      c.gated_outbuf = true;
      delta.outbuf_gates += 1;
    }
  }

  void drain_out(Conn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      c.closing = true;
      return;
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    } else if (c.out_pos > 65536 && c.out_pos >= c.out.size() / 2) {
      c.out.erase(c.out.begin(),
                  c.out.begin() + static_cast<std::ptrdiff_t>(c.out_pos));
      c.out_pos = 0;
    }
    if (c.gated_outbuf &&
        c.out.size() - c.out_pos <= opt.outbuf_gate_bytes / 2) {
      c.gated_outbuf = false;
    }
    update_interest(c);
  }

  // ---- stats -----------------------------------------------------------

  void fold_stats() {
    if (samples.empty() && !counters_dirty()) return;
    std::lock_guard<std::mutex> lock(stats_mu);
    fold_counters();
    for (const auto& [type, micros] : samples) {
      hists[static_cast<std::size_t>(type)].record_micros(micros);
    }
    samples.clear();
  }

  bool counters_dirty() const {
    static const Counters kZero{};
    return std::memcmp(&delta, &kZero, sizeof(Counters)) != 0;
  }

  void fold_counters() {
    auto add = [](std::uint64_t& into, std::uint64_t& from) {
      into += from;
      from = 0;
    };
    add(counters.accepted, delta.accepted);
    add(counters.closed, delta.closed);
    add(counters.frames_in, delta.frames_in);
    add(counters.updates_in, delta.updates_in);
    add(counters.locates_in, delta.locates_in);
    add(counters.ranges_in, delta.ranges_in);
    add(counters.nearests_in, delta.nearests_in);
    add(counters.subscribes_in, delta.subscribes_in);
    add(counters.unsubscribes_in, delta.unsubscribes_in);
    add(counters.acks_out, delta.acks_out);
    add(counters.replies_out, delta.replies_out);
    add(counters.notifies_out, delta.notifies_out);
    add(counters.ingest_flushes, delta.ingest_flushes);
    add(counters.size_flushes, delta.size_flushes);
    add(counters.deadline_flushes, delta.deadline_flushes);
    add(counters.forced_flushes, delta.forced_flushes);
    add(counters.query_flushes, delta.query_flushes);
    add(counters.backpressure_gates, delta.backpressure_gates);
    add(counters.outbuf_gates, delta.outbuf_gates);
    add(counters.slow_consumer_closes, delta.slow_consumer_closes);
    add(counters.malformed_frames, delta.malformed_frames);
    add(counters.unexpected_messages, delta.unexpected_messages);
  }
};

Server::Server(ServerEngines engines, core::ServeOptions options)
    : options_(options), impl_(std::make_unique<Impl>(engines, options_)) {}

Server::~Server() { stop(); }

void Server::start() { impl_->start(); }

void Server::stop() { impl_->stop(); }

bool Server::running() const noexcept {
  return impl_->is_running.load(std::memory_order_acquire);
}

std::uint16_t Server::port() const noexcept { return impl_->bound_port; }

std::size_t Server::connection_count() const {
  return impl_->live_conns.load(std::memory_order_relaxed);
}

Server::Counters Server::counters() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  return impl_->counters;
}

metrics::LatencyHistogram Server::latency(net::MsgType type) const {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  return impl_->hists[static_cast<std::size_t>(type)];
}

}  // namespace geogrid::serve

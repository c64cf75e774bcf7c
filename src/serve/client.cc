#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "serve/server.h"

namespace geogrid::serve {

namespace {

/// Reconstructs the engine-level locate answer from its wire reply.
mobility::QueryResult from_locate_reply(const net::LocateReply& reply) {
  mobility::QueryResult r;
  r.kind = mobility::Query::Kind::kLocate;
  r.found = reply.found;
  if (reply.found) {
    r.located = mobility::LocationRecord{reply.user, reply.location,
                                         reply.seq, 0.0};
  }
  return r;
}

mobility::QueryResult from_payload_reply(const net::QueryResult& reply) {
  net::Reader r(reinterpret_cast<const std::byte*>(reply.payload.data()),
                reply.payload.size());
  mobility::QueryResult out = mobility::QueryResult::decode(r);
  if (!r.done()) {
    throw std::runtime_error("trailing bytes in query reply payload");
  }
  return out;
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : options_(std::move(other.options_)),
      fd_(std::exchange(other.fd_, -1)),
      decoder_(std::move(other.decoder_)),
      wire_(std::move(other.wire_)),
      notifications_(std::move(other.notifications_)),
      acks_owed_(std::exchange(other.acks_owed_, 0)),
      next_id_(other.next_id_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    options_ = std::move(other.options_);
    fd_ = std::exchange(other.fd_, -1);
    decoder_ = std::move(other.decoder_);
    wire_ = std::move(other.wire_);
    notifications_ = std::move(other.notifications_);
    acks_owed_ = std::exchange(other.acks_owed_, 0);
    next_id_ = other.next_id_;
  }
  return *this;
}

void Client::connect() {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("client socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("bad client host: " + options_.host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("client connect() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  decoder_ = net::FrameDecoder(
      net::FrameDecoder::Options{options_.max_frame_bytes});
  acks_owed_ = 0;
}

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Client::send_all(std::span<const std::byte> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("client send() failed");
  }
}

std::optional<net::Message> Client::next_frame() {
  while (true) {
    net::FrameDecoder::Result r = decoder_.next();
    if (r.status == net::FrameDecoder::Status::kError) {
      throw std::runtime_error("client stream malformed: " + r.error);
    }
    if (r.status == net::FrameDecoder::Status::kNeedMore) return std::nullopt;
    if (auto* notify = std::get_if<net::Notify>(&*r.message)) {
      notifications_.push_back(std::move(*notify));
      continue;
    }
    if (acks_owed_ > 0 &&
        std::holds_alternative<net::LocationUpdateAck>(*r.message)) {
      --acks_owed_;  // an unawaited update batch's ack
      continue;
    }
    return std::move(*r.message);
  }
}

bool Client::receive(bool wait) {
  std::byte buf[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), wait ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && !wait && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return false;
    }
    throw std::runtime_error(n == 0 ? "server closed the connection"
                                    : "client recv() failed");
  }
}

net::Message Client::read_message() {
  while (true) {
    if (std::optional<net::Message> m = next_frame()) return std::move(*m);
    receive(/*wait=*/true);
  }
}

std::size_t Client::update_batch(
    std::span<const mobility::LocationRecord> records, bool wait_acks) {
  wire_.clear();
  for (const mobility::LocationRecord& rec : records) {
    net::LocationUpdate upd;
    upd.user = rec.user;
    upd.location = rec.position;
    upd.seq = rec.seq;
    net::append_frame(upd, wire_);
  }
  send_all(wire_);
  if (!wait_acks) {
    acks_owed_ += records.size();
    return 0;
  }
  std::size_t acked = 0;
  while (acked < records.size()) {
    const net::Message m = read_message();
    if (!std::holds_alternative<net::LocationUpdateAck>(m)) {
      throw std::runtime_error("expected LocationUpdateAck, got " +
                               std::string(net::message_name(
                                   net::message_type(m))));
    }
    ++acked;
  }
  return acked;
}

mobility::QueryResult Client::locate(UserId user) {
  const mobility::Query q = mobility::Query::locate(user);
  return query_batch(std::span<const mobility::Query>(&q, 1)).front();
}

std::vector<mobility::QueryResult> Client::query_batch(
    std::span<const mobility::Query> queries) {
  wire_.clear();
  std::vector<std::uint64_t> ids;
  ids.reserve(queries.size());
  for (const mobility::Query& q : queries) {
    const std::uint64_t id = next_id_++;
    ids.push_back(id);
    switch (q.kind) {
      case mobility::Query::Kind::kLocate: {
        net::LocateRequest req;
        req.request_id = id;
        req.user = q.user;
        net::append_frame(req, wire_);
        break;
      }
      case mobility::Query::Kind::kRange: {
        net::LocationQuery req;
        req.query_id = id;
        req.area = q.rect;
        net::append_frame(req, wire_);
        break;
      }
      case mobility::Query::Kind::kNearest: {
        net::NearestRequest req;
        req.query_id = id;
        req.center = q.point;
        req.k = q.k;
        net::append_frame(req, wire_);
        break;
      }
    }
  }
  send_all(wire_);

  std::vector<mobility::QueryResult> results;
  results.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const net::Message m = read_message();
    if (const auto* reply = std::get_if<net::LocateReply>(&m)) {
      if (reply->request_id != ids[i]) {
        throw std::runtime_error("locate reply id mismatch");
      }
      results.push_back(from_locate_reply(*reply));
      continue;
    }
    if (const auto* reply = std::get_if<net::QueryResult>(&m)) {
      if (reply->query_id != ids[i]) {
        throw std::runtime_error("query reply id mismatch");
      }
      results.push_back(from_payload_reply(*reply));
      continue;
    }
    throw std::runtime_error("unexpected reply " +
                             std::string(net::message_name(
                                 net::message_type(m))));
  }
  return results;
}

void Client::subscribe_area(std::uint64_t sub_id, const Rect& area,
                            std::string filter) {
  net::Subscribe msg;
  msg.sub_id = sub_id;
  msg.area = area;
  msg.filter = std::move(filter);
  send_all(net::encode_frame(net::Message{msg}));
  const net::Message m = read_message();
  const auto* ack = std::get_if<net::SubscribeAck>(&m);
  if (ack == nullptr || ack->sub_id != sub_id) {
    throw std::runtime_error("expected SubscribeAck for sub " +
                             std::to_string(sub_id));
  }
}

void Client::subscribe_friend(std::uint64_t sub_id, UserId user) {
  net::Subscribe msg;
  msg.sub_id = sub_id;
  msg.filter = friend_filter(user);
  send_all(net::encode_frame(net::Message{msg}));
  const net::Message m = read_message();
  const auto* ack = std::get_if<net::SubscribeAck>(&m);
  if (ack == nullptr || ack->sub_id != sub_id) {
    throw std::runtime_error("expected SubscribeAck for sub " +
                             std::to_string(sub_id));
  }
}

void Client::unsubscribe(std::uint64_t sub_id) {
  net::Unsubscribe msg;
  msg.sub_id = sub_id;
  send_all(net::encode_frame(net::Message{msg}));
}

std::size_t Client::poll_notifications(int timeout_ms) {
  // Only Notify frames and the acks owed to an unawaited update batch
  // arrive unasked (next_frame sets both aside); any other ack or reply
  // here answers a request nobody is waiting for, and dropping it would
  // leave the next blocking call waiting forever.
  const auto only_notifys = [this] {
    if (std::optional<net::Message> m = next_frame()) {
      throw std::runtime_error(
          "unexpected " +
          std::string(net::message_name(net::message_type(*m))) +
          " while polling notifys");
    }
  };
  only_notifys();
  pollfd p{fd_, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) > 0 && receive(/*wait=*/false)) {
    only_notifys();
  }
  return notifications_.size();
}

std::vector<net::Notify> Client::take_notifications() {
  return std::exchange(notifications_, {});
}

}  // namespace geogrid::serve

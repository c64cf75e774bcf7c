// Minimal blocking client for the serving edge.
//
// One Client is one TCP connection speaking the framed wire protocol.  It
// is deliberately synchronous — the test/bench harness wants a precise
// "send these, now wait for exactly those" discipline, not another event
// loop — and deliberately thin: every reply is decoded back into the same
// engine-level types (mobility::QueryResult, net::Notify) the in-process
// reference path produces, so byte-identity comparisons need no
// translation layer.
//
// Demultiplexing: the server pushes Notify frames on the same connection
// that carries acks and replies, interleaved at flush boundaries.  Every
// blocking wait therefore buffers Notify frames aside
// (take_notifications() hands them over) and returns on the frame it was
// actually waiting for.  Not thread-safe; one thread per Client.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/ids.h"
#include "mobility/location_store.h"
#include "mobility/query_engine.h"
#include "net/framing.h"
#include "net/messages.h"

namespace geogrid::serve {

class Client {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::size_t max_frame_bytes = net::kDefaultMaxFrameBytes;
  };

  Client() = default;
  explicit Client(Options options) : options_(std::move(options)) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects (blocking).  Throws std::runtime_error on failure.
  void connect();
  void close();
  bool connected() const noexcept { return fd_ >= 0; }

  /// Sends one LocationUpdate per record (one send() for the whole batch)
  /// and, when `wait_acks`, blocks until every ack arrived.  The server
  /// acks at its next ingest flush, so an unacked send returns as soon as
  /// the bytes are written; its acks are counted as owed and skipped by
  /// whichever later call receives them.  Returns the number of acks this
  /// call consumed.
  std::size_t update_batch(std::span<const mobility::LocationRecord> records,
                           bool wait_acks = true);

  /// Synchronous locate; the reply is reconstructed into the engine's
  /// result type (timestamp 0.0, matching what the server stores for
  /// wire-ingested records).
  mobility::QueryResult locate(UserId user);

  /// Sends a mixed batch (locate / range / nearest) in one write and
  /// blocks for all replies, returned in request order.
  std::vector<mobility::QueryResult> query_batch(
      std::span<const mobility::Query> queries);

  /// Registers a rect subscription under `filter` (see
  /// serve::geofence_filter / range_filter for the kind convention) and
  /// waits for the ack.
  void subscribe_area(std::uint64_t sub_id, const Rect& area,
                      std::string filter);

  /// Registers a friend-tracking subscription for `user`.
  void subscribe_friend(std::uint64_t sub_id, UserId user);

  /// Fire-and-forget removal.
  void unsubscribe(std::uint64_t sub_id);

  /// Blocks up to `timeout_ms` for pushed frames, then returns the number
  /// of Notify frames buffered in total (0 on timeout with none pending).
  /// Throws like the blocking calls on EOF, a recv() error or a malformed
  /// stream, and on any frame other than Notify or an owed ack (a reply
  /// nobody awaits).
  std::size_t poll_notifications(int timeout_ms);

  /// Hands over every buffered Notify (pushed during any prior wait).
  std::vector<net::Notify> take_notifications();

 private:
  /// Blocks until one non-Notify frame arrives (Notifys are buffered
  /// aside); throws on EOF or malformed stream.
  net::Message read_message();
  /// Decodes buffered frames, setting Notifys aside and skipping owed
  /// acks, up to the first other frame; nullopt when the decoder needs
  /// more bytes.  Throws on a malformed stream.
  std::optional<net::Message> next_frame();
  /// Feeds one recv() into the decoder.  Without `wait` it returns false
  /// when nothing is readable; throws on EOF or a recv() error.
  bool receive(bool wait);
  void send_all(std::span<const std::byte> bytes);

  Options options_{};
  int fd_ = -1;
  net::FrameDecoder decoder_;
  /// Request frames of the current call; cleared per call, capacity kept.
  net::FrameBuffer wire_;
  std::vector<net::Notify> notifications_;
  std::size_t acks_owed_ = 0;  ///< acks of unawaited update batches
  std::uint64_t next_id_ = 1;
};

}  // namespace geogrid::serve

// FrameDecoder against hostile and fragmented byte streams: the serving
// edge's first line of defence must turn every malformed input into a
// typed error without ever reading past the buffered bytes.
#include "net/framing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <variant>

#include "sample_messages.h"

namespace geogrid::net {
namespace {

using Status = FrameDecoder::Status;

Message sample_message() {
  LocationUpdateAck ack;
  ack.user = UserId{321};
  ack.seq = 17;
  ack.region = RegionId{29};
  return ack;
}

/// A message body as a growing Writer appends it, field by field: the
/// reference for bodies that are sized first and written in place.
std::vector<std::byte> appended_body(const Message& m) {
  Writer w;
  put(w, message_type(m));
  std::visit([&w](const auto& msg) { put(w, msg); }, m);
  return std::move(w).take();
}

/// `prior`, then [varint length][body], each appended through a Writer.
std::vector<std::byte> appended_frame(std::vector<std::byte> prior,
                                      const std::vector<std::byte>& body) {
  Writer len;
  len.varint(body.size());
  prior.insert(prior.end(), len.bytes().begin(), len.bytes().end());
  prior.insert(prior.end(), body.begin(), body.end());
  return prior;
}

/// Bytes an encode(sink) writes raw, with no length of their own: the
/// payload of a QueryResultOf in these tests.
struct RawBytes {
  std::string bytes;

  template <typename Sink>
  void encode(Sink& sink) const {
    for (const char c : bytes) sink.u8(static_cast<std::uint8_t>(c));
  }
};

TEST(Framing, RoundTripSingleFrame) {
  const Message m = sample_message();
  const std::vector<std::byte> wire = encode_frame(m);

  FrameDecoder dec;
  dec.feed(wire);
  FrameDecoder::Result r = dec.next();
  ASSERT_EQ(r.status, Status::kFrame);
  ASSERT_TRUE(r.message.has_value());
  EXPECT_EQ(encode_message(*r.message), encode_message(m));
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_EQ(dec.next().status, Status::kNeedMore);
}

TEST(Framing, AppendFrameReturnsFramedSize) {
  std::vector<std::byte> out;
  const std::size_t n = append_frame(sample_message(), out);
  EXPECT_EQ(n, out.size());
  const std::size_t m = append_frame(sample_message(), out);
  EXPECT_EQ(n + m, out.size());

  // Every message type, framed in place after bytes already in the buffer,
  // through the variant and through its concrete type: the old bytes stay,
  // then come the varint length and encode_message's body, byte for byte
  // what appending them through a Writer gives.
  const std::vector<std::byte> prior = {std::byte{0xab}, std::byte{0xcd},
                                        std::byte{0xef}};
  const std::vector<Message> all = testutil::every_message_type();
  ASSERT_EQ(all.size(), 48u);
  for (const Message& msg : all) {
    const std::string_view name = message_name(message_type(msg));
    const std::vector<std::byte> body = encode_message(msg);
    EXPECT_EQ(body, appended_body(msg)) << name;
    const std::vector<std::byte> want = appended_frame(prior, body);

    std::vector<std::byte> by_variant = prior;
    EXPECT_EQ(append_frame(msg, by_variant), want.size() - prior.size())
        << name;
    EXPECT_EQ(by_variant, want) << name;

    std::vector<std::byte> by_type = prior;
    std::visit([&by_type](const auto& typed) { append_frame(typed, by_type); },
               msg);
    EXPECT_EQ(by_type, want) << name;
  }
}

TEST(Framing, InPlaceFramesAtVarintWidthBoundaries) {
  // Bodies of 127/128 and 16,383/16,384 bytes widen the length prefix from
  // one to two to three bytes; QueryResult payloads of those sizes widen
  // the payload's own length the same way.  A QueryResult with a payload
  // string and a QueryResultOf writing the same bytes must both frame to
  // what appending through a Writer gives.
  const auto reply_of = [](std::size_t payload_bytes) {
    return QueryResult{42, RegionId{7}, std::string(payload_bytes, 'p')};
  };
  const auto check = [](const QueryResult& reply) {
    const std::vector<std::byte> want =
        appended_frame({std::byte{0x01}}, appended_body(reply));
    const std::size_t payload = reply.payload.size();

    std::vector<std::byte> with_string = {std::byte{0x01}};
    const std::size_t framed = append_frame(reply, with_string);
    EXPECT_EQ(with_string, want) << payload << "-byte payload";

    const RawBytes raw{reply.payload};
    std::vector<std::byte> in_place = {std::byte{0x01}};
    append_frame(QueryResultOf<RawBytes>{reply.query_id, reply.from_region,
                                         EncodedBlob(raw)},
                 in_place);
    EXPECT_EQ(in_place, want) << payload << "-byte payload";
    return framed;
  };

  for (const std::size_t payload : {127u, 128u, 16383u, 16384u}) {
    check(reply_of(payload));
  }
  for (const std::size_t body : {127u, 128u, 16383u, 16384u}) {
    // The payload that makes the whole body `body` bytes long.
    std::size_t payload = body;
    while (message_size(reply_of(payload)) > body) --payload;
    ASSERT_EQ(message_size(reply_of(payload)), body);
    const std::size_t prefix = check(reply_of(payload)) - body;
    EXPECT_EQ(prefix, body < 128 ? 1u : body < 16384 ? 2u : 3u) << body;
  }
}

TEST(Framing, FrameBufferFramesEveryByteWithoutZeroFill) {
  // The server's FrameBuffer grows without zero-filling, so a byte the
  // cursor skipped would keep whatever the spare capacity held.  Each
  // message type is framed after a prior byte into a buffer whose spare
  // capacity holds a non-zero pattern, without reallocating; the bytes
  // must be exactly encode_frame's.
  for (const Message& msg : testutil::every_message_type()) {
    const std::vector<std::byte> want = encode_frame(msg);
    FrameBuffer buf;
    buf.resize(want.size() + 64, std::byte{0xa5});
    buf.resize(1);
    buf[0] = std::byte{0x01};
    const std::byte* data = buf.data();
    EXPECT_EQ(append_frame(msg, buf), want.size());
    ASSERT_EQ(buf.data(), data) << "the frame must land in the spare bytes";
    EXPECT_EQ(buf[0], std::byte{0x01});
    EXPECT_TRUE(std::equal(buf.begin() + 1, buf.end(), want.begin(),
                           want.end()))
        << message_name(message_type(msg));
  }
}

TEST(Framing, AppendFrameGrowsGeometrically) {
  // A burst of replies to one connection appends thousands of frames to
  // one buffer.  Growth must stay geometric (a handful of reallocations),
  // not one reallocate-and-copy of the whole buffer per frame.
  std::vector<std::byte> out;
  std::size_t moves = 0;
  const std::byte* data = out.data();
  for (int i = 0; i < 20000; ++i) {
    append_frame(sample_message(), out);
    if (out.data() != data) {
      data = out.data();
      ++moves;
    }
  }
  EXPECT_LT(moves, 64u);
}

TEST(Framing, ByteAtATimeReassembly) {
  std::vector<std::byte> wire;
  const Message m = sample_message();
  for (int i = 0; i < 3; ++i) append_frame(m, wire);

  FrameDecoder dec;
  std::size_t frames = 0;
  for (std::byte b : wire) {
    dec.feed(&b, 1);
    while (true) {
      FrameDecoder::Result r = dec.next();
      if (r.status != Status::kFrame) {
        ASSERT_EQ(r.status, Status::kNeedMore);
        break;
      }
      EXPECT_EQ(encode_message(*r.message), encode_message(m));
      ++frames;
    }
  }
  EXPECT_EQ(frames, 3u);
}

TEST(Framing, EveryPrefixTruncationNeedsMore) {
  // No strict prefix of a valid frame may produce a frame or an error.
  const std::vector<std::byte> wire = encode_frame(sample_message());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(wire.data(), cut);
    EXPECT_EQ(dec.next().status, Status::kNeedMore) << "cut at " << cut;
    EXPECT_FALSE(dec.failed());
  }
}

TEST(Framing, TruncatedVarintPrefixWaits) {
  // 0x80 0x80: two continuation bytes and then silence — an incomplete
  // length, not (yet) an error.
  const std::byte partial[] = {std::byte{0x80}, std::byte{0x80}};
  FrameDecoder dec;
  dec.feed(partial, sizeof(partial));
  EXPECT_EQ(dec.next().status, Status::kNeedMore);
  EXPECT_FALSE(dec.failed());
}

TEST(Framing, OverlongVarintPrefixFails) {
  // Six continuation bytes: no frame length needs that width; a peer
  // sending it is feeding garbage, and waiting forever would be the bug.
  std::vector<std::byte> bad(6, std::byte{0x80});
  FrameDecoder dec;
  dec.feed(bad);
  FrameDecoder::Result r = dec.next();
  ASSERT_EQ(r.status, Status::kError);
  EXPECT_NE(r.error.find("varint"), std::string::npos);
  EXPECT_TRUE(dec.failed());
}

TEST(Framing, OversizedLengthPrefixFailsBeforeBuffering) {
  // A frame announcing 1 GB against a 1 KB cap must die on the prefix
  // alone — no body bytes are ever required.
  Writer w;
  w.varint(1u << 30);
  FrameDecoder dec(FrameDecoder::Options{1024});
  dec.feed(w.bytes());
  FrameDecoder::Result r = dec.next();
  ASSERT_EQ(r.status, Status::kError);
  EXPECT_NE(r.error.find("oversized"), std::string::npos);
}

TEST(Framing, FrameAtExactlyMaxSizePasses) {
  const Message m = sample_message();
  const std::size_t body = encode_message(m).size();
  FrameDecoder dec(FrameDecoder::Options{body});
  dec.feed(encode_frame(m));
  EXPECT_EQ(dec.next().status, Status::kFrame);

  FrameDecoder tight(FrameDecoder::Options{body - 1});
  tight.feed(encode_frame(m));
  EXPECT_EQ(tight.next().status, Status::kError);
}

TEST(Framing, UnknownMessageTagFails) {
  Writer body;
  body.u16(0x7fff);  // no such MsgType
  Writer wire;
  wire.varint(body.size());
  FrameDecoder dec;
  dec.feed(wire.bytes());
  dec.feed(body.bytes());
  FrameDecoder::Result r = dec.next();
  ASSERT_EQ(r.status, Status::kError);
  EXPECT_NE(r.error.find("unknown message type"), std::string::npos);
}

TEST(Framing, TruncatedBodyInsideFrameFails) {
  // A complete frame whose declared length cuts a field in half: the
  // codec's truncation error must surface as kError, not an overread.
  const std::vector<std::byte> msg = encode_message(sample_message());
  Writer wire;
  wire.varint(msg.size() - 1);
  FrameDecoder dec;
  dec.feed(wire.bytes());
  dec.feed(msg.data(), msg.size() - 1);
  EXPECT_EQ(dec.next().status, Status::kError);
}

TEST(Framing, TrailingGarbageInsideFrameFails) {
  std::vector<std::byte> msg = encode_message(sample_message());
  msg.push_back(std::byte{0xee});
  Writer wire;
  wire.varint(msg.size());
  FrameDecoder dec;
  dec.feed(wire.bytes());
  dec.feed(msg);
  FrameDecoder::Result r = dec.next();
  ASSERT_EQ(r.status, Status::kError);
  EXPECT_NE(r.error.find("trailing"), std::string::npos);
}

TEST(Framing, ZeroLengthFrameFails) {
  // length 0 means no type tag at all — truncated message.
  const std::byte zero{0x00};
  FrameDecoder dec;
  dec.feed(&zero, 1);
  EXPECT_EQ(dec.next().status, Status::kError);
}

TEST(Framing, ErrorIsStickyAndDropsBuffer) {
  FrameDecoder dec;
  std::vector<std::byte> bad(6, std::byte{0x80});
  dec.feed(bad);
  ASSERT_EQ(dec.next().status, Status::kError);
  // A valid frame fed afterwards must not resurrect the stream: framing
  // was lost, the connection is done.
  dec.feed(encode_frame(sample_message()));
  EXPECT_EQ(dec.next().status, Status::kError);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Framing, ManyFramesAcrossChunksCompactTheBuffer) {
  // Stream 2k frames in ragged chunk sizes; the decoder must hand back
  // every frame in order while its buffer stays bounded (compaction).
  std::vector<std::byte> wire;
  constexpr std::size_t kFrames = 2000;
  for (std::size_t i = 0; i < kFrames; ++i) {
    LocationUpdateAck ack;
    ack.user = UserId{static_cast<std::uint32_t>(i)};
    ack.seq = i;
    ack.region = RegionId{7};
    append_frame(Message{ack}, wire);
  }

  FrameDecoder dec;
  std::size_t fed = 0;
  std::size_t got = 0;
  std::size_t chunk = 1;
  while (fed < wire.size()) {
    const std::size_t n = std::min(chunk, wire.size() - fed);
    dec.feed(wire.data() + fed, n);
    fed += n;
    chunk = chunk % 613 + 7;  // ragged, deterministic
    while (true) {
      FrameDecoder::Result r = dec.next();
      if (r.status != Status::kFrame) break;
      const auto& ack = std::get<LocationUpdateAck>(*r.message);
      EXPECT_EQ(ack.seq, got);
      ++got;
    }
    EXPECT_LT(dec.buffered(), 8192u);
  }
  EXPECT_EQ(got, kFrames);
}

TEST(Framing, EveryPrefixOfMalformedStreamNeverOverreads) {
  // Fuzz-ish sweep: truncate a stream that *ends* malformed at every
  // possible point.  Whatever the cut, the decoder must answer from
  // buffered bytes only — ASan turns any overread into a hard failure.
  std::vector<std::byte> wire = encode_frame(sample_message());
  Writer badbody;
  badbody.u16(0x7ffe);
  Writer badlen;
  badlen.varint(badbody.size());
  wire.insert(wire.end(), badlen.bytes().begin(), badlen.bytes().end());
  wire.insert(wire.end(), badbody.bytes().begin(), badbody.bytes().end());

  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(wire.data(), cut);
    while (true) {
      FrameDecoder::Result r = dec.next();
      if (r.status == Status::kFrame) continue;
      if (r.status == Status::kNeedMore) break;
      EXPECT_TRUE(dec.failed());
      break;
    }
  }
}

/// `[u16 type][before...][varint count]`: the body of a count-prefixed
/// message cut right after its element count.
template <typename... Fields>
std::vector<std::byte> counted_body(MsgType type, std::uint64_t count,
                                    const Fields&... before) {
  Writer body;
  put(body, type);
  (put(body, before), ...);
  body.varint(count);
  return std::move(body).take();
}

TEST(Framing, HostileElementCountsFailWithoutThrowing) {
  // A peer that declares 2^40 or 2^62 elements in a frame of a few bytes
  // must cost it the connection, not the decoder an allocation it cannot
  // make: next() returns kError and never throws.
  RegionSnapshot snap;
  snap.region = RegionId{1};
  snap.rect = Rect{0, 0, 8, 8};
  for (const std::uint64_t count : {std::uint64_t{1} << 40,
                                    std::uint64_t{1} << 62}) {
    const std::vector<std::byte> bodies[] = {
        counted_body(MsgType::kJoinProbeReply, count, snap),
        counted_body(MsgType::kJoinGrant, count, snap, OwnerRole::kPrimary),
        counted_body(MsgType::kRegionHandoff, count, snap),
        counted_body(MsgType::kLoadStatsExchange, count),
        counted_body(MsgType::kSwitchRequest, count,
                     SwitchKind::kPrimaryWithPrimary, snap),
        counted_body(MsgType::kMergeRequest, count, snap),
        counted_body(MsgType::kRouted, count, Point{1, 2}, std::uint16_t{3}),
    };
    for (const std::vector<std::byte>& body : bodies) {
      Reader tag(body);
      SCOPED_TRACE(std::string(message_name(get<MsgType>(tag))) +
                   " declaring " + std::to_string(count) + " elements");
      Writer frame;
      frame.blob(body);  // the length prefix, then the body
      FrameDecoder dec;
      dec.feed(frame.bytes());
      const FrameDecoder::Result r = dec.next();
      EXPECT_EQ(r.status, Status::kError);
      EXPECT_FALSE(r.message.has_value());
    }
  }

  // The 9-byte frame ServeTest.MalformedFrameClosesConnectionServerSurvives
  // sends to a live server.
  Writer frame;
  frame.blob(counted_body(MsgType::kLoadStatsExchange, 1ull << 40));
  const unsigned char sent[] = {0x08, 0x32, 0x00, 0x80, 0x80,
                                0x80, 0x80, 0x80, 0x20};
  ASSERT_EQ(frame.size(), sizeof sent);
  EXPECT_EQ(std::memcmp(frame.bytes().data(), sent, sizeof sent), 0);
}

}  // namespace
}  // namespace geogrid::net

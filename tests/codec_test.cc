// Wire codec: primitive round-trips and malformed-input rejection, plus
// field-level round-trips for the subscription/notification message family.
#include "net/codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "net/messages.h"

namespace geogrid::net {
namespace {

TEST(Codec, PrimitiveRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);
  w.string("hello geogrid");
  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.string(), "hello geogrid");
  EXPECT_TRUE(r.done());
}

TEST(Codec, VarintRoundTripBoundaries) {
  const std::uint64_t cases[] = {
      0, 1, 127, 128, 16383, 16384,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : cases) {
    Writer w;
    w.varint(v);
    Reader r(w.bytes());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Codec, VarintCompactness) {
  Writer w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Codec, FloatSpecials) {
  Writer w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  Reader r(w.bytes());
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.f64(), -0.0);
}

TEST(Codec, GeometryRoundTrip) {
  Writer w;
  put(w, geogrid::Point{1.5, -2.25});
  put(w, geogrid::Rect{0, 32, 64, 32});
  EXPECT_EQ(w.size(), 6 * sizeof(double));
  Reader r(w.bytes());
  EXPECT_EQ(get<geogrid::Point>(r), (geogrid::Point{1.5, -2.25}));
  EXPECT_EQ(get<geogrid::Rect>(r), (geogrid::Rect{0, 32, 64, 32}));
}

TEST(Codec, IdsRoundTrip) {
  Writer w;
  put(w, geogrid::NodeId{42});
  put(w, geogrid::RegionId{7});
  put(w, geogrid::kInvalidNode);
  EXPECT_EQ(w.size(), 3 * sizeof(std::uint32_t));
  Reader r(w.bytes());
  EXPECT_EQ(get<geogrid::NodeId>(r), (geogrid::NodeId{42}));
  EXPECT_EQ(get<geogrid::RegionId>(r), (geogrid::RegionId{7}));
  EXPECT_FALSE(get<geogrid::NodeId>(r).valid());
}

TEST(Codec, TruncatedInputThrows) {
  Writer w;
  w.u32(12345);
  Reader r(w.bytes().data(), 2);  // cut in half
  EXPECT_THROW(r.u32(), CodecError);
}

TEST(Codec, TruncatedStringThrows) {
  Writer w;
  w.varint(100);  // declares a 100-byte string that never follows
  Reader r(w.bytes());
  EXPECT_THROW(r.string(), CodecError);
}

TEST(Codec, OverlongVarintThrows) {
  std::vector<std::byte> bad(11, std::byte{0xff});
  Reader r(bad);
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(Codec, EmptyString) {
  Writer w;
  w.string("");
  Reader r(w.bytes());
  EXPECT_EQ(r.string(), "");
}

// --- Cursor writer ---------------------------------------------------------
//
// Writer copies each field to a cursor in a buffer that grows ahead of it.
// Every case below is checked against a reference built one byte at a time.

namespace {

void push_le(std::vector<std::byte>& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<std::byte>(v >> (8 * i)));
  }
}

void push_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

}  // namespace

TEST(Codec, CursorWriterMatchesByteAtATimeReference) {
  Writer w;
  std::vector<std::byte> ref;
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(w.bytes().empty());

  w.u8(0x7f);
  push_le(ref, 0x7f, 1);
  EXPECT_EQ(w.size(), ref.size());
  w.u32(0xdeadbeef);
  push_le(ref, 0xdeadbeef, 4);
  EXPECT_EQ(w.size(), ref.size());
  w.varint(300);
  push_varint(ref, 300);
  EXPECT_EQ(w.size(), ref.size());
  EXPECT_EQ(w.bytes(), ref);  // read mid-stream

  // Writes after bytes() land behind the bytes already read.  An empty
  // vector's blob carries a null data pointer.
  w.f64(-2.5);
  push_le(ref, std::bit_cast<std::uint64_t>(-2.5), 8);
  EXPECT_EQ(w.size(), ref.size());
  w.blob(std::vector<std::byte>{});
  push_varint(ref, 0);
  EXPECT_EQ(w.size(), ref.size());
  EXPECT_EQ(w.bytes(), ref);

  // Thousands of mixed-width fields cross every growth step of the
  // buffer; bytes() is read at irregular points in between.
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.next() >> rng.uniform_index(64);
    switch (i % 5) {
      case 0:
        w.u8(static_cast<std::uint8_t>(v));
        push_le(ref, v, 1);
        break;
      case 1:
        w.u16(static_cast<std::uint16_t>(v));
        push_le(ref, v, 2);
        break;
      case 2:
        w.u32(static_cast<std::uint32_t>(v));
        push_le(ref, v, 4);
        break;
      case 3:
        w.u64(v);
        push_le(ref, v, 8);
        break;
      default:
        w.varint(v);
        push_varint(ref, v);
    }
    ASSERT_EQ(w.size(), ref.size());
    if (i % 97 == 0) {
      ASSERT_EQ(w.bytes(), ref) << "after field " << i;
    }
  }

  // One blob past 64 KiB outgrows the buffer in a single write.
  std::vector<std::byte> big(70000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(i * 131 % 251);
  }
  w.blob(big);
  push_varint(ref, big.size());
  for (const std::byte b : big) ref.push_back(b);
  EXPECT_EQ(w.size(), ref.size());
  w.u64(0x0123456789abcdefULL);
  push_le(ref, 0x0123456789abcdefULL, 8);
  EXPECT_EQ(w.size(), ref.size());

  EXPECT_EQ(std::move(w).take(), ref);
}

// --- Subscription / notification message family -------------------------
//
// messages_test.cc proves byte-level round-trips for every message type;
// these tests additionally pin each decoded *field* so a codec change that
// swaps two same-width fields (and thus still re-encodes identically) is
// caught here.

namespace {

NodeInfo subscriber_node() {
  NodeInfo n;
  n.id = geogrid::NodeId{77};
  n.coord = geogrid::Point{3.25, -1.5};
  n.capacity = 55.5;
  return n;
}

template <typename M>
M field_roundtrip(const M& m) {
  Writer w;
  put(w, m);
  Reader r(w.bytes());
  M out = get<M>(r);
  EXPECT_TRUE(r.done()) << "decoder left trailing bytes";
  return out;
}

}  // namespace

TEST(Codec, SubscribeFieldsRoundTrip) {
  Subscribe s;
  s.sub_id = 0xfeedfacecafeULL;
  s.subscriber = subscriber_node();
  s.area = geogrid::Rect{10.5, 20.25, 4.0, 2.0};
  s.filter = "traffic/cam-12";
  s.duration = 3600.5;
  s.disseminated = true;
  const Subscribe d = field_roundtrip(s);
  EXPECT_EQ(d.sub_id, s.sub_id);
  EXPECT_EQ(d.subscriber.id, s.subscriber.id);
  EXPECT_EQ(d.subscriber.coord, s.subscriber.coord);
  EXPECT_DOUBLE_EQ(d.subscriber.capacity, s.subscriber.capacity);
  EXPECT_EQ(d.area, s.area);
  EXPECT_EQ(d.filter, s.filter);
  EXPECT_DOUBLE_EQ(d.duration, s.duration);
  EXPECT_TRUE(d.disseminated);
}

TEST(Codec, SubscribeAckFieldsRoundTrip) {
  SubscribeAck a;
  a.sub_id = 99;
  a.region = geogrid::RegionId{41};
  const SubscribeAck d = field_roundtrip(a);
  EXPECT_EQ(d.sub_id, 99u);
  EXPECT_EQ(d.region, (geogrid::RegionId{41}));
}

TEST(Codec, PublishFieldsRoundTrip) {
  Publish p;
  p.location = geogrid::Point{30.0, 40.0};
  p.topic = "parking";
  p.payload = "lot B: 0 spots";
  const Publish d = field_roundtrip(p);
  EXPECT_EQ(d.location, p.location);
  EXPECT_EQ(d.topic, p.topic);
  EXPECT_EQ(d.payload, p.payload);
}

TEST(Codec, NotifyFieldsRoundTrip) {
  Notify n;
  n.sub_id = 512;
  n.topic = "geofence";
  n.payload = "enter u42 @(1.000000, 2.000000)";
  const Notify d = field_roundtrip(n);
  EXPECT_EQ(d.sub_id, 512u);
  EXPECT_EQ(d.topic, n.topic);
  EXPECT_EQ(d.payload, n.payload);
}

TEST(Codec, UnsubscribeFieldsRoundTrip) {
  Unsubscribe u;
  u.sub_id = 0xabc;
  u.subscriber = subscriber_node();
  u.area = geogrid::Rect{1.0, 2.0, 3.0, 4.0};
  u.disseminated = true;
  const Unsubscribe d = field_roundtrip(u);
  EXPECT_EQ(d.sub_id, 0xabcu);
  EXPECT_EQ(d.subscriber.id, u.subscriber.id);
  EXPECT_EQ(d.area, u.area);
  EXPECT_TRUE(d.disseminated);
}

TEST(Codec, SubscribeEmptyFilterStaysEmpty) {
  Subscribe s;
  s.subscriber = subscriber_node();
  s.area = geogrid::Rect{0, 0, 1, 1};
  const Subscribe d = field_roundtrip(s);
  EXPECT_EQ(d.filter, "");
  EXPECT_FALSE(d.disseminated);
}

}  // namespace
}  // namespace geogrid::net

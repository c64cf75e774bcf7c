#include "net/messages.h"

#include <array>
#include <utility>

namespace geogrid::net {
namespace {

template <typename T>
Message decode_as(Reader& r) {
  return get<T>(r);
}

/// decode_as<T> for every message type, indexed by its raw wire tag (null
/// where no type uses the tag).  Each type gets its own small decoder, so
/// the compiler inlines the whole field list into it and the fields land
/// straight in the returned Message instead of in a temporary it copies.
template <std::size_t... I>
constexpr auto make_decoders(std::index_sequence<I...>) {
  std::array<Message (*)(Reader&), kMsgTypeSlots> table{};
  ((table[static_cast<std::size_t>(
        std::variant_alternative_t<I, Message>::kType)] =
        &decode_as<std::variant_alternative_t<I, Message>>),
   ...);
  return table;
}

constexpr auto kDecoders =
    make_decoders(std::make_index_sequence<std::variant_size_v<Message>>{});

}  // namespace

MsgType message_type(const Message& m) {
  return std::visit([](const auto& msg) { return msg.kType; }, m);
}

std::string_view message_name(MsgType type) {
  switch (type) {
    case MsgType::kBootstrapRegister: return "BootstrapRegister";
    case MsgType::kBootstrapEntryRequest: return "BootstrapEntryRequest";
    case MsgType::kBootstrapEntryReply: return "BootstrapEntryReply";
    case MsgType::kJoinRequest: return "JoinRequest";
    case MsgType::kJoinProbeReply: return "JoinProbeReply";
    case MsgType::kSecondaryJoinRequest: return "SecondaryJoinRequest";
    case MsgType::kSplitJoinRequest: return "SplitJoinRequest";
    case MsgType::kJoinGrant: return "JoinGrant";
    case MsgType::kJoinReject: return "JoinReject";
    case MsgType::kNeighborUpdate: return "NeighborUpdate";
    case MsgType::kNeighborRemove: return "NeighborRemove";
    case MsgType::kLeaveNotice: return "LeaveNotice";
    case MsgType::kTakeoverNotice: return "TakeoverNotice";
    case MsgType::kRegionHandoff: return "RegionHandoff";
    case MsgType::kHeartbeat: return "Heartbeat";
    case MsgType::kHeartbeatAck: return "HeartbeatAck";
    case MsgType::kSyncState: return "SyncState";
    case MsgType::kLoadStatsExchange: return "LoadStatsExchange";
    case MsgType::kStealSecondaryRequest: return "StealSecondaryRequest";
    case MsgType::kStealSecondaryGrant: return "StealSecondaryGrant";
    case MsgType::kStealSecondaryReject: return "StealSecondaryReject";
    case MsgType::kSwitchRequest: return "SwitchRequest";
    case MsgType::kSwitchGrant: return "SwitchGrant";
    case MsgType::kSwitchReject: return "SwitchReject";
    case MsgType::kMergeRequest: return "MergeRequest";
    case MsgType::kMergeGrant: return "MergeGrant";
    case MsgType::kMergeReject: return "MergeReject";
    case MsgType::kSplitRegionNotice: return "SplitRegionNotice";
    case MsgType::kTtlSearchRequest: return "TtlSearchRequest";
    case MsgType::kTtlSearchReply: return "TtlSearchReply";
    case MsgType::kOwnerProbe: return "OwnerProbe";
    case MsgType::kRouted: return "Routed";
    case MsgType::kLocationQuery: return "LocationQuery";
    case MsgType::kQueryResult: return "QueryResult";
    case MsgType::kSubscribe: return "Subscribe";
    case MsgType::kSubscribeAck: return "SubscribeAck";
    case MsgType::kPublish: return "Publish";
    case MsgType::kNotify: return "Notify";
    case MsgType::kUnsubscribe: return "Unsubscribe";
    case MsgType::kLocationUpdate: return "LocationUpdate";
    case MsgType::kLocationUpdateAck: return "LocationUpdateAck";
    case MsgType::kUserHandoff: return "UserHandoff";
    case MsgType::kLocateRequest: return "LocateRequest";
    case MsgType::kLocateReply: return "LocateReply";
    case MsgType::kNearestRequest: return "NearestRequest";
  }
  return "Unknown";
}

std::vector<std::byte> encode_message(const Message& m) {
  return std::visit(
      [](const auto& msg) {
        std::vector<std::byte> out(message_size(msg));
        Cursor at(out.data());
        put_message(at, msg);
        return out;
      },
      m);
}

Message decode_message(const std::byte* data, std::size_t size) {
  Reader r(data, size);
  const auto tag = static_cast<std::size_t>(get<MsgType>(r));
  if (tag >= kDecoders.size() || kDecoders[tag] == nullptr) {
    throw CodecError("unknown message type " + std::to_string(tag));
  }
  Message m = kDecoders[tag](r);
  if (!r.done()) throw CodecError("trailing bytes after message");
  return m;
}

Message decode_message(const std::vector<std::byte>& bytes) {
  return decode_message(bytes.data(), bytes.size());
}

Routed make_routed(const Point& target, const Message& inner) {
  Routed env;
  env.target = target;
  env.inner = encode_message(inner);
  return env;
}

Message unwrap_routed(const Routed& r) { return decode_message(r.inner); }

}  // namespace geogrid::net

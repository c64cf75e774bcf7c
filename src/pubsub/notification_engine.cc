#include "pubsub/notification_engine.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <limits>
#include <string_view>
#include <utility>

namespace geogrid::pubsub {
namespace {

double now_micros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view event_name(NotifyEvent e) {
  switch (e) {
    case NotifyEvent::kEnter: return "enter";
    case NotifyEvent::kLeave: return "leave";
    case NotifyEvent::kMove: return "move";
  }
  return "?";
}

/// Decimals of each coordinate in a Notify's text.
constexpr int kCoordDecimals = 6;

/// The longest fixed-notation text of any double at kCoordDecimals: sign,
/// the 309 integer digits of the largest finite value, point, decimals.
constexpr std::size_t kMaxCoordChars =
    1 + (std::numeric_limits<double>::max_exponent10 + 1) + 1 + kCoordDecimals;

/// Longest Notify text kept; anything past it is cut.
constexpr std::size_t kMaxNotifyText = 95;

}  // namespace

NotificationEngine::NotificationEngine(mobility::ShardedDirectory& directory,
                                       SubscriptionIndex& subs)
    : NotificationEngine(directory, subs, Options{}) {}

NotificationEngine::NotificationEngine(mobility::ShardedDirectory& directory,
                                       SubscriptionIndex& subs,
                                       Options options)
    : directory_(directory),
      subs_(subs),
      pool_(options.threads),
      tasks_(pool_.task_count()) {}

std::vector<Notification> NotificationEngine::drain() {
  subs_.refresh();
  const std::shared_ptr<const mobility::DirectorySnapshot> snap =
      directory_.publish_snapshot();
  ++counters_.drains;
  counters_.last_epoch = snap->epoch();
  if (last_ != nullptr && snap->epoch() == last_->epoch()) return {};

  // The candidate set: users whose record changed in (last epoch, epoch].
  // The snapshot's delta is exactly that set when it starts at the epoch
  // this engine last drained; otherwise every resident user is a candidate
  // (header comment, "Two sources of candidates").
  std::vector<UserId> rescan;
  std::span<const UserId> delta = snap->delta();
  if (last_ == nullptr || !snap->has_delta() ||
      snap->delta_base_epoch() != last_->epoch()) {
    if (last_ != nullptr) ++counters_.full_rescans;
    snap->collect_users(rescan);
    delta = rescan;
  }
  counters_.delta_users += delta.size();

  const mobility::DirectorySnapshot* prev = last_.get();
  std::vector<Notification> out;
  // An empty index matches nobody: skip locating and matching the
  // candidates, but still take this epoch as the next drain's base.
  if (!delta.empty() && subs_.size() != 0) {
    // Static contiguous chunks, per-task scratch/output/tallies, partials
    // concatenated in task order: the QueryEngine determinism recipe.
    // Task state lives on the engine and is reused drain over drain; the
    // pool's fixed affinity keeps each entry thread-affine.
    const std::size_t tasks = pool_.task_count();
    pool_.run([&](std::size_t t) {
      const std::size_t lo = delta.size() * t / tasks;
      const std::size_t hi = delta.size() * (t + 1) / tasks;
      run_chunk(delta, lo, hi, *snap, prev, tasks_[t]);
    });
    std::size_t total = 0;
    for (const TaskState& state : tasks_) total += state.out.size();
    out.reserve(total);
    for (TaskState& state : tasks_) {
      out.insert(out.end(), state.out.begin(), state.out.end());
      counters_.stationary_skips += state.tally.stationary_skips;
      counters_.notifications += state.tally.notifications;
      counters_.enters += state.tally.enters;
      counters_.leaves += state.tally.leaves;
      counters_.moves += state.tally.moves;
      counters_.friend_events += state.tally.friend_events;
      state.tally = {};
      match_hist_.merge(state.hist);
      state.hist = {};
    }
  }

  last_ = snap;
  return out;
}

void NotificationEngine::run_chunk(std::span<const UserId> delta,
                                   std::size_t lo, std::size_t hi,
                                   const mobility::DirectorySnapshot& cur,
                                   const mobility::DirectorySnapshot* prev,
                                   TaskState& state) {
  state.out.clear();
  const std::span<const UserId> chunk = delta.subspan(lo, hi - lo);
  // Bulk-resolve the whole chunk's records up front: locate_many groups
  // the store probes by shard/region, so the random per-user map walks of
  // a locate-inside-the-loop pattern become two locality-sorted sweeps.
  cur.locate_many(chunk, state.locate_scratch, state.cur_recs);
  if (prev != nullptr) {
    prev->locate_many(chunk, state.locate_scratch, state.prev_recs);
  }
  for (std::size_t k = 0; k < chunk.size(); ++k) {
    const mobility::LocationRecord* cur_rec =
        state.cur_recs[k].has_value() ? &*state.cur_recs[k] : nullptr;
    const mobility::LocationRecord* prev_rec =
        prev != nullptr && state.prev_recs[k].has_value()
            ? &*state.prev_recs[k]
            : nullptr;
    // Sampled timing on the global delta index: every Nth candidate pays
    // the two clock reads, the rest run clock-free.
    if ((lo + k) % kTimingSampleEvery == 0) {
      const double t0 = now_micros();
      match_user(chunk[k], cur_rec, prev_rec, state);
      state.hist.record_micros(now_micros() - t0);
    } else {
      match_user(chunk[k], cur_rec, prev_rec, state);
    }
  }
}

void NotificationEngine::match_user(UserId user,
                                    const mobility::LocationRecord* cur_rec,
                                    const mobility::LocationRecord* prev_rec,
                                    TaskState& state) const {
  std::vector<Notification>& out = state.out;
  Counters& c = state.tally;
  if (cur_rec == nullptr) return;  // never resident at this epoch
  const bool has_prev = prev_rec != nullptr;
  if (has_prev && prev_rec->position == cur_rec->position) {
    // Re-applied at the same position (paused user re-reporting): no
    // boundary crossed, no motion to report.
    ++c.stationary_skips;
    return;
  }
  const Point cur_pos = cur_rec->position;

  if (has_prev) {
    subs_.covering(prev_rec->position, state.prev_matches);
  } else {
    state.prev_matches.clear();
  }
  subs_.covering(cur_pos, state.cur_matches);

  // Merge the two ascending-id CoverMatch lists: prev-only = leave,
  // cur-only = enter, both = move (range subscriptions only).  The
  // triples carry id and kind, so no per-notification slot deref.
  const std::vector<CoverMatch>& prev_m = state.prev_matches;
  const std::vector<CoverMatch>& cur_m = state.cur_matches;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < prev_m.size() || j < cur_m.size()) {
    const std::uint64_t pid =
        i < prev_m.size() ? prev_m[i].id : ~std::uint64_t{0};
    const std::uint64_t cid =
        j < cur_m.size() ? cur_m[j].id : ~std::uint64_t{0};
    if (pid < cid) {
      out.push_back(Notification{pid, user, NotifyEvent::kLeave, cur_pos});
      ++c.leaves;
      ++c.notifications;
      ++i;
    } else if (cid < pid) {
      out.push_back(Notification{cid, user, NotifyEvent::kEnter, cur_pos});
      ++c.enters;
      ++c.notifications;
      ++j;
    } else {
      if (cur_m[j].kind == SubKind::kRange) {
        out.push_back(Notification{cid, user, NotifyEvent::kMove, cur_pos});
        ++c.moves;
        ++c.notifications;
      }
      ++i;
      ++j;
    }
  }

  // Friend subscriptions tracking this user: enter on first appearance,
  // move on every later position change.
  if (const auto* friends = subs_.friends_of(user)) {
    const NotifyEvent event =
        has_prev ? NotifyEvent::kMove : NotifyEvent::kEnter;
    for (const auto& [id, slot] : *friends) {
      out.push_back(Notification{id, user, event, cur_pos});
      ++c.friend_events;
      ++c.notifications;
      if (event == NotifyEvent::kEnter) {
        ++c.enters;
      } else {
        ++c.moves;
      }
    }
  }
}

void NotificationEngine::to_notify(const Notification& n,
                                   net::Notify& out) const {
  out.sub_id = n.sub_id;
  if (const std::string* filter = subs_.filter_of(n.sub_id)) {
    out.topic.assign(*filter);
  } else {
    out.topic.clear();
  }
  // "<event> u<user> @(<x>, <y>)".  std::to_chars in fixed notation at a
  // given precision prints what printf's "%.6f" prints.  The buffer holds
  // the longest text any event, user and two doubles make (the fixed parts
  // take at most 23 bytes), so no write can land outside it.
  char buf[2 * kMaxCoordChars + 32];
  char* const end = buf + sizeof buf;
  char* p = buf;
  const auto text = [&p](std::string_view s) {
    p = std::copy(s.begin(), s.end(), p);
  };
  const auto coord = [&p, end](double v) {
    p = std::to_chars(p, end, v, std::chars_format::fixed, kCoordDecimals)
            .ptr;
  };
  text(event_name(n.event));
  text(" u");
  p = std::to_chars(p, end, n.user.value).ptr;
  text(" @(");
  coord(n.position.x);
  text(", ");
  coord(n.position.y);
  text(")");
  out.payload.assign(
      buf, std::min(static_cast<std::size_t>(p - buf), kMaxNotifyText));
}

void NotificationEngine::serialize(net::Writer& w,
                                   std::span<const Notification> batch) {
  w.varint(batch.size());
  for (const Notification& n : batch) net::put(w, n);
}

}  // namespace geogrid::pubsub

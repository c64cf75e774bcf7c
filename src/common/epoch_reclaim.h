// Epoch-based reclamation for single-writer, many-reader published objects.
//
// A reader on another thread must keep the object it read alive while it
// uses it, without writing anything other readers write: a shared
// refcount bumped on every acquire is one contended cacheline, exactly the
// kind of shared write that caps read-side scaling long before memory
// bandwidth does.
//
// EpochDomain keeps objects alive through reader *announcements*.  The
// domain keeps a global epoch counter and a fixed table of cacheline-
// aligned reader slots.  A reader pins by writing the current global epoch
// into its own slot (a store to a cacheline nobody else writes), reads the
// published pointer, and unpins by resetting the slot.  The writer retires
// a superseded object by tagging it with the current epoch and advancing
// the counter; a retired object is freed only once every announced slot has
// moved past its retire epoch.  Readers therefore share *nothing* writable:
// steady-state acquisition costs two uncontended stores and one load, and
// scales linearly with reader count.
//
// Ordering contract (the classic EBR handshake, Dekker-style fences):
//
//   reader:  slot.store(E);   fence(seq_cst);   ptr = published.load()
//   writer:  published.store(new);   fence(seq_cst);   scan slots
//
// Both sides fence between "my write" and "their read", so in the single
// total order of seq_cst fences either the writer's slot scan observes the
// pin (and the retired object is kept), or the reader's fence follows the
// writer's — in which case the reader's pointer load is ordered after the
// swap and can only return the *new* object, making the old one safe to
// free.  A reader that pinned epoch E blocks every object retired at epoch
// >= E until it unpins.
//
// One writer at a time calls retire()/advance()/reclaim(); any number of
// readers pin concurrently.  Slot registration is lock-free and permanent
// for the domain's lifetime (readers are expected to be long-lived engine
// threads, not ephemeral).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace geogrid::common {

class EpochDomain {
 public:
  /// Maximum concurrently registered readers.  Each costs one cacheline.
  static constexpr std::size_t kMaxReaders = 64;
  /// Slot value meaning "not inside a read-side critical section".
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  EpochDomain() = default;
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// A registered reader's handle.  Cheap to copy; all copies share the
  /// same slot, so only one thread may use a given handle at a time.
  class Reader {
   public:
    Reader() = default;

    /// Enters a read-side critical section: announces the current epoch.
    /// Objects retired at or after this epoch outlive the pin.  The
    /// trailing fence keeps the protected pointer load from reordering
    /// ahead of the announcement (see the handshake above).
    void pin() noexcept {
      slot_->store(domain_->epoch_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    /// Leaves the critical section.  Pointers read under the pin are dead.
    void unpin() noexcept { slot_->store(kIdle, std::memory_order_release); }

    bool registered() const noexcept { return slot_ != nullptr; }

   private:
    friend class EpochDomain;
    Reader(EpochDomain* domain, std::atomic<std::uint64_t>* slot)
        : domain_(domain), slot_(slot) {}

    EpochDomain* domain_ = nullptr;
    std::atomic<std::uint64_t>* slot_ = nullptr;
  };

  /// RAII pin over a Reader.
  class Guard {
   public:
    explicit Guard(Reader& reader) noexcept : reader_(reader) {
      reader_.pin();
    }
    ~Guard() { reader_.unpin(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Reader& reader_;
  };

  /// Claims a reader slot for the domain's lifetime.  Returns an
  /// unregistered Reader when the table is full; such a Reader must not
  /// pin.
  Reader register_reader() noexcept {
    for (std::size_t i = 0; i < kMaxReaders; ++i) {
      bool expected = false;
      if (slots_[i].claimed.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        return Reader(this, &slots_[i].epoch);
      }
    }
    return Reader();
  }

  /// Current global epoch (the value a pinning reader announces).
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Writer side: stamps the moment an object was superseded, then opens a
  /// new epoch.  Returns the retire stamp: the object is reclaimable once
  /// safe_epoch() exceeds it.
  std::uint64_t retire_epoch() noexcept {
    const std::uint64_t e = epoch_.load(std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    return e;
  }

  /// Writer side: the exclusive upper bound of reclaimable retire stamps —
  /// every object retired at an epoch strictly below this is unreachable
  /// by any current or future reader.  The caller must have published the
  /// superseding object before calling (the fence below is the writer half
  /// of the handshake).
  std::uint64_t safe_epoch() const noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::uint64_t min = epoch_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kMaxReaders; ++i) {
      if (!slots_[i].claimed.load(std::memory_order_acquire)) continue;
      const std::uint64_t e = slots_[i].epoch.load(std::memory_order_acquire);
      if (e < min) min = e;
    }
    return min;
  }

 private:
  /// One reader's announcement, alone on its cacheline: pin/unpin are
  /// stores to memory no other reader ever touches.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{kIdle};
    std::atomic<bool> claimed{false};
  };

  // The writer bumps epoch_ on every retire.  128 bytes keep it off the
  // cacheline pair the adjacent-line prefetcher fetches with slot 0:
  // packed one line apart, a reader pinned on slot 0 contended with every
  // publish.
  alignas(128) std::atomic<std::uint64_t> epoch_{1};
  alignas(128) Slot slots_[kMaxReaders];
};

}  // namespace geogrid::common

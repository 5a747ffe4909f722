// Copyright 2026 The siot-trust Authors.
// FlatMap: the insert-only hash map behind the engine's per-key tables
// (the trust store's pair index, usage histories, thresholds and
// environment indicators).
//
// Every slot lives in one contiguous array, so n keys cost one
// allocation instead of n heap nodes; a checkpoint restore of 10^5 keys
// otherwise spends most of its time allocating those nodes. Open
// addressing with linear probing over a power-of-two table: the caller's
// hash goes through one SplitMix64 finalizer before masking, so keys
// that differ only in their high bits (packed `(a << 32) ^ b` pairs)
// still spread over the table. Occupancy is a flag beside each key, so
// no key value (not even kNoAgent) is reserved to mean "empty".
//
// Nothing in these tables is ever erased, so the map has no Erase and
// needs no tombstones. ForEach visits keys in table order, which depends
// on the insertion history; every export that must be canonical sorts.
//
// Lifetimes: an insertion may grow the table, which moves every entry to
// a new slot, so a pointer from Find or FindOrInsert is valid only until
// the next insertion. Values are moved, never copied, on growth, so
// memory a value refers to without living in it survives: a heap buffer
// a value owns, or the run of records that a trust-store value (a
// {begin, count, capacity} span) names in the store's record arena.

#ifndef SIOT_COMMON_FLAT_MAP_H_
#define SIOT_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace siot {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatMap {
 public:
  FlatMap() = default;
  FlatMap(const FlatMap&) = default;
  FlatMap& operator=(const FlatMap&) = default;
  // Written out so a moved-from map is empty rather than holding a size
  // with no slots behind it.
  FlatMap(FlatMap&& other) noexcept
      : slots_(std::exchange(other.slots_, {})),
        size_(std::exchange(other.size_, 0)) {}
  FlatMap& operator=(FlatMap&& other) noexcept {
    slots_ = std::exchange(other.slots_, {});
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  std::size_t size() const { return size_; }

  /// The value stored for `key`, or nullptr.
  const Value* Find(const Key& key) const {
    if (size_ == 0) return nullptr;
    const Slot& slot = slots_[Probe(key)];
    return slot.full ? &slot.value : nullptr;
  }

  /// The value stored for `key`, value-initialized and inserted if absent;
  /// `second` is true when the key was new. Only an insertion grows the
  /// table: finding a present key moves nothing.
  std::pair<Value*, bool> FindOrInsert(const Key& key) {
    if (!slots_.empty()) {
      Slot& slot = slots_[Probe(key)];
      if (slot.full) return {&slot.value, false};
      if (size_ < MaxSize(slots_.size())) return {Fill(slot, key), true};
    }
    Rehash(CapacityFor(size_ + 1));
    return {Fill(slots_[Probe(key)], key), true};
  }

  /// Sizes the table so `count` keys fit without growing.
  void Reserve(std::size_t count) {
    if (count > MaxSize(slots_.size())) Rehash(CapacityFor(count));
  }

  /// Drops every entry and releases the table.
  void Clear() {
    slots_ = {};
    size_ = 0;
  }

  /// Calls `fn(key, value)` for every entry, in table order.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.full) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    Key key{};
    bool full = false;
    Value value{};
  };

  static constexpr std::size_t kMinCapacity = 8;

  /// Keys a table of `capacity` slots holds before it grows: 3/4 full
  /// keeps linear-probing runs short.
  static std::size_t MaxSize(std::size_t capacity) {
    return capacity / 4 * 3;
  }

  static std::size_t CapacityFor(std::size_t count) {
    std::size_t capacity = kMinCapacity;
    while (MaxSize(capacity) < count) capacity *= 2;
    return capacity;
  }

  /// SplitMix64's finalizer over the caller's hash.
  static std::size_t Home(const Key& key, std::size_t mask) {
    auto z = static_cast<std::uint64_t>(Hash{}(key));
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::size_t>(z ^ (z >> 31)) & mask;
  }

  /// Index of `key`'s slot, or of the empty slot that ends its probe run.
  /// The table is non-empty and never full, so the run ends.
  std::size_t Probe(const Key& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Home(key, mask);
    while (slots_[i].full && !(slots_[i].key == key)) i = (i + 1) & mask;
    return i;
  }

  Value* Fill(Slot& slot, const Key& key) {
    slot.key = key;
    slot.full = true;
    ++size_;
    return &slot.value;
  }

  void Rehash(std::size_t capacity) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    const std::size_t mask = capacity - 1;
    for (Slot& slot : old) {
      if (!slot.full) continue;
      std::size_t i = Home(slot.key, mask);
      while (slots_[i].full) i = (i + 1) & mask;
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace siot

#endif  // SIOT_COMMON_FLAT_MAP_H_

// Open-addressed hash table from 64-bit keys to small values.
//
// One slot is the key plus the value, stored inline in a power-of-two
// array and probed linearly from a SplitMix64-mixed home slot; the table
// doubles when it passes 5/8 load. There is no per-entry node, so a
// million-entry table costs one allocation instead of a million.
// obs::GraphBuilder's per-message annotations only ever add keys; erase()
// serves ckpt::EventLog, net::FifoSequencer and GraphBuilder's sends and
// channels, whose tables hold only what is still in transit, and
// ckpt::CheckpointStore, whose table holds only live checkpoints. The slot
// array never shrinks: it stays sized for the most keys ever present.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mck::util {

template <typename V>
class FlatMap {
 public:
  /// Returns the value of `key`, default-constructing it if absent, and
  /// whether it was inserted. The pointer is valid until the next
  /// try_emplace or operator[] (either may grow the table).
  std::pair<V*, bool> try_emplace(std::uint64_t key) {
    if (key == kMaxKey) {
      const bool inserted = !has_max_;
      if (inserted) ++live_;
      has_max_ = true;
      return {&max_value_, inserted};
    }
    if ((live_ + 1) * 8 > table_.size() * 5) {
      rehash(table_.empty() ? kInitialSlots : table_.size() * 2);
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    while (true) {
      Slot& s = table_[i];
      if (s.key_plus1 == key + 1) return {&s.value, false};
      if (s.key_plus1 == 0) {
        s.key_plus1 = key + 1;
        ++live_;
        return {&s.value, true};
      }
      i = (i + 1) & mask;
    }
  }

  V& operator[](std::uint64_t key) { return *try_emplace(key).first; }

  /// The value of `key`, or nullptr if it was never inserted.
  V* find(std::uint64_t key) {
    if (key == kMaxKey) return has_max_ ? &max_value_ : nullptr;
    if (table_.empty()) return nullptr;
    const std::size_t mask = table_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    while (true) {
      Slot& s = table_[i];
      if (s.key_plus1 == key + 1) return &s.value;
      if (s.key_plus1 == 0) return nullptr;
      i = (i + 1) & mask;
    }
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Removes `key`; returns whether it was present. The entries behind it
  /// in its probe run shift back, so no tombstone is left.
  bool erase(std::uint64_t key) {
    if (key == kMaxKey) {
      if (!has_max_) return false;
      has_max_ = false;
      max_value_ = V{};
      --live_;
      return true;
    }
    if (table_.empty()) return false;
    const std::size_t mask = table_.size() - 1;
    std::size_t hole = static_cast<std::size_t>(mix(key)) & mask;
    while (table_[hole].key_plus1 != key + 1) {
      if (table_[hole].key_plus1 == 0) return false;
      hole = (hole + 1) & mask;
    }
    for (std::size_t i = (hole + 1) & mask; table_[i].key_plus1 != 0;
         i = (i + 1) & mask) {
      // An entry may fill the hole only if its home slot is not in the
      // cyclic range (hole, i]: otherwise a lookup would stop at the hole.
      const std::size_t home =
          static_cast<std::size_t>(mix(table_[i].key_plus1 - 1)) & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        table_[hole] = table_[i];
        hole = i;
      }
    }
    table_[hole] = Slot{};
    --live_;
    return true;
  }

  /// Number of keys present.
  std::size_t size() const { return live_; }

 private:
  static constexpr std::size_t kInitialSlots = 1024;  // power of two
  /// The one key whose key + 1 is the empty-slot marker; kept beside the
  /// table so every 64-bit key is usable.
  static constexpr std::uint64_t kMaxKey = ~std::uint64_t{0};

  struct Slot {
    std::uint64_t key_plus1 = 0;  // 0 = empty
    V value{};
  };

  static std::uint64_t mix(std::uint64_t x) {
    // SplitMix64 finalizer.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void rehash(std::size_t new_slots) {
    std::vector<Slot> old;
    old.swap(table_);
    table_.resize(new_slots);
    const std::size_t mask = new_slots - 1;
    for (const Slot& s : old) {
      if (s.key_plus1 == 0) continue;
      std::size_t i = static_cast<std::size_t>(mix(s.key_plus1 - 1)) & mask;
      while (table_[i].key_plus1 != 0) i = (i + 1) & mask;
      table_[i] = s;
    }
  }

  std::vector<Slot> table_;  // empty until the first insert
  std::size_t live_ = 0;
  bool has_max_ = false;
  V max_value_{};
};

}  // namespace mck::util

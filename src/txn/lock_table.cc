#include "txn/lock_table.h"

#include <cstring>
#include <string>

#include "common/hash.h"

namespace tsb {
namespace txn {

namespace {

constexpr uint64_t kLockHashSeed = 0x6c6f636b7461626cull;  // "locktabl"
constexpr size_t kMinSlots = 16;

uint64_t HashOf(const Slice& key) { return Hash64(key, kLockHashSeed); }

}  // namespace

int64_t LockTable::Find(uint64_t hash, const Slice& key) const {
  if (slots_.empty()) return -1;
  const size_t mask = slots_.size() - 1;
  // At most half full, so the probe always reaches an empty slot.
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Entry& e = slots_[i];
    if (e.key == nullptr) return -1;
    if (e.hash == hash && e.key_size == key.size() &&
        memcmp(e.key, key.data(), key.size()) == 0) {
      return static_cast<int64_t>(i);
    }
  }
}

void LockTable::Insert(const Entry& e) {
  if ((used_ + 1) * 2 > slots_.size()) {
    std::vector<Entry> old = std::move(slots_);
    slots_.assign(old.empty() ? kMinSlots : old.size() * 2, Entry{});
    used_ = 0;
    for (const Entry& o : old) {
      if (o.key != nullptr) Insert(o);
    }
  }
  const size_t mask = slots_.size() - 1;
  size_t i = e.hash & mask;
  while (slots_[i].key != nullptr) i = (i + 1) & mask;
  slots_[i] = e;
  ++used_;
}

void LockTable::Erase(size_t slot) {
  // Backward-shift deletion: pull every later entry of the probe run that
  // may legally sit in the hole into it, so lookups need no tombstones.
  const size_t mask = slots_.size() - 1;
  size_t hole = slot;
  for (size_t j = (hole + 1) & mask; slots_[j].key != nullptr;
       j = (j + 1) & mask) {
    const size_t home = slots_[j].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Entry{};
  --used_;
}

Status LockTable::Lock(std::span<const KeyValue> writes, TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  // Check every key before taking any, so a conflict leaves nothing to
  // undo.
  for (const auto& [key, value] : writes) {
    const int64_t slot = Find(HashOf(key), key);
    if (slot >= 0 && slots_[slot].txn != txn) {
      return Status::TxnConflict(
          "key locked by txn " + std::to_string(slots_[slot].txn),
          key.ToString());
    }
  }
  for (const auto& [key, value] : writes) {
    const uint64_t hash = HashOf(key);
    if (Find(hash, key) < 0) {
      Insert(Entry{hash, key.data(), static_cast<uint32_t>(key.size()), txn});
    }
  }
  return Status::OK();
}

void LockTable::Unlock(std::span<const KeyValue> writes, TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, value] : writes) {
    const int64_t slot = Find(HashOf(key), key);
    if (slot >= 0 && slots_[slot].txn == txn) {
      Erase(static_cast<size_t>(slot));
    }
  }
}

void LockTable::Rebind(const Slice& key, const char* bytes, TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t slot = Find(HashOf(key), key);
  if (slot >= 0 && slots_[slot].txn == txn) slots_[slot].key = bytes;
}

}  // namespace txn
}  // namespace tsb

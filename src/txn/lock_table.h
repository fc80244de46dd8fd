// First-writer-wins key locks for TxnManager.
//
// One mutex guards one open-addressing table (linear probing,
// backward-shift erase). An entry stores the key's hash and a VIEW of the
// key bytes owned by the locking transaction's write set, so taking a
// lock copies no key and allocates nothing once the table has grown to
// its working size. The owner must keep those bytes alive until it
// releases the lock, or hand the lock over to bytes it does keep
// (Rebind).
//
// A batch checks every key before it inserts any: a conflict leaves the
// table exactly as it was.
#ifndef TSBTREE_TXN_LOCK_TABLE_H_
#define TSBTREE_TXN_LOCK_TABLE_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"

namespace tsb {
namespace txn {

class LockTable {
 public:
  /// A (key, value) write; only the key is read.
  using KeyValue = std::pair<Slice, Slice>;

  /// Locks every key of `writes` for `txn`: all of them, or — when
  /// another transaction holds one — none (TxnConflict). Keys `txn`
  /// already holds stay locked. The table views the key bytes of
  /// `writes` until Unlock.
  Status Lock(std::span<const KeyValue> writes, TxnId txn);

  /// Releases every key of `writes` that `txn` holds.
  void Unlock(std::span<const KeyValue> writes, TxnId txn);

  /// Points the lock `txn` holds on `key` at `bytes`, an equal copy of the
  /// key that the caller keeps alive until Unlock.
  void Rebind(const Slice& key, const char* bytes, TxnId txn);

 private:
  struct Entry {
    uint64_t hash = 0;
    const char* key = nullptr;  ///< nullptr = empty slot
    uint32_t key_size = 0;
    TxnId txn = kNoTxn;
  };

  /// Slot of `key`, or -1. Caller holds mu_.
  int64_t Find(uint64_t hash, const Slice& key) const;
  void Insert(const Entry& e);
  void Erase(size_t slot);

  std::mutex mu_;
  std::vector<Entry> slots_;  // power-of-two size, at most half full
  size_t used_ = 0;
};

}  // namespace txn
}  // namespace tsb

#endif  // TSBTREE_TXN_LOCK_TABLE_H_

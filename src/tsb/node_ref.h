// NodeRef: a child pointer in the TSB-tree, which spans two devices.
//
// Current nodes live on the magnetic disk and are addressed by page id;
// historical nodes live in the append store and are addressed by
// <offset, length> (paper section 3.4: "The index pointer to a historical
// node needs only to record its address on the optical disk and its
// length").
#ifndef TSBTREE_TSB_NODE_REF_H_
#define TSBTREE_TSB_NODE_REF_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "common/slice.h"
#include "common/status.h"
#include "storage/append_store.h"
#include "storage/pager.h"

namespace tsb {
namespace tsb_tree {

/// Two-device child pointer.
struct NodeRef {
  bool historical = false;
  uint32_t page_id = kInvalidPageId;  // current nodes
  HistAddr addr;                      // historical nodes

  static NodeRef Current(uint32_t id) {
    NodeRef r;
    r.historical = false;
    r.page_id = id;
    return r;
  }
  static NodeRef Historical(const HistAddr& a) {
    NodeRef r;
    r.historical = true;
    r.addr = a;
    return r;
  }

  bool operator==(const NodeRef& o) const {
    if (historical != o.historical) return false;
    return historical ? (addr == o.addr) : (page_id == o.page_id);
  }

  std::string ToString() const;
};

/// Appends the wire encoding of `ref` (1 + 4 bytes current; 1 + varints
/// historical).
void EncodeNodeRef(std::string* out, const NodeRef& ref);

/// Consumes a NodeRef from the front of `in`.
bool DecodeNodeRef(Slice* in, NodeRef* ref);

// ---------------------------------------------------------------- dispatch

class HistDataNodeRef;        // tsb/data_page.h
class HistIndexNodeRef;       // tsb/index_page.h
struct HistDecodeCounters;    // tsb/tsb_stats.h

/// Minimal non-owning callable reference — no allocation, no std::function
/// overhead. The referenced callable must outlive the FnRef (the dispatch
/// below only ever invokes it within the calling expression).
template <typename Sig>
class FnRef;

template <typename R, typename... Args>
class FnRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FnRef>>>
  FnRef(F&& f)  // NOLINT(google-explicit-constructor): bind-site sugar
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

using HistDataVisitor = FnRef<Status(BlobHandle&, HistDataNodeRef&)>;
using HistIndexVisitor = FnRef<Status(BlobHandle&, HistIndexNodeRef&)>;

/// The single edit site for reading a historical node: pins the blob at
/// `addr` (ReadView with `hints` — checksum/cache/access-pattern behavior
/// threaded down from the public ReadOptions), counts the decode in
/// `counters` (may be null), probes the level byte and parses the matching
/// ref type (rejecting unknown format versions) — then invokes the
/// corresponding visitor. The blob stays pinned for the duration of the
/// visit; a visitor may move the handle and ref into longer-lived state to
/// extend the pin (cursor frames do).
///
/// Every historical reader (point lookups, range scans, cursors, the tree
/// checker) funnels through here, so a future v4 format changes exactly
/// one descent path.
Status DispatchHistNode(AppendStore* store, HistDecodeCounters* counters,
                        const HistAddr& addr, HistDataVisitor on_data,
                        HistIndexVisitor on_index,
                        const BlobReadHints& hints = BlobReadHints());

}  // namespace tsb_tree
}  // namespace tsb

#endif  // TSBTREE_TSB_NODE_REF_H_

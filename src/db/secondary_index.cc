#include "db/secondary_index.h"

namespace tsb {
namespace db {

constexpr char SecondaryIndex::kLinked[];
constexpr char SecondaryIndex::kUnlinked[];

std::string CompositePrefix(const Slice& secondary) {
  std::string out;
  out.reserve(secondary.size() + 2);
  for (size_t i = 0; i < secondary.size(); ++i) {
    out.push_back(secondary[i]);
    if (secondary[i] == '\0') out.push_back('\xff');
  }
  out.push_back('\0');
  out.push_back('\0');
  return out;
}

std::string EncodeCompositeKey(const Slice& secondary, const Slice& primary) {
  std::string out = CompositePrefix(secondary);
  out.append(primary.data(), primary.size());
  return out;
}

bool DecodeCompositeKey(const Slice& composite, std::string* secondary,
                        std::string* primary) {
  secondary->clear();
  primary->clear();
  size_t i = 0;
  for (; i < composite.size(); ++i) {
    if (composite[i] != '\0') {
      secondary->push_back(composite[i]);
      continue;
    }
    if (i + 1 >= composite.size()) return false;  // dangling escape
    if (composite[i + 1] == '\xff') {
      secondary->push_back('\0');
      ++i;
      continue;
    }
    if (composite[i + 1] == '\0') {
      primary->assign(composite.data() + i + 2, composite.size() - i - 2);
      return true;
    }
    return false;
  }
  return false;  // no separator found
}

Status SecondaryIndex::Add(const Slice& secondary, const Slice& primary,
                           Timestamp ts) {
  return Write(EncodeCompositeKey(secondary, primary), kLinked, ts);
}

Status SecondaryIndex::Remove(const Slice& secondary, const Slice& primary,
                              Timestamp ts) {
  return Write(EncodeCompositeKey(secondary, primary), kUnlinked, ts);
}

Status SecondaryIndex::Write(const Slice& composite, const Slice& marker,
                             Timestamp ts) {
  // Updates arrive in timestamp order, so the first write at `ts` proves
  // every earlier commit whole: publish those. `ts` waits for the next
  // commit, so no reader at the latest time and no time split sees a
  // commit whose other entries are still to come — or failed.
  tree_->put_ledger().EndCommit(ts - 1);
  return tree_->PutUnpublished(composite, marker, ts);
}

Status SecondaryIndex::ReplayAdd(const Slice& secondary, const Slice& primary,
                                 Timestamp ts) {
  return tree_->ReplayCommitted(EncodeCompositeKey(secondary, primary),
                                kLinked, ts);
}

Status SecondaryIndex::ReplayRemove(const Slice& secondary,
                                    const Slice& primary, Timestamp ts) {
  return tree_->ReplayCommitted(EncodeCompositeKey(secondary, primary),
                                kUnlinked, ts);
}

Status SecondaryIndex::LookupAsOf(const Slice& secondary, Timestamp t,
                                  std::vector<std::string>* primary_keys) {
  primary_keys->clear();
  const std::string prefix = CompositePrefix(secondary);
  tsb_tree::ReadOptions options;
  options.as_of = t;
  auto it = tree_->NewCursor(options);
  TSB_RETURN_IF_ERROR(it->Seek(prefix));
  while (it->Valid() && it->key().starts_with(prefix)) {
    if (it->value() == Slice(kLinked)) {
      std::string sk, pk;
      if (!DecodeCompositeKey(it->key(), &sk, &pk)) {
        return Status::Corruption("bad composite key in secondary index");
      }
      primary_keys->push_back(std::move(pk));
    }
    TSB_RETURN_IF_ERROR(it->Next());
  }
  return Status::OK();
}

Status SecondaryIndex::CountAsOf(const Slice& secondary, Timestamp t,
                                 size_t* count) {
  std::vector<std::string> pks;
  TSB_RETURN_IF_ERROR(LookupAsOf(secondary, t, &pks));
  *count = pks.size();
  return Status::OK();
}

Status SecondaryIndex::Lookup(const Slice& secondary,
                              std::vector<std::string>* primary_keys) {
  return LookupAsOf(secondary, kMaxCommittedTs, primary_keys);
}

}  // namespace db
}  // namespace tsb

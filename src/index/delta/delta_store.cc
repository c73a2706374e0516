#include "index/delta/delta_store.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace genie {
namespace delta {

bool IsTombstoned(const DeltaSnapshot& snap, ObjectId id) {
  if (snap.tombstones == nullptr) return false;
  return std::binary_search(snap.tombstones->begin(), snap.tombstones->end(),
                            id);
}

DeltaStore::DeltaStore(ObjectId base_num_objects, uint32_t seal_threshold)
    : seal_threshold_(seal_threshold),
      next_id_(base_num_objects),
      tombstones_(std::make_shared<const std::vector<ObjectId>>()),
      folded_(std::make_shared<const std::vector<ObjectId>>()) {
  active_.offsets.push_back(0);
}

ObjectId DeltaStore::Insert(std::span<const Keyword> keywords) {
  std::lock_guard<std::mutex> lock(mu_);
  const ObjectId id = next_id_++;
  active_.ids.push_back(id);
  active_.keywords.insert(active_.keywords.end(), keywords.begin(),
                          keywords.end());
  active_.offsets.push_back(static_cast<uint32_t>(active_.keywords.size()));
  for (Keyword kw : keywords) {
    active_.max_keyword = std::max(active_.max_keyword, kw);
  }
  active_copy_.reset();
  if (seal_threshold_ > 0 && active_.num_objects() >= seal_threshold_) {
    SealLocked();
  }
  return id;
}

bool DeltaStore::Remove(ObjectId id) {
  std::lock_guard<std::mutex> lock(mu_);
  // Ever removed before — pending or already folded out by a compaction —
  // means removing again is an error; removal history never resets.
  if (std::binary_search(folded_->begin(), folded_->end(), id)) return false;
  const auto& old = *tombstones_;
  const auto at = std::lower_bound(old.begin(), old.end(), id);
  if (at != old.end() && *at == id) return false;
  auto grown = std::make_shared<std::vector<ObjectId>>();
  grown->reserve(old.size() + 1);
  grown->insert(grown->end(), old.begin(), at);
  grown->push_back(id);
  grown->insert(grown->end(), at, old.end());
  tombstones_ = std::move(grown);
  return true;
}

bool DeltaStore::Tombstoned(ObjectId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::binary_search(tombstones_->begin(), tombstones_->end(), id) ||
         std::binary_search(folded_->begin(), folded_->end(), id);
}

void DeltaStore::SealLocked() {
  if (active_.num_objects() == 0) return;
  if (active_copy_ != nullptr) {
    // The cached copy is byte-identical; promote it instead of copying.
    sealed_.push_back(std::move(active_copy_));
  } else {
    sealed_.push_back(std::make_shared<const DeltaSegment>(active_));
  }
  active_ = DeltaSegment{};
  active_.offsets.push_back(0);
  active_copy_.reset();
}

void DeltaStore::Seal() {
  std::lock_guard<std::mutex> lock(mu_);
  SealLocked();
}

DeltaSnapshot DeltaStore::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  DeltaSnapshot snap;
  snap.segments = sealed_;
  if (active_.num_objects() > 0) {
    if (active_copy_ == nullptr) {
      active_copy_ = std::make_shared<const DeltaSegment>(active_);
    }
    snap.segments.push_back(active_copy_);
  }
  snap.tombstones = tombstones_;
  snap.folded = folded_;
  snap.next_id = next_id_;
  return snap;
}

void DeltaStore::Prune(const DeltaSnapshot& compacted) {
  std::lock_guard<std::mutex> lock(mu_);
  auto folded = [&](const std::shared_ptr<const DeltaSegment>& seg) {
    for (const auto& done : compacted.segments) {
      if (done.get() == seg.get()) return true;
    }
    return false;
  };
  sealed_.erase(std::remove_if(sealed_.begin(), sealed_.end(), folded),
                sealed_.end());
  if (compacted.tombstones != nullptr && !compacted.tombstones->empty()) {
    // The folded tombstones' ids are gone from the new main index; retire
    // them from the pending list but keep them in the removal history so
    // Remove keeps rejecting them.
    auto kept = std::make_shared<std::vector<ObjectId>>();
    std::set_difference(tombstones_->begin(), tombstones_->end(),
                        compacted.tombstones->begin(),
                        compacted.tombstones->end(),
                        std::back_inserter(*kept));
    tombstones_ = std::move(kept);
    auto history = std::make_shared<std::vector<ObjectId>>();
    std::set_union(folded_->begin(), folded_->end(),
                   compacted.tombstones->begin(), compacted.tombstones->end(),
                   std::back_inserter(*history));
    folded_ = std::move(history);
  }
}

void DeltaStore::Restore(
    std::vector<std::shared_ptr<const DeltaSegment>> sealed,
    std::vector<ObjectId> tombstones, ObjectId next_id) {
  std::lock_guard<std::mutex> lock(mu_);
  sealed_ = std::move(sealed);
  std::sort(tombstones.begin(), tombstones.end());
  tombstones_ =
      std::make_shared<const std::vector<ObjectId>>(std::move(tombstones));
  folded_ = std::make_shared<const std::vector<ObjectId>>();
  next_id_ = next_id;
}

ObjectId DeltaStore::next_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

uint32_t DeltaStore::num_sealed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(sealed_.size());
}

uint32_t DeltaStore::num_tombstones() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(tombstones_->size());
}

bool DeltaStore::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_.empty() && active_.num_objects() == 0 &&
         tombstones_->empty();
}

std::vector<std::vector<TopKEntry>> DeltaStore::Match(
    const DeltaSnapshot& snap, std::span<const Query> queries) {
  std::vector<std::vector<TopKEntry>> pools(queries.size());
  if (snap.segments.empty()) return pools;
  // Per query: weight[kw] = how many of the query's item keywords equal kw;
  // an object's count is then sum over its postings of weight[posting]
  // (Definition 2.1, evaluated object-major since segments are CSR by
  // object).
  std::unordered_map<Keyword, uint32_t> weight;
  for (size_t q = 0; q < queries.size(); ++q) {
    weight.clear();
    const Query& query = queries[q];
    for (uint32_t i = 0; i < query.num_items(); ++i) {
      for (Keyword kw : query.item(i)) ++weight[kw];
    }
    if (weight.empty()) continue;
    std::vector<TopKEntry>& pool = pools[q];
    for (const auto& segment : snap.segments) {
      for (uint32_t o = 0; o < segment->num_objects(); ++o) {
        const ObjectId id = segment->ids[o];
        if (IsTombstoned(snap, id)) continue;
        uint32_t count = 0;
        for (Keyword kw : segment->object_keywords(o)) {
          const auto it = weight.find(kw);
          if (it != weight.end()) count += it->second;
        }
        if (count > 0) pool.push_back(TopKEntry{id, count});
      }
    }
    std::sort(pool.begin(), pool.end(),
              [](const TopKEntry& a, const TopKEntry& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.id < b.id;
              });
  }
  return pools;
}

void SerializeDelta(const DeltaSnapshot& snap, serialize::Writer* writer) {
  writer->U32(static_cast<uint32_t>(snap.segments.size()));
  for (const auto& segment : snap.segments) {
    writer->Vec(segment->ids);
    writer->Vec(segment->offsets);
    writer->Vec(segment->keywords);
  }
  // The full removal history: pending tombstones plus the ids earlier
  // compactions already folded out. Both are sorted and disjoint.
  std::vector<ObjectId> removed;
  const auto* pending = snap.tombstones.get();
  const auto* folded = snap.folded.get();
  if (pending != nullptr && folded != nullptr) {
    std::merge(pending->begin(), pending->end(), folded->begin(),
               folded->end(), std::back_inserter(removed));
  } else if (pending != nullptr) {
    removed = *pending;
  } else if (folded != nullptr) {
    removed = *folded;
  }
  writer->Vec(removed);
  writer->U64(snap.next_id);
}

Status DeserializeDelta(serialize::Reader* reader, DeltaStore* store) {
  uint32_t num_segments = 0;
  GENIE_RETURN_NOT_OK(reader->U32(&num_segments));
  // A segment is three length-prefixed vectors: a count the remaining
  // bytes cannot hold is forged, and must not size the reservation.
  if (num_segments > reader->remaining() / (3 * sizeof(uint64_t))) {
    return Status::InvalidArgument("delta segment count exceeds the section");
  }
  std::vector<std::shared_ptr<const DeltaSegment>> sealed;
  sealed.reserve(num_segments);
  for (uint32_t s = 0; s < num_segments; ++s) {
    DeltaSegment segment;
    GENIE_RETURN_NOT_OK(reader->Vec(&segment.ids));
    GENIE_RETURN_NOT_OK(reader->Vec(&segment.offsets));
    GENIE_RETURN_NOT_OK(reader->Vec(&segment.keywords));
    if (segment.offsets.size() != segment.ids.size() + 1 ||
        segment.offsets.empty() || segment.offsets.front() != 0 ||
        segment.offsets.back() != segment.keywords.size()) {
      return Status::InvalidArgument("corrupt delta segment layout");
    }
    for (size_t i = 1; i < segment.offsets.size(); ++i) {
      if (segment.offsets[i] < segment.offsets[i - 1]) {
        return Status::InvalidArgument("corrupt delta segment offsets");
      }
    }
    for (Keyword kw : segment.keywords) {
      // Compaction sizes its vocabulary as max_keyword + 1.
      if (kw == kInvalidKeyword) {
        return Status::InvalidArgument("delta segment keyword out of range");
      }
      segment.max_keyword = std::max(segment.max_keyword, kw);
    }
    sealed.push_back(std::make_shared<const DeltaSegment>(std::move(segment)));
  }
  std::vector<ObjectId> tombstones;
  GENIE_RETURN_NOT_OK(reader->Vec(&tombstones));
  uint64_t next_id = 0;
  GENIE_RETURN_NOT_OK(reader->U64(&next_id));
  for (const auto& segment : sealed) {
    for (ObjectId id : segment->ids) {
      if (id >= next_id) {
        return Status::InvalidArgument("delta segment id beyond watermark");
      }
    }
  }
  store->Restore(std::move(sealed), std::move(tombstones),
                 static_cast<ObjectId>(next_id));
  return Status::OK();
}

}  // namespace delta
}  // namespace genie

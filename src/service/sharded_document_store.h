// The sharded, snapshot-read document store behind the serving hot path:
// N power-of-two shards, FNV-1a pool-key hash -> shard, per-shard writer
// mutex, and an RCU-style immutable snapshot per shard so GetRecommendation
// readers never hold a lock while they look up or copy a document.
//
// Read path: a reader copies the shard's `shared_ptr<const Snapshot>` under
// a mutex held only for that copy, then looks up and copies the payload
// with no lock held; a publish never mutates a snapshot a reader holds.
// Writers serialize on the shard's writer mutex, copy-on-write the map and
// swap the pointer. (Not std::atomic<std::shared_ptr>: libstdc++ 12's load
// releases its lock bit with relaxed ordering, so a reader's pointer read
// does not happen-before the next swap.)
//
// Payload caching: each document's response bytes live behind a
// `shared_ptr<const std::string>` that is built once per distinct value. A
// Put whose bytes equal the currently stored value reuses the existing
// payload buffer and keeps the version — so a live tick that republishes an
// unchanged fleet allocates nothing on the read path and bumps no versions.
// payload_builds() counts fresh payload materializations; tests assert it
// stays flat across ticks that publish identical documents.
//
// Timestamps are caller-supplied (virtual time in the replay and tests).
#ifndef IPOOL_SERVICE_SHARDED_DOCUMENT_STORE_H_
#define IPOOL_SERVICE_SHARDED_DOCUMENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace ipool {

class ShardedDocumentStore {
 public:
  /// A stored document as Get returns it.
  struct Document {
    std::string value;
    double updated_at = 0.0;
    int64_t version = 0;
  };

  /// One write in a PutBatch.
  struct PutOp {
    std::string key;
    std::string value;
    double time = 0.0;
  };

  /// `shards` is rounded up to the next power of two (minimum 1).
  explicit ShardedDocumentStore(size_t shards = kDefaultShards);

  static constexpr size_t kDefaultShards = 16;

  /// Creates or overwrites. The version increments per distinct value; a
  /// byte-identical overwrite refreshes `updated_at` but keeps the version
  /// and reuses the cached payload buffer.
  void Put(const std::string& key, std::string value, double time);

  /// Applies every op, grouped so each shard is locked and its snapshot
  /// swapped exactly once — readers of a shard observe either none or all of
  /// the batch's writes to that shard (the live tick's per-shard atomic
  /// publish).
  void PutBatch(std::vector<PutOp> ops);

  /// NotFound if the key has never been written (or was deleted).
  Result<Document> Get(const std::string& key) const;

  /// The serving fast path: the document's response bytes, or null when the
  /// key is absent. The shard's pointer mutex is held only to copy the
  /// snapshot pointer; the returned buffer is immutable and safe to read
  /// after any number of later Puts.
  std::shared_ptr<const std::string> GetPayload(const std::string& key) const;

  /// True if something was deleted.
  bool Delete(const std::string& key);

  size_t size() const;
  size_t shard_count() const { return shards_.size(); }

  /// Times a Put materialized new payload bytes (first write of a key, or a
  /// value change). Flat across byte-identical republishes.
  uint64_t payload_builds() const {
    return payload_builds_.load(std::memory_order_relaxed);
  }

  /// FNV-1a(key) & (shard_count-1). Exposed so tests can pick colliding and
  /// non-colliding keys deliberately.
  size_t ShardIndex(const std::string& key) const;

 private:
  struct Entry {
    std::shared_ptr<const std::string> payload;
    double updated_at = 0.0;
    int64_t version = 0;
  };
  struct Snapshot {
    std::map<std::string, Entry> docs;
  };
  struct Shard {
    /// Serializes writers only; readers never take it.
    std::mutex write_mu;
    /// Guards `snapshot` itself, held only to copy or swap the pointer.
    mutable std::mutex snapshot_mu;
    std::shared_ptr<const Snapshot> snapshot;
  };

  /// The shard's current snapshot (a copy of the pointer).
  static std::shared_ptr<const Snapshot> Load(const Shard& shard);
  /// Installs `next` as the shard's snapshot and returns the previous one,
  /// so the caller releases it after the pointer mutex is dropped.
  static std::shared_ptr<const Snapshot> Swap(
      Shard& shard, std::shared_ptr<const Snapshot> next);

  /// Applies `ops[i]` for i in `indices` to one shard under its writer
  /// mutex, publishing a single new snapshot.
  void ApplyToShard(Shard& shard, std::vector<PutOp>& ops,
                    const std::vector<size_t>& indices);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> payload_builds_{0};
};

}  // namespace ipool

#endif  // IPOOL_SERVICE_SHARDED_DOCUMENT_STORE_H_

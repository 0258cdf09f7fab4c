#include "service/sharded_document_store.h"

#include <utility>

namespace ipool {

namespace {

size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t Fnv1a(const std::string& key) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

ShardedDocumentStore::ShardedDocumentStore(size_t shards) {
  const size_t count = RoundUpPowerOfTwo(shards == 0 ? 1 : shards);
  shards_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->snapshot = std::make_shared<const Snapshot>();
    shards_.push_back(std::move(shard));
  }
}

size_t ShardedDocumentStore::ShardIndex(const std::string& key) const {
  return static_cast<size_t>(Fnv1a(key)) & (shards_.size() - 1);
}

std::shared_ptr<const ShardedDocumentStore::Snapshot>
ShardedDocumentStore::Load(const Shard& shard) {
  std::lock_guard<std::mutex> lock(shard.snapshot_mu);
  return shard.snapshot;
}

std::shared_ptr<const ShardedDocumentStore::Snapshot>
ShardedDocumentStore::Swap(Shard& shard,
                           std::shared_ptr<const Snapshot> next) {
  std::lock_guard<std::mutex> lock(shard.snapshot_mu);
  shard.snapshot.swap(next);
  return next;
}

void ShardedDocumentStore::ApplyToShard(Shard& shard, std::vector<PutOp>& ops,
                                        const std::vector<size_t>& indices) {
  std::lock_guard<std::mutex> lock(shard.write_mu);
  // Copy-on-write: entries share their payload buffers with the previous
  // snapshot, so the copy is cheap (map nodes, not document bytes).
  auto next = std::make_shared<Snapshot>(*Load(shard));
  for (const size_t i : indices) {
    PutOp& op = ops[i];
    Entry& entry = next->docs[op.key];
    if (entry.payload != nullptr && *entry.payload == op.value) {
      // Unchanged bytes: the served document is identical, so reuse the
      // cached payload and keep the version. Only the write time moves.
      entry.updated_at = op.time;
      continue;
    }
    entry.payload = std::make_shared<const std::string>(std::move(op.value));
    entry.updated_at = op.time;
    ++entry.version;
    payload_builds_.fetch_add(1, std::memory_order_relaxed);
  }
  Swap(shard, std::move(next));
}

void ShardedDocumentStore::Put(const std::string& key, std::string value,
                               double time) {
  std::vector<PutOp> ops;
  ops.push_back(PutOp{key, std::move(value), time});
  ApplyToShard(*shards_[ShardIndex(key)], ops, {0});
}

void ShardedDocumentStore::PutBatch(std::vector<PutOp> ops) {
  // Group op indices by shard so each shard is locked and swapped once.
  // Within a shard, ops apply in batch order (last write wins per key).
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    by_shard[ShardIndex(ops[i].key)].push_back(i);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    ApplyToShard(*shards_[s], ops, by_shard[s]);
  }
}

Result<ShardedDocumentStore::Document> ShardedDocumentStore::Get(
    const std::string& key) const {
  const auto snapshot = Load(*shards_[ShardIndex(key)]);
  const auto it = snapshot->docs.find(key);
  if (it == snapshot->docs.end()) {
    return Status::NotFound("document not found: " + key);
  }
  Document doc;
  doc.value = *it->second.payload;
  doc.updated_at = it->second.updated_at;
  doc.version = it->second.version;
  return doc;
}

std::shared_ptr<const std::string> ShardedDocumentStore::GetPayload(
    const std::string& key) const {
  const auto snapshot = Load(*shards_[ShardIndex(key)]);
  const auto it = snapshot->docs.find(key);
  if (it == snapshot->docs.end()) return nullptr;
  return it->second.payload;
}

bool ShardedDocumentStore::Delete(const std::string& key) {
  Shard& shard = *shards_[ShardIndex(key)];
  std::lock_guard<std::mutex> lock(shard.write_mu);
  const auto current = Load(shard);
  if (current->docs.find(key) == current->docs.end()) return false;
  auto next = std::make_shared<Snapshot>(*current);
  next->docs.erase(key);
  Swap(shard, std::move(next));
  return true;
}

size_t ShardedDocumentStore::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += Load(*shard)->docs.size();
  }
  return total;
}

}  // namespace ipool

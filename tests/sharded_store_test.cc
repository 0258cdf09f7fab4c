// Tests for the sharded, snapshot-read stores behind the serving hot path:
// semantic equivalence with the plain single-map stores (byte-identical
// documents, identical binned queries, for every shard count), the payload
// dedup contract (payload_builds stays flat across byte-identical
// republishes; versions only move on value changes), snapshot immutability
// under racing publishes, the per-shard all-or-nothing RecordBatch
// contract, and reader/writer stress on both stores (the TSan job runs this
// binary — any lock-discipline slip in the RCU publish or the shard locks
// is a data-race report here).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "service/sharded_document_store.h"
#include "service/sharded_telemetry_store.h"
#include "service/telemetry_store.h"

namespace ipool {
namespace {

// The plain single-map document store: the reference the sharded store must
// be indistinguishable from (except that it bumps the version on every Put).
class PlainDocumentStore {
 public:
  using Document = ShardedDocumentStore::Document;

  void Put(const std::string& key, std::string value, double time) {
    Document& doc = documents_[key];
    doc.value = std::move(value);
    doc.updated_at = time;
    ++doc.version;
  }
  Result<Document> Get(const std::string& key) const {
    auto it = documents_.find(key);
    if (it == documents_.end()) {
      return Status::NotFound("document not found: " + key);
    }
    return it->second;
  }
  bool Delete(const std::string& key) { return documents_.erase(key) > 0; }
  size_t size() const { return documents_.size(); }

 private:
  std::map<std::string, Document> documents_;
};

TEST(ShardedDocumentStoreTest, PutGetDelete) {
  ShardedDocumentStore store;
  EXPECT_FALSE(store.Get("missing").ok());
  store.Put("key", "value-1", 100.0);
  auto doc = store.Get("key");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->value, "value-1");
  EXPECT_DOUBLE_EQ(doc->updated_at, 100.0);
  EXPECT_EQ(doc->version, 1);

  store.Put("key", "value-2", 200.0);
  doc = store.Get("key");
  EXPECT_EQ(doc->value, "value-2");
  EXPECT_EQ(doc->version, 2);

  EXPECT_TRUE(store.Delete("key"));
  EXPECT_FALSE(store.Delete("key"));
  EXPECT_FALSE(store.Get("key").ok());
}

TEST(ShardedDocumentStoreTest, RoundsShardCountUpToPowerOfTwo) {
  EXPECT_EQ(ShardedDocumentStore(0).shard_count(), 1u);
  EXPECT_EQ(ShardedDocumentStore(1).shard_count(), 1u);
  EXPECT_EQ(ShardedDocumentStore(3).shard_count(), 4u);
  EXPECT_EQ(ShardedDocumentStore(16).shard_count(), 16u);
  EXPECT_EQ(ShardedDocumentStore(17).shard_count(), 32u);
}

TEST(ShardedDocumentStoreTest, ShardIndexIsStableAndInRange) {
  ShardedDocumentStore store(8);
  for (int i = 0; i < 64; ++i) {
    const std::string key = StrFormat("pool-%04d", i);
    const size_t shard = store.ShardIndex(key);
    EXPECT_LT(shard, store.shard_count());
    EXPECT_EQ(shard, store.ShardIndex(key));  // deterministic
  }
  // A 1-shard store maps everything to shard 0.
  ShardedDocumentStore single(1);
  EXPECT_EQ(single.ShardIndex("anything"), 0u);
}

// For every shard count, the same Put/Delete sequence yields documents
// byte-identical (value, version, updated_at) to the plain map —
// sharding must be invisible to readers.
TEST(ShardedDocumentStoreTest, MatchesPlainStoreForEveryShardCount) {
  for (const size_t shards : {1u, 4u, 16u}) {
    PlainDocumentStore plain;
    ShardedDocumentStore sharded(shards);
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 40; ++i) {
        const std::string key = StrFormat("pool-%04d", i);
        const std::string value =
            StrFormat("doc for %s round %d", key.c_str(), round);
        const double time = 100.0 * round + i;
        plain.Put(key, value, time);
        sharded.Put(key, value, time);
      }
    }
    EXPECT_TRUE(plain.Delete("pool-0007"));
    EXPECT_TRUE(sharded.Delete("pool-0007"));
    EXPECT_FALSE(sharded.Delete("pool-0007"));
    EXPECT_EQ(sharded.size(), plain.size());
    for (int i = 0; i < 40; ++i) {
      const std::string key = StrFormat("pool-%04d", i);
      auto expect = plain.Get(key);
      auto got = sharded.Get(key);
      ASSERT_EQ(expect.ok(), got.ok()) << key << " shards=" << shards;
      if (!expect.ok()) continue;
      EXPECT_EQ(got->value, expect->value) << key;
      EXPECT_EQ(got->version, expect->version) << key;
      EXPECT_DOUBLE_EQ(got->updated_at, expect->updated_at) << key;
    }
    EXPECT_FALSE(sharded.Get("never-written").ok());
  }
}

// The no-re-serialization contract: a byte-identical Put reuses the cached
// payload buffer (same shared_ptr), keeps the version, and does not bump
// payload_builds. Only a value change materializes new bytes.
TEST(ShardedDocumentStoreTest, ByteIdenticalPutReusesPayload) {
  ShardedDocumentStore store(4);
  store.Put("east", "alloc v1", 10.0);
  EXPECT_EQ(store.payload_builds(), 1u);
  const std::shared_ptr<const std::string> first = store.GetPayload("east");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first, "alloc v1");
  EXPECT_EQ(store.Get("east")->version, 1);

  // Republish identical bytes: no new payload, no version bump, fresher
  // timestamp.
  store.Put("east", "alloc v1", 20.0);
  EXPECT_EQ(store.payload_builds(), 1u);
  EXPECT_EQ(store.GetPayload("east"), first);  // same buffer, not just ==
  EXPECT_EQ(store.Get("east")->version, 1);
  EXPECT_DOUBLE_EQ(store.Get("east")->updated_at, 20.0);

  // A real change builds once and bumps the version.
  store.Put("east", "alloc v2", 30.0);
  EXPECT_EQ(store.payload_builds(), 2u);
  EXPECT_EQ(store.Get("east")->version, 2);
  EXPECT_EQ(*store.GetPayload("east"), "alloc v2");
}

// Snapshot immutability: a payload held by a reader never changes, no
// matter how many Puts and Deletes land after the read.
TEST(ShardedDocumentStoreTest, HeldPayloadSurvivesLaterWrites) {
  ShardedDocumentStore store(2);
  store.Put("east", "generation 0", 0.0);
  const std::shared_ptr<const std::string> held = store.GetPayload("east");
  ASSERT_NE(held, nullptr);
  for (int g = 1; g <= 8; ++g) {
    store.Put("east", StrFormat("generation %d", g), static_cast<double>(g));
  }
  EXPECT_TRUE(store.Delete("east"));
  EXPECT_EQ(store.GetPayload("east"), nullptr);
  EXPECT_EQ(*held, "generation 0");
}

// PutBatch groups by shard and swaps each shard snapshot once; afterwards
// every op is visible with the same semantics as sequential Puts.
TEST(ShardedDocumentStoreTest, PutBatchAppliesEveryOp) {
  ShardedDocumentStore store(4);
  store.Put("pool-0001", "old", 0.0);
  std::vector<ShardedDocumentStore::PutOp> ops;
  for (int i = 0; i < 16; ++i) {
    ops.push_back({StrFormat("pool-%04d", i),
                   StrFormat("batch doc %d", i), 50.0});
  }
  store.PutBatch(std::move(ops));
  EXPECT_EQ(store.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    auto doc = store.Get(StrFormat("pool-%04d", i));
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc->value, StrFormat("batch doc %d", i));
    EXPECT_DOUBLE_EQ(doc->updated_at, 50.0);
  }
  EXPECT_EQ(store.Get("pool-0001")->version, 2);  // old -> batch doc 1
}

// Readers spin on GetPayload/Get while writers publish batches: TSan must
// see no race, held buffers must stay intact, and every observed payload
// must be a value some writer actually published.
TEST(ShardedDocumentStoreTest, ConcurrentReadersAndBatchWriters) {
  ShardedDocumentStore store(4);
  constexpr size_t kKeys = 16;
  constexpr size_t kRounds = 50;
  for (size_t i = 0; i < kKeys; ++i) {
    store.Put(StrFormat("pool-%04zu", i), "round 0", 0.0);
  }
  std::atomic<bool> stop{false};
  std::atomic<size_t> bad_payloads{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      size_t i = r;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key = StrFormat("pool-%04zu", i++ % kKeys);
        const std::shared_ptr<const std::string> payload =
            store.GetPayload(key);
        if (payload == nullptr ||
            payload->rfind("round ", 0) != 0) {
          bad_payloads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread writer([&] {
    for (size_t round = 1; round <= kRounds; ++round) {
      std::vector<ShardedDocumentStore::PutOp> ops;
      for (size_t i = 0; i < kKeys; ++i) {
        ops.push_back({StrFormat("pool-%04zu", i),
                       StrFormat("round %zu", round),
                       static_cast<double>(round)});
      }
      store.PutBatch(std::move(ops));
    }
  });
  writer.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad_payloads.load(), 0u);
  EXPECT_EQ(store.payload_builds(), kKeys * (kRounds + 1));
  for (size_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(*store.GetPayload(StrFormat("pool-%04zu", i)),
              StrFormat("round %zu", kRounds));
  }
}

TEST(ShardedTelemetryStoreTest, MatchesPlainStoreForEveryShardCount) {
  for (const size_t shards : {1u, 4u, 16u}) {
    TelemetryStore plain;
    ShardedTelemetryStore sharded(shards);
    for (int m = 0; m < 12; ++m) {
      const std::string metric = StrFormat("demand.pool-%02d", m);
      for (int t = 0; t < 20; ++t) {
        const double time = 30.0 * t;
        const double value = 1.0 + m + 0.5 * t;
        ASSERT_TRUE(plain.Record(metric, time, value).ok());
        ASSERT_TRUE(sharded.Record(metric, time, value).ok());
      }
    }
    EXPECT_EQ(sharded.Metrics(), plain.Metrics());
    for (int m = 0; m < 12; ++m) {
      const std::string metric = StrFormat("demand.pool-%02d", m);
      EXPECT_EQ(sharded.PointCount(metric), plain.PointCount(metric));
      EXPECT_DOUBLE_EQ(sharded.LastTime(metric), plain.LastTime(metric));
      EXPECT_DOUBLE_EQ(sharded.Sum(metric, 0.0, 600.0),
                       plain.Sum(metric, 0.0, 600.0));
      EXPECT_EQ(sharded.CountInRange(metric, 60.0, 300.0),
                plain.CountInRange(metric, 60.0, 300.0));
      auto expect = plain.QueryBinned(metric, 0.0, 60.0, 10);
      auto got = sharded.QueryBinned(metric, 0.0, 60.0, 10);
      ASSERT_TRUE(expect.ok());
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), expect->size());
      for (size_t b = 0; b < got->size(); ++b) {
        EXPECT_DOUBLE_EQ(got->values()[b], expect->values()[b])
            << metric << " bin " << b;
      }
    }
  }
}

TEST(ShardedTelemetryStoreTest, RejectsOutOfOrderPoints) {
  ShardedTelemetryStore store(4);
  ASSERT_TRUE(store.Record("demand.east", 100.0, 1.0).ok());
  ASSERT_TRUE(store.Record("demand.east", 100.0, 2.0).ok());  // equal ok
  EXPECT_FALSE(store.Record("demand.east", 99.0, 3.0).ok());
  // Other metrics (other shards) are unaffected.
  EXPECT_TRUE(store.Record("demand.west", 0.0, 1.0).ok());
}

// A shard's slice of a batch lands all-or-nothing: one stale point poisons
// every point of the SAME shard, while other shards' slices still apply in
// index order up to the failure.
TEST(ShardedTelemetryStoreTest, RecordBatchIsAllOrNothingPerShard) {
  ShardedTelemetryStore store(16);
  // Find two metrics on distinct shards.
  std::string a = "demand.a";
  std::string b;
  for (int i = 0; i < 64 && b.empty(); ++i) {
    const std::string candidate = StrFormat("demand.b%02d", i);
    if (store.ShardIndex(candidate) != store.ShardIndex(a)) b = candidate;
  }
  ASSERT_FALSE(b.empty());
  ASSERT_TRUE(store.Record(a, 100.0, 1.0).ok());

  // a's slice contains a stale point -> a's whole slice is rejected,
  // including the valid point at time 200.
  std::vector<ShardedTelemetryStore::BatchPoint> batch;
  batch.push_back({a, 200.0, 1.0});
  batch.push_back({a, 50.0, 1.0});  // stale
  batch.push_back({b, 10.0, 1.0});
  const Status status = store.RecordBatch(std::move(batch));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(store.PointCount(a), 1u);  // neither of a's points landed
  EXPECT_DOUBLE_EQ(store.LastTime(a), 100.0);

  // Batch-internal ordering is validated too, against the running batch
  // time, not just the store's last point.
  std::vector<ShardedTelemetryStore::BatchPoint> good;
  good.push_back({a, 200.0, 1.0});
  good.push_back({a, 230.0, 2.0});
  good.push_back({b, 10.0, 1.0});
  ASSERT_TRUE(store.RecordBatch(std::move(good)).ok());
  EXPECT_EQ(store.PointCount(a), 3u);
  EXPECT_EQ(store.PointCount(b), 1u);
}

// SnapshotBinned reads count + last_time + history under ONE shard lock; the
// bins must end with (and include) the newest point.
TEST(ShardedTelemetryStoreTest, SnapshotBinnedIsConsistent) {
  ShardedTelemetryStore store(4);
  for (int t = 0; t < 12; ++t) {
    ASSERT_TRUE(
        store.Record("demand.east", 30.0 * t, static_cast<double>(t)).ok());
  }
  auto view = store.SnapshotBinned("demand.east", 30.0, 8);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->point_count, 12u);
  EXPECT_DOUBLE_EQ(view->last_time, 330.0);
  ASSERT_EQ(view->history.size(), 8u);
  // Bins cover (last-8*30, last] shifted to bin starts: the final bin holds
  // the newest point's value.
  EXPECT_DOUBLE_EQ(view->history.values().back(), 11.0);
  // Matches an explicit QueryBinned over the same window.
  auto manual = store.QueryBinned(
      "demand.east", view->last_time + 30.0 - 30.0 * 8, 30.0, 8);
  ASSERT_TRUE(manual.ok());
  for (size_t b = 0; b < 8; ++b) {
    EXPECT_DOUBLE_EQ(view->history.values()[b], manual->values()[b]);
  }
  EXPECT_FALSE(store.SnapshotBinned("demand.east", 0.0, 8).ok());
}

// Concurrent publishers on distinct metrics with racing binned readers:
// the per-shard locks must keep every append and every snapshot race-free
// (TSan), and no valid append may be rejected.
TEST(ShardedTelemetryStoreTest, ConcurrentRecordAndSnapshot) {
  ShardedTelemetryStore store(4);
  constexpr size_t kWriters = 4;
  constexpr size_t kPoints = 200;
  std::atomic<size_t> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::string metric = StrFormat("demand.writer-%zu", w);
      for (size_t t = 0; t < kPoints; ++t) {
        if (!store.Record(metric, 30.0 * static_cast<double>(t), 1.0).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (size_t w = 0; w < kWriters; ++w) {
        const std::string metric = StrFormat("demand.writer-%zu", w);
        auto view = store.SnapshotBinned(metric, 30.0, 16);
        if (view.ok() && view->point_count > 0) {
          // last_time and point_count came from one locked read: the last
          // point's time is exactly 30 * (count - 1).
          const double expect =
              30.0 * static_cast<double>(view->point_count - 1);
          if (view->last_time != expect) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(failures.load(), 0u);
  for (size_t w = 0; w < kWriters; ++w) {
    EXPECT_EQ(store.PointCount(StrFormat("demand.writer-%zu", w)), kPoints);
  }
}

}  // namespace
}  // namespace ipool

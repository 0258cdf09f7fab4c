// The control plane's benchmark: one process runs one workload end to end
// against the real serving stack (net::Server + net::Router over the sharded
// stores), the live tick (LiveControlPlane::TickOnce) and the fleet tuner,
// and prints every metric named in BENCHMARK.json.
//
//   perfbench --workload <read-zipf|ingest-tick|fleet-tune> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Every workload runs the same lifecycle of a `serve` process, so every
// end-to-end metric is measured on every workload:
//
//   setup   generate the fleet's demand from --seed, preload its history,
//           start stores, handler pool, server and plane, and run the cold
//           first TickOnce (four times; the medians are setup_s and
//           cold_tick_s, the published documents must agree, and the last
//           system is used);
//   ticks   warm ticks, each followed by a chunk of open-loop
//           GetRecommendation at a fixed rate with the plane idle; on
//           ingest-tick the ticks instead run beside open-loop
//           PublishTelemetry of each pool's next demand bins and GETs,
//           and the read chunks follow;
//   ladder  GETs at a fixed ladder of rates up to the latency limit;
//   quality each published recommendation replayed through PoolSimulator
//           against the arrivals the generator realised for its hour.
//
// The workloads differ in what they load. read-zipf reads a large catalog
// of documents with Zipf popularity. ingest-tick runs the `serve` shape:
// publishes, reads and SSA+ ticks at the same time on one handler pool.
// fleet-tune runs the tuner every tick on a virtual clock.
//
// --trace 0 prints the end-to-end metrics. --trace 1 repeats the run with
// timing around the public calls of each layer (server handler stamps, a
// tick replayed call by call next to TickOnce, a TaskProfiler on the pool)
// and prints the per-layer and serving metrics. Nothing under src/ is
// instrumented for it. The last stdout line is the JSON result; exit
// status 1 means a correctness check failed.
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/recommendation_engine.h"
#include "decomposed_tick.h"
#include "exec/task_profiler.h"
#include "exec/thread_pool.h"
#include "live/live_control_plane.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "open_loop.h"
#include "service/recommendation_io.h"
#include "service/sharded_document_store.h"
#include "service/sharded_telemetry_store.h"
#include "sim/pool_simulator.h"
#include "solver/saa_optimizer.h"
#include "stats.h"
#include "workload/demand_generator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using ipool::net::Method;
using ipool::net::WireStatus;

constexpr double kBinSeconds = 30.0;
constexpr size_t kHistoryBins = 480;
constexpr size_t kRecommendationBins = 120;
constexpr size_t kFirstBin = 960;  // 08:00 on the generated day
// Thread budget on a 4-core host: server loop + handler pool + generator.
constexpr size_t kHandlerThreads = 2;
constexpr size_t kConnections = 4;
constexpr size_t kWindow = 64;
// A ladder step meets the limit when its p99, timed from the scheduled send
// and counting failed or shed requests as misses, stays under this.
constexpr double kLadderLimitMs = 25.0;
constexpr int kSetupRepeats = 4;
// A traced run pairs TickOnce with the decomposed tick for at least this
// many warm ticks, and until the TickOnce side has run this many seconds:
// one pair of sub-second ticks can differ by ~15% from host noise alone.
constexpr size_t kPairedWarmTicks = 10;
constexpr double kPairedSeconds = 8.0;
constexpr size_t kMaxPairedWarmTicks = 60;

// The read phase's fixed GET rate: about a fifth of the ~130k/s the ladder
// reaches on a 4-vCPU host. Much lower, the server's threads go idle between
// requests, and the p99 on a virtualized host is then set by how fast a
// halted vCPU wakes (milliseconds, varying run to run), not by the server.
constexpr double kReadRate = 25000.0;
/// The ladder's GET rates, ascending; fine steps where a 4-core server
/// saturates.
constexpr double kLadder[] = {30e3, 40e3, 50e3, 55e3, 60e3, 65e3,
                              70e3, 75e3, 80e3, 90e3, 100e3, 115e3,
                              130e3, 150e3, 175e3, 200e3};
constexpr double kLadderStepSeconds = 0.8;

// ingest-tick's mixed phase, the `serve` shape. A warm tick of its six SSA+
// pools holds both handler threads for 0.8-1 s; ticking every 1.6 s leaves
// the handlers the rest of each period to drain. The 4 connections carry at
// most 256 requests, so about 400 requests/s is what a held pool can queue
// without the generator falling behind: 200 publishes and 200 GETs. The
// publishes replay each pool's demand in compressed time, ~50 bins per pool
// per tick, so every tick refits on slid history.
constexpr double kIngestShare = 0.7;  ///< of --seconds
constexpr double kIngestPublishRate = 200.0;
constexpr double kIngestGetRate = 200.0;
constexpr double kTickPeriodSeconds = 1.6;

/// ingest-tick's read phase, after its ticks, is cut into this many chunks
/// (each followed by a burst) so serve_cpu_us_per_req is a median there too.
constexpr size_t kConcurrentReadChunks = 4;
/// GETs in one burst: ~0.2 s of a 4-core server's capacity.
constexpr size_t kBurstRequests = 20000;

// ---------------------------------------------------------------------------
// Workloads

struct PoolSpec {
  std::string name;
  ipool::WorkloadConfig profile;
};

struct Workload {
  std::string name;
  std::vector<PoolSpec> pools;
  /// Extra read-only recommendation documents (read-zipf's catalog).
  size_t catalog_docs = 0;
  /// Zipf exponent of the read key popularity (0 = uniform).
  double zipf_s = 0.0;
  bool tuner = false;
  /// The plane ticks beside an open-loop mix of publishes and GETs
  /// (ingest-tick); otherwise ticks and reads take turns.
  bool concurrent = false;
  double read_share = 0.2;  ///< of --seconds
  /// Quiesced workloads: warm ticks, each followed by a read chunk.
  size_t warm_ticks = 0;
  /// Quiesced ticks slide pool i on tick t when (i + t) % slide_every == 0,
  /// by slide_bins bins.
  size_t slide_every = 1;
  size_t slide_bins = 10;
};

std::vector<PoolSpec> TablePools(uint64_t seed, size_t count) {
  using ipool::NodeSize;
  using ipool::Region;
  const std::pair<Region, NodeSize> rows[] = {
      {Region::kWestUs2, NodeSize::kSmall}, {Region::kEastUs2, NodeSize::kMedium},
      {Region::kWestUs2, NodeSize::kLarge}, {Region::kEastUs2, NodeSize::kSmall},
      {Region::kWestUs2, NodeSize::kMedium}, {Region::kEastUs2, NodeSize::kLarge}};
  std::vector<PoolSpec> pools;
  for (size_t i = 0; i < count; ++i) {
    const auto& [region, size] = rows[i % 6];
    PoolSpec pool;
    pool.name = ipool::RegionToString(region) + "-" +
                ipool::NodeSizeToString(size) + "-" + std::to_string(i);
    pool.profile = ipool::RegionNodeProfile(region, size, seed * 1000 + i);
    pools.push_back(pool);
  }
  return pools;
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "read-zipf") {
    w.pools = TablePools(seed, 8);
    w.catalog_docs = 1024;
    w.zipf_s = 1.1;
    w.read_share = 0.4;
    w.warm_ticks = 8;
  } else if (name == "ingest-tick") {
    w.pools = TablePools(seed, 6);
    w.concurrent = true;
    w.read_share = 0.1;
  } else if (name == "fleet-tune") {
    // Tune cost per pool depends on its data (switches re-run the alpha'
    // refinement), so the fleet is large enough for a seed's mix to
    // average out.
    w.pools = TablePools(seed, 16);
    for (size_t i = 0; i < 8; ++i) {
      PoolSpec pool;
      pool.name = "regime-shift-" + std::to_string(i);
      // The level shift lands between 09:36 and 11:20, inside the history
      // window (08:00 to noon) the ticks tune on.
      pool.profile = ipool::RegimeShiftProfile(seed * 1000 + 100 + i,
                                               0.4 + 0.01 * i, 6.0);
      w.pools.push_back(pool);
    }
    w.tuner = true;
    w.read_share = 0.35;
    w.slide_every = 2;
    // Long slides spread the replayed documents over more distinct hours:
    // with 10-bin slides idle_cluster_h varied by 0.15-0.34 (IQR over
    // median) across ten seeds, with 30-bin slides by 0.08.
    w.slide_bins = 30;
    w.warm_ticks = 10;
  } else {
    w.name.clear();
  }
  for (PoolSpec& pool : w.pools) pool.profile.duration_days = 1.0;
  return w;
}

// ---------------------------------------------------------------------------
// The system under test

/// Handler-side timestamps per request id, written by the wrapped
/// Router::Handle lambda in traced phases.
struct Stamps {
  explicit Stamps(size_t n)
      : size(n),
        start(new std::atomic<double>[n + 1]),
        end(new std::atomic<double>[n + 1]) {
    for (size_t i = 0; i <= n; ++i) {
      start[i].store(-1.0, std::memory_order_relaxed);
      end[i].store(-1.0, std::memory_order_relaxed);
    }
  }
  size_t size;
  std::unique_ptr<std::atomic<double>[]> start;
  std::unique_ptr<std::atomic<double>[]> end;
};

struct Pool {
  std::string name;
  ipool::TimeSeries demand;  ///< the whole generated day, bin 0 at t = 0
  size_t next_bin = 0;       ///< first bin not yet delivered as telemetry
};

/// One document the store held: which pool, and its bytes.
struct PublishedDoc {
  std::string key;
  std::string bytes;
};

struct System {
  // Declaration order is teardown order reversed: the server stops before
  // the plane, the plane before the pool and stores it uses.
  ipool::obs::MetricsRegistry registry;
  std::unique_ptr<ipool::ShardedTelemetryStore> telemetry;
  std::unique_ptr<ipool::ShardedDocumentStore> documents;
  std::unique_ptr<ipool::exec::ThreadPool> pool;
  std::unique_ptr<ipool::RecommendationEngine> engine;
  std::atomic<double> clock{0.0};
  ipool::live::LiveControlPlaneConfig plane_config;
  std::unique_ptr<ipool::live::LiveControlPlane> plane;
  std::unique_ptr<ipool::net::Router> router;
  std::atomic<Stamps*> stamps{nullptr};
  /// Stamp blocks of finished phases: a handler still running after its
  /// phase gave up waiting may hold one, so they live as long as the server.
  std::vector<std::unique_ptr<Stamps>> retired_stamps;
  std::unique_ptr<ipool::net::Server> server;

  std::vector<Pool> pools;
  std::vector<std::pair<std::string, std::string>> catalog;  ///< key, bytes
  std::vector<std::string> read_keys;      ///< documents the read phase GETs
  std::vector<char> read_key_is_tuning;
  /// Hashes of every payload the store held per key.
  std::unordered_map<std::string, std::unordered_set<uint64_t>> known;
  /// Every distinct recommendation the plane published, for the replay.
  std::vector<PublishedDoc> published;
  std::unordered_set<uint64_t> published_hashes;
  /// The generator's parse verdicts per payload hash (see OpenLoopConfig).
  std::unordered_map<uint64_t, bool> parsed;

  ~System() {
    if (server != nullptr) server->Shutdown(5.0);
  }
};

ipool::PipelineConfig ServePipeline() {
  // The `ipool_cli serve` defaults: SSA+ 2-step, the production engine.
  ipool::PipelineConfig pipeline;
  pipeline.model = ipool::ModelKind::kSsaPlus;
  pipeline.forecast.window = 96;
  pipeline.forecast.horizon = 48;
  pipeline.forecast.alpha_prime = 0.9;
  pipeline.saa.alpha_prime = 0.3;
  pipeline.saa.pool.tau_bins = 3;
  pipeline.saa.pool.max_pool_size = 500;
  pipeline.recommendation_bins = kRecommendationBins;
  return pipeline;
}

std::string MetricName(const std::string& pool) { return "demand." + pool; }

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T OrDie(ipool::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(*result);
}

void Remember(System& sys, const std::string& key, const std::string& bytes,
              bool recommendation) {
  const uint64_t hash = PayloadHash(bytes);
  sys.known[key].insert(hash);
  if (recommendation && sys.published_hashes.insert(hash).second) {
    sys.published.push_back({key, bytes});
  }
}

/// Every document the plane currently serves: each pool's recommendation,
/// then its tuning document when it has one.
std::vector<PublishedDoc> LiveDocuments(const System& sys) {
  std::vector<PublishedDoc> docs;
  for (const Pool& pool : sys.pools) {
    for (const std::string& key :
         {pool.name, sys.plane_config.tuning_doc_prefix + pool.name}) {
      if (auto doc = sys.documents->GetPayload(key)) {
        docs.push_back({key, *doc});
      }
    }
  }
  return docs;
}

/// Records every document the plane currently serves (after each tick).
void RememberLive(System& sys) {
  for (const PublishedDoc& doc : LiveDocuments(sys)) {
    const bool tuning =
        doc.key.rfind(sys.plane_config.tuning_doc_prefix, 0) == 0;
    Remember(sys, doc.key, doc.bytes, !tuning);
  }
}

/// Appends bins [next_bin, next_bin + bins) of `pool` straight into the
/// telemetry store.
void Slide(System& sys, Pool& pool, size_t bins) {
  std::vector<ipool::ShardedTelemetryStore::BatchPoint> points;
  const size_t end = std::min(pool.demand.size(), pool.next_bin + bins);
  for (size_t i = pool.next_bin; i < end; ++i) {
    points.push_back({MetricName(pool.name), pool.demand.TimeAt(i),
                      pool.demand.value(i)});
  }
  pool.next_bin = end;
  if (!sys.telemetry->RecordBatch(std::move(points)).ok()) {
    Die("telemetry slide rejected");
  }
}

std::unique_ptr<System> Setup(const Workload& w, uint64_t seed) {
  auto sys = std::make_unique<System>();
  for (const PoolSpec& spec : w.pools) {
    auto generator =
        OrDie(ipool::DemandGenerator::Create(spec.profile), "workload");
    sys->pools.push_back({spec.name, generator.GenerateBinned(), 0});
  }
  sys->telemetry = std::make_unique<ipool::ShardedTelemetryStore>();
  sys->documents = std::make_unique<ipool::ShardedDocumentStore>();
  // History starts at 08:00, so the hours the published recommendations
  // cover (from noon on) carry hundreds of arrivals each; an overnight hour
  // carries a handful, and its average wait is that of one or two requests.
  for (Pool& pool : sys->pools) {
    pool.next_bin = kFirstBin;
    Slide(*sys, pool, kHistoryBins);
  }

  ipool::PipelineConfig pipeline = ServePipeline();
  pipeline.obs = ipool::ObsContext{&sys->registry, nullptr};
  sys->engine = std::make_unique<ipool::RecommendationEngine>(
      OrDie(ipool::RecommendationEngine::Create(pipeline), "engine"));

  // read-zipf's catalog: real SAA recommendations over slices of the
  // fleet's demand, one per key.
  ipool::Rng rng(seed ^ 0x5eed);
  for (size_t i = 0; i < w.catalog_docs; ++i) {
    const Pool& pool = sys->pools[i % sys->pools.size()];
    const size_t offset = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(pool.demand.size() - kRecommendationBins)));
    ipool::TimeSeries slice =
        pool.demand.Slice(offset, offset + kRecommendationBins);
    ipool::SaaConfig saa = pipeline.saa;
    saa.alpha_prime = 0.1 + 0.8 * rng.NextDouble();
    auto optimizer = OrDie(ipool::SaaOptimizer::Create(saa), "saa");
    auto schedule = OrDie(optimizer.Optimize(slice), "catalog solve");
    ipool::StoredRecommendation stored;
    stored.recommendation.pool_size_per_bin = schedule.pool_size_per_bin;
    stored.recommendation.predicted_demand = slice.values();
    stored.recommendation.model_name = "SAA";
    stored.start_time = slice.start();
    stored.interval_seconds = kBinSeconds;
    const std::string key = "catalog-" + std::to_string(i);
    std::string bytes = ipool::SerializeRecommendation(stored);
    Remember(*sys, key, bytes, false);
    sys->catalog.emplace_back(key, bytes);
    sys->documents->Put(key, std::move(bytes), stored.start_time);
    sys->read_keys.push_back(key);
    sys->read_key_is_tuning.push_back(0);
  }
  for (const Pool& pool : sys->pools) {
    sys->read_keys.push_back(pool.name);
    sys->read_key_is_tuning.push_back(0);
    if (w.tuner) {
      sys->read_keys.push_back("tuning." + pool.name);
      sys->read_key_is_tuning.push_back(1);
    }
  }

  sys->pool = std::make_unique<ipool::exec::ThreadPool>(kHandlerThreads);
  ipool::live::LiveControlPlaneConfig& config = sys->plane_config;
  config.bin_interval_seconds = kBinSeconds;
  config.history_bins = kHistoryBins;
  config.min_history_points = 64;
  config.warm_refit = true;
  config.exec.pool = sys->pool.get();
  config.obs = ipool::ObsContext{&sys->registry, nullptr};
  System* raw = sys.get();
  config.clock = [raw] { return raw->clock.load(std::memory_order_relaxed); };
  if (w.tuner) {
    config.tune_interval_seconds = 1.0;  // every tick of the virtual clock
    // SSA candidates only (`serve --tune-models ssa`). With baseline
    // candidates too, a tick's cost follows how many pools a seed's data
    // hands to the (nearly free) baseline: tick_p50_s varied by ~0.3 (IQR
    // over median) across ten seeds, against ~0.2 with SSA only.
    config.tuner.models = {ipool::ModelKind::kSsa};
    config.tuner.eval_bins = 120;
    // Twice the largest window, so cheap rungs do not handicap SSA fits.
    config.tuner.min_train_bins = 192;
  }
  sys->plane = OrDie(ipool::live::LiveControlPlane::Create(
                         sys->engine.get(), sys->telemetry.get(),
                         sys->documents.get(), config),
                     "plane");

  sys->router = std::make_unique<ipool::net::Router>(ipool::net::RouterConfig{
      sys->documents.get(), sys->telemetry.get(), &sys->registry, nullptr,
      sys->plane.get()});
  ipool::net::ServerConfig server_config;
  server_config.pool = sys->pool.get();
  server_config.max_inflight_per_conn = kWindow;
  server_config.metrics = &sys->registry;
  ipool::net::Router* router = sys->router.get();
  std::atomic<Stamps*>* stamps = &sys->stamps;
  sys->server = OrDie(
      ipool::net::Server::Start(
          server_config,
          [router, stamps](const ipool::net::Frame& request) {
            Stamps* s = stamps->load(std::memory_order_acquire);
            if (s == nullptr || request.request_id > s->size) {
              return router->Handle(request);
            }
            s->start[request.request_id].store(SteadyNow(),
                                               std::memory_order_relaxed);
            ipool::net::Frame response = router->Handle(request);
            s->end[request.request_id].store(SteadyNow(),
                                             std::memory_order_relaxed);
            return response;
          }),
      "server");
  return sys;
}

// ---------------------------------------------------------------------------
// Measurement helpers

double ProcessCpu() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ThreadCpu(pthread_t thread) {
  clockid_t id;
  if (pthread_getcpuclockid(thread, &id) != 0) return 0.0;
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct HistogramRead {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
};

/// Current buckets of `name` summed over the given label sets.
HistogramRead ReadHistogram(ipool::obs::MetricsRegistry& registry,
                            const std::string& name,
                            const std::vector<ipool::obs::LabelSet>& labels) {
  HistogramRead out;
  for (const auto& label : labels) {
    ipool::obs::Histogram* h = registry.GetHistogram(name, label);
    out.bounds = h->upper_bounds();
    out.counts.resize(out.bounds.size() + 1, 0);
    for (size_t i = 0; i <= out.bounds.size(); ++i) {
      out.counts[i] += h->bucket_count(i);
    }
  }
  return out;
}

uint64_t HistogramCount(ipool::obs::MetricsRegistry& registry,
                        const std::string& name) {
  uint64_t total = 0;
  for (const auto& entry : registry.Histograms()) {
    if (entry.name == name) total += entry.instrument->count();
  }
  return total;
}

uint64_t CounterValue(ipool::obs::MetricsRegistry& registry,
                      const std::string& name) {
  uint64_t total = 0;
  for (const auto& entry : registry.Counters()) {
    if (entry.name == name) total += entry.instrument->value();
  }
  return total;
}

/// Forecast fits, solves and tunes recorded by the library's own
/// instruments; the read phase must not move them.
uint64_t ComputeCalls(ipool::obs::MetricsRegistry& registry) {
  return HistogramCount(registry, "ipool_forecast_fit_seconds") +
         HistogramCount(registry, "ipool_solve_seconds") +
         HistogramCount(registry, "ipool_tune_pool_seconds");
}

// ---------------------------------------------------------------------------
// Open-loop phases

struct PhaseCounts {
  std::string name;
  size_t attempted = 0, ok = 0, failed = 0, shed = 0, protocol_errors = 0;
  size_t bad_documents = 0;  ///< GET bytes that failed to parse or match
};

struct PhaseStats {
  PhaseCounts counts;
  std::vector<double> get_ms, publish_ms, late_ms;  ///< after warm-up
  // Traced phases: per-request layer parts, microseconds.
  std::vector<double> inbound_us, router_get_us, router_publish_us,
      outbound_us;
  double gen_cpu_s = 0.0;
  double process_cpu_s = 0.0;
  size_t completed = 0;
};

std::vector<double> PoissonTimes(ipool::Rng& rng, double rate, double seconds) {
  std::vector<double> times;
  double t = 0.0;
  for (;;) {
    t += rng.Exponential(rate);
    if (t >= seconds) break;
    times.push_back(t);
  }
  return times;
}

/// Zipf(s) over n ranks mapped through a seeded permutation of the keys, so
/// the hot keys land on different shards for different seeds.
class KeyPicker {
 public:
  KeyPicker(size_t n, double s, uint64_t seed) : order_(n), cdf_(n) {
    std::iota(order_.begin(), order_.end(), 0);
    ipool::Rng rng(seed);
    for (size_t i = n; i > 1; --i) {
      std::swap(order_[i - 1],
                order_[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(i - 1)))]);
    }
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  uint32_t Pick(ipool::Rng& rng) const {
    const double u = rng.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return static_cast<uint32_t>(order_[std::min(rank, order_.size() - 1)]);
  }

 private:
  std::vector<size_t> order_;
  std::vector<double> cdf_;
};

/// Publishes `pool`'s next demand bin. Requires a bin left in the
/// generated day.
Request PublishRequest(double due, Pool& pool, uint32_t group) {
  const size_t bin = pool.next_bin++;
  char line[160];
  std::snprintf(line, sizeof(line), "%s,%.17g,%.17g\n",
                MetricName(pool.name).c_str(), pool.demand.TimeAt(bin),
                pool.demand.value(bin));
  Request request;
  request.due = due;
  request.method = Method::kPublishTelemetry;
  request.payload = line;
  request.order_group = group;
  return request;
}

Request GetRequest(double due, const System& sys, uint32_t key) {
  Request request;
  request.due = due;
  request.method = Method::kGetRecommendation;
  request.payload = sys.read_keys[key];
  request.key = key;
  request.tuning_doc = sys.read_key_is_tuning[key] != 0;
  return request;
}

/// Runs the schedule on a generator thread while `during` runs on the
/// calling thread (given the generator's pthread), then scores the phase.
template <typename During>
PhaseStats RunPhase(System& sys, const std::string& name,
                    const std::vector<Request>& requests, double warmup,
                    bool traced, During during) {
  Stamps* stamps = nullptr;
  if (traced) {
    sys.retired_stamps.push_back(std::make_unique<Stamps>(requests.size()));
    stamps = sys.retired_stamps.back().get();
    sys.stamps.store(stamps, std::memory_order_release);
  }
  const uint64_t shed_before = sys.server->requests_shed();
  const uint64_t server_errors_before = sys.server->protocol_errors();
  OpenLoopConfig config;
  config.port = sys.server->port();
  config.connections = kConnections;
  config.window = kWindow;
  config.parsed = &sys.parsed;
  OpenLoopResult result;
  double gen_cpu = 0.0;
  const double cpu_before = ProcessCpu();
  std::thread generator([&] {
    timespec a{}, b{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
    result = RunOpenLoop(config, requests);
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
    gen_cpu = static_cast<double>(b.tv_sec - a.tv_sec) +
              1e-9 * static_cast<double>(b.tv_nsec - a.tv_nsec);
  });
  during(generator.native_handle());
  generator.join();
  PhaseStats stats;
  stats.process_cpu_s = ProcessCpu() - cpu_before;
  stats.gen_cpu_s = gen_cpu;
  sys.stamps.store(nullptr, std::memory_order_release);

  PhaseCounts& c = stats.counts;
  c.name = name;
  c.attempted = requests.size();
  c.shed = sys.server->requests_shed() - shed_before;
  c.protocol_errors = result.protocol_errors + result.transport_errors +
                      (sys.server->protocol_errors() - server_errors_before);
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    const Outcome& out = result.outcomes[i];
    const bool answered = out.recv >= 0.0;
    const bool ok = answered && out.status == WireStatus::kOk;
    if (ok) {
      ++c.ok;
      ++stats.completed;
    } else if (!answered || out.status != WireStatus::kRetryAfter) {
      ++c.failed;
    }
    const bool is_get = request.method == Method::kGetRecommendation;
    if (ok && is_get) {
      const auto known = sys.known.find(sys.read_keys[request.key]);
      if (!out.parsed || known == sys.known.end() ||
          known->second.count(out.payload_hash) == 0) {
        ++c.bad_documents;
      }
    }
    if (request.due < warmup) continue;
    const double due = result.start + request.due;
    const double latency_ms = ok ? (out.recv - due) * 1e3 : kInf;
    (is_get ? stats.get_ms : stats.publish_ms).push_back(latency_ms);
    if (out.sent >= 0.0) stats.late_ms.push_back((out.sent - due) * 1e3);
    if (stamps != nullptr && ok) {
      const double start = stamps->start[i + 1].load(std::memory_order_relaxed);
      const double end = stamps->end[i + 1].load(std::memory_order_relaxed);
      if (start >= 0.0 && end >= start) {
        stats.inbound_us.push_back((start - out.sent) * 1e6);
        (is_get ? stats.router_get_us : stats.router_publish_us)
            .push_back((end - start) * 1e6);
        stats.outbound_us.push_back((out.recv - end) * 1e6);
      }
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Ticks

struct TickSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ipool::live::TickStatus status = ipool::live::TickStatus::kIdle;
};

/// One TickOnce on the main plane; `generator` CPU is excluded when the
/// generator runs concurrently.
TickSample Tick(System& sys, const pthread_t* generator) {
  sys.clock.store(sys.clock.load() + 1.0);
  TickSample sample;
  const double gen_before = generator != nullptr ? ThreadCpu(*generator) : 0.0;
  const double cpu_before = ProcessCpu();
  const double t = SteadyNow();
  sample.status = sys.plane->TickOnce();
  sample.wall_s = SteadyNow() - t;
  sample.cpu_s = ProcessCpu() - cpu_before -
                 (generator != nullptr ? ThreadCpu(*generator) - gen_before
                                       : 0.0);
  RememberLive(sys);
  return sample;
}

/// Slides the pools a quiesced warm tick `t` (1-based) moves forward.
void SlideForTick(const Workload& w, System& sys, size_t t) {
  for (size_t i = 0; i < sys.pools.size(); ++i) {
    if ((i + t) % w.slide_every == 0) Slide(sys, sys.pools[i], w.slide_bins);
  }
}

// ---------------------------------------------------------------------------
// Quality: replay every published recommendation's hour.

struct Quality {
  double avg_wait_s = 0.0;
  double hit_rate = 0.0;
  double idle_cluster_h = 0.0;  ///< per replayed pool-hour
  size_t documents = 0;
};

Quality Replay(const System& sys, uint64_t seed) {
  int64_t requests = 0, hits = 0;
  double wait = 0.0, idle = 0.0;
  size_t documents = 0;
  for (const PublishedDoc& doc : sys.published) {
    const auto pool = std::find_if(
        sys.pools.begin(), sys.pools.end(),
        [&](const Pool& p) { return p.name == doc.key; });
    auto parsed = ipool::ParseRecommendation(doc.bytes);
    if (pool == sys.pools.end() || !parsed.ok()) Die("unreplayable document");
    const std::vector<int64_t>& schedule =
        parsed->recommendation.pool_size_per_bin;
    const size_t first =
        static_cast<size_t>(std::llround(parsed->start_time / kBinSeconds));
    if (first + schedule.size() > pool->demand.size()) continue;
    // Arrivals the generator realised for this hour, scattered in their
    // bins by a stream fixed by the seed, pool and hour.
    ipool::Rng rng(seed * 7919 + first * 31 + doc.key.size());
    std::vector<double> arrivals;
    for (size_t b = 0; b < schedule.size(); ++b) {
      const int64_t count =
          static_cast<int64_t>(std::llround(pool->demand.value(first + b)));
      for (int64_t k = 0; k < count; ++k) {
        arrivals.push_back((static_cast<double>(b) + rng.NextDouble()) *
                           kBinSeconds);
      }
    }
    std::sort(arrivals.begin(), arrivals.end());
    ipool::SimConfig config;
    config.creation_latency_mean_seconds = 90.0;
    config.creation_latency_cv = 0.2;
    config.seed = seed + first;
    auto simulator = OrDie(ipool::PoolSimulator::Create(config), "sim");
    const double horizon = kBinSeconds * static_cast<double>(schedule.size());
    auto result =
        OrDie(simulator.Run(arrivals, schedule, kBinSeconds, horizon), "replay");
    requests += result.total_requests;
    hits += result.pool_hits;
    wait += result.total_wait_seconds;
    idle += result.idle_cluster_seconds;
    ++documents;
  }
  Quality q;
  q.documents = documents;
  if (requests > 0) {
    q.avg_wait_s = wait / static_cast<double>(requests);
    q.hit_rate = static_cast<double>(hits) / static_cast<double>(requests);
  }
  if (documents > 0) q.idle_cluster_h = idle / 3600.0 / static_cast<double>(documents);
  return q;
}

// ---------------------------------------------------------------------------
// The run

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::vector<std::string> failures;
  std::vector<PhaseCounts> phases;
  size_t tick_attempted = 0, tick_failed = 0;
  std::vector<Metric> metrics;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

struct LadderStep {
  double rate = 0.0, p50_ms = 0.0, p99_ms = 0.0, late_p99_ms = 0.0;
};

struct LadderResult {
  double max_rps = 0.0;
  std::vector<LadderStep> steps;
};

/// Walks the fixed ladder up to the first step that misses the limit and
/// interpolates (log p99 against rate) where the limit is crossed, so the
/// result moves continuously with the server's speed.
LadderResult Ladder(System& sys, ipool::Rng& rng, const KeyPicker& picker,
                    Report& report) {
  LadderResult out;
  auto step = [&](double rate) {
    std::vector<Request> requests;
    for (double t : PoissonTimes(rng, rate, kLadderStepSeconds)) {
      requests.push_back(GetRequest(t, sys, picker.Pick(rng)));
    }
    char name[48];
    std::snprintf(name, sizeof(name), "ladder@%.0f", rate);
    PhaseStats stats = RunPhase(sys, name, requests, 0.15, false,
                                [](pthread_t) {});
    report.phases.push_back(stats.counts);
    out.steps.push_back({rate, Median(stats.get_ms),
                         WindowedQuantile(stats.get_ms, 0.99),
                         WindowedQuantile(stats.late_ms, 0.99)});
    return out.steps.back().p99_ms;
  };
  double prev_rate = 0.0, prev_p99 = 0.0;
  for (double rate : kLadder) {
    double p99 = step(rate);
    // A step that misses the limit is run once more before the ladder
    // stops: one episode of host interference must not end the walk.
    if (p99 > kLadderLimitMs) p99 = std::min(p99, step(rate));
    if (p99 <= kLadderLimitMs) {
      prev_rate = rate;
      prev_p99 = p99;
      out.max_rps = rate;
      continue;
    }
    if (prev_rate > 0.0) {
      const double lo = std::log(std::max(prev_p99, 1e-3));
      const double hi = std::log(std::min(p99, 1e6));
      const double f = hi > lo ? (std::log(kLadderLimitMs) - lo) / (hi - lo) : 0.0;
      out.max_rps = prev_rate + std::clamp(f, 0.0, 1.0) * (rate - prev_rate);
    }
    break;
  }
  return out;
}

/// Adds the counts and samples of `from` to `into`.
void Merge(PhaseStats& into, const PhaseStats& from) {
  PhaseCounts& c = into.counts;
  c.attempted += from.counts.attempted;
  c.ok += from.counts.ok;
  c.failed += from.counts.failed;
  c.shed += from.counts.shed;
  c.protocol_errors += from.counts.protocol_errors;
  c.bad_documents += from.counts.bad_documents;
  auto append = [](std::vector<double>& to, const std::vector<double>& v) {
    to.insert(to.end(), v.begin(), v.end());
  };
  append(into.get_ms, from.get_ms);
  append(into.publish_ms, from.publish_ms);
  append(into.late_ms, from.late_ms);
  append(into.inbound_us, from.inbound_us);
  append(into.router_get_us, from.router_get_us);
  append(into.router_publish_us, from.router_publish_us);
  append(into.outbound_us, from.outbound_us);
  into.gen_cpu_s += from.gen_cpu_s;
  into.process_cpu_s += from.process_cpu_s;
  into.completed += from.completed;
}

/// A fresh plane and a DecomposedTick fed the same frozen telemetry, tick
/// by tick: checks byte identity and reconciles the stage sum with the
/// TickOnce wall time, and yields the per-layer tick metrics.
void PairedTicks(System& sys, const Workload& w, Report& report) {
  ipool::ShardedDocumentStore twin_documents;
  ipool::live::LiveControlPlaneConfig config = sys.plane_config;
  auto twin = OrDie(ipool::live::LiveControlPlane::Create(
                        sys.engine.get(), sys.telemetry.get(),
                        &twin_documents, config),
                    "twin plane");
  auto decomposed = OrDie(
      DecomposedTick::Create(sys.engine.get(), sys.telemetry.get(), config),
      "decomposed tick");
  ipool::exec::TaskProfiler profiler;
  sys.pool->AttachProfiler(&profiler);
  const uint64_t warm_hits_before =
      CounterValue(sys.registry, "ipool_ssa_warm_start_hits_total");
  const uint64_t ssa_fits_before =
      HistogramCount(sys.registry, "ipool_ssa_fit_seconds");

  std::vector<double> snapshot_ms, resolve_ms, compute_ms, tune_ms,
      put_batch_ms;
  std::vector<double> pair_ratio;  ///< stage sum / TickOnce wall per pair
  double plane_sum_s = 0.0;
  std::map<std::string, std::vector<double>> refit_ms;
  std::vector<double> predict_ms, optimize_ms, serialize_us, tune_pool_ms;
  size_t puts = 0, builds = 0, tunes = 0, switched = 0, evaluations = 0,
         memo_hits = 0, mismatches = 0;
  double queue_s = 0.0, run_s = 0.0, busy_capacity_s = 0.0;
  const size_t executors = sys.pool->num_threads() + 1;

  size_t ticks = 0;
  for (size_t t = 0; t <= kPairedWarmTicks ||
                     (plane_sum_s < kPairedSeconds && t <= kMaxPairedWarmTicks);
       ++t) {
    ticks = t + 1;
    if (t > 0) SlideForTick(w, sys, t);
    sys.clock.store(sys.clock.load() + 1.0);
    const double wall = sys.clock.load();
    // Alternate which side runs first so neither always meets warm caches.
    double plane_s = 0.0;
    ipool::live::TickStatus status = ipool::live::TickStatus::kIdle;
    DecomposedTickResult parts;
    double fan_start = 0.0, fan_end = 0.0;
    auto run_plane = [&] {
      fan_start = profiler.Now();
      const double t0 = SteadyNow();
      status = twin->TickOnce();
      plane_s = SteadyNow() - t0;
      fan_end = profiler.Now();
    };
    if (t % 2 == 0) {
      run_plane();
      parts = decomposed->Run(wall);
    } else {
      parts = decomposed->Run(wall);
      run_plane();
    }
    ++report.tick_attempted;
    if (status != ipool::live::TickStatus::kOk || !parts.ok) {
      ++report.tick_failed;
      report.Check(false, "paired tick failed: " + parts.error);
    }
    for (const auto& [key, bytes] : parts.documents) {
      auto served = twin_documents.GetPayload(key);
      if (served == nullptr || *served != bytes) ++mismatches;
    }
    // Plane fan-out chunks of this tick: queue wait, run, and capacity.
    double first_enqueue = kInf, last_end = 0.0;
    for (const ipool::exec::TaskRecord& r : profiler.Records()) {
      if (std::strcmp(r.label, "live.pool") != 0 ||
          r.kind != ipool::exec::TaskKind::kChunk ||
          r.enqueue_seconds < fan_start || r.end_seconds > fan_end) {
        continue;
      }
      queue_s += r.queue_seconds();
      run_s += r.run_seconds();
      first_enqueue = std::min(first_enqueue, r.enqueue_seconds);
      last_end = std::max(last_end, r.end_seconds);
    }
    if (last_end > first_enqueue) {
      busy_capacity_s += static_cast<double>(executors) * (last_end - first_enqueue);
    }
    profiler.Clear();

    if (t == 0) continue;  // the cold tick is reported as cold_tick_s
    snapshot_ms.push_back(parts.snapshot_s * 1e3);
    resolve_ms.push_back(parts.resolve_s * 1e3);
    compute_ms.push_back(parts.compute_s * 1e3);
    tune_ms.push_back(parts.tune_s * 1e3);
    put_batch_ms.push_back(parts.put_batch_s * 1e3);
    pair_ratio.push_back(parts.StageSum() / plane_s);
    plane_sum_s += plane_s;
    for (const PoolCalls& calls : parts.pools) {
      refit_ms[calls.model].push_back(calls.refit_s * 1e3);
      predict_ms.push_back(calls.predict_s * 1e3);
      optimize_ms.push_back(calls.optimize_s * 1e3);
    }
    for (double s : parts.serialize_doc_s) serialize_us.push_back(s * 1e6);
    for (double s : parts.tune_pool_s) tune_pool_ms.push_back(s * 1e3);
    puts += parts.puts;
    builds += parts.payload_builds;
    for (const auto& tune : parts.tunes) {
      ++tunes;
      switched += tune.switched ? 1 : 0;
      evaluations += tune.evaluations;
      memo_hits += tune.memo_hits;
    }
  }
  sys.pool->AttachProfiler(nullptr);
  report.Check(mismatches == 0,
               std::to_string(mismatches) +
                   " decomposed-tick documents differ from TickOnce's");
  // The median pair, reported rather than enforced: one pair of ticks can
  // differ by ~15% from host noise alone, which is not a program fault.
  const double stage_ratio = Median(pair_ratio);
  std::printf("reconciliation: median warm stage sum / TickOnce wall %.4f "
              "over %zu pairs (%s)\n",
              stage_ratio, pair_ratio.size(),
              std::fabs(stage_ratio - 1.0) <= 0.05 ? "within 5%"
                                                   : "OUTSIDE 5%");

  const uint64_t ssa_fits =
      HistogramCount(sys.registry, "ipool_ssa_fit_seconds") - ssa_fits_before;
  const uint64_t warm_hits =
      CounterValue(sys.registry, "ipool_ssa_warm_start_hits_total") -
      warm_hits_before;
  double refit_compute = 0.0;
  for (const auto& [model, samples] : refit_ms) refit_compute += Sum(samples);
  std::printf("paired ticks: %zu (1 cold), refit share of per-pool compute "
              "%.3f\n",
              ticks, refit_compute / std::max(1e-12, refit_compute + Sum(predict_ms) +
                                                  Sum(optimize_ms)));

  auto ratio_of = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  report.Add("store.snapshot_ms", Median(snapshot_ms), "ms");
  report.Add("store.put_batch_ms", Median(put_batch_ms), "ms");
  report.Add("store.payload_builds_per_put",
             ratio_of(static_cast<double>(builds), static_cast<double>(puts)),
             "ratio");
  report.Add("tick.resolve_ms", Median(resolve_ms), "ms");
  report.Add("tick.compute_ms", Median(compute_ms), "ms");
  report.Add("tick.tune_ms", Median(tune_ms), "ms");
  report.Add("tick.stage_sum_over_wall", stage_ratio, "ratio");
  report.Add("forecast.refit_ssaplus_ms.p50", Median(refit_ms["SSA+"]), "ms");
  report.Add("forecast.refit_ssaplus_ms.p99", Quantile(refit_ms["SSA+"], 0.99),
             "ms");
  report.Add("forecast.refit_ssa_ms.p50", Median(refit_ms["SSA"]), "ms");
  report.Add("forecast.refit_baseline_ms.p50", Median(refit_ms["Baseline"]),
             "ms");
  report.Add("forecast.predict_ms.p50", Median(predict_ms), "ms");
  report.Add("ssa.warm_hit_ratio",
             ratio_of(static_cast<double>(warm_hits),
                      static_cast<double>(ssa_fits)),
             "ratio");
  report.Add("solve.optimize_ms.p50", Median(optimize_ms), "ms");
  report.Add("serialize.doc_us.p50", Median(serialize_us), "us");
  report.Add("exec.queue_over_run", ratio_of(queue_s, run_s), "ratio");
  report.Add("exec.busy_frac", ratio_of(run_s, busy_capacity_s), "ratio");
  report.Add("tune.pool_ms.p50", Median(tune_pool_ms), "ms");
  report.Add("tune.pool_ms.p99", Quantile(tune_pool_ms, 0.99), "ms");
  report.Add("tune.evals_per_pool",
             ratio_of(static_cast<double>(evaluations),
                      static_cast<double>(tunes)),
             "count");
  report.Add("tune.memo_hit_ratio",
             ratio_of(static_cast<double>(memo_hits),
                      static_cast<double>(memo_hits + evaluations)),
             "ratio");
  report.Add("tune.switch_ratio",
             ratio_of(static_cast<double>(switched),
                      static_cast<double>(tunes)),
             "ratio");
}

int Run(const Workload& w, uint64_t seed, double seconds, bool traced) {
  Report report;

  auto count_tick = [&](const TickSample& s) {
    ++report.tick_attempted;
    if (s.status != ipool::live::TickStatus::kOk) {
      ++report.tick_failed;
      report.Check(false, std::string("tick returned ") +
                              ipool::live::TickStatusName(s.status));
    }
  };

  // Setup and the first (cold) tick, several times: the medians are
  // setup_s and cold_tick_s. The last system is kept. Every set-up gets the
  // same inputs, so every plane must publish the same bytes, tuning
  // documents (the tuner's winners) included. With the tuner, a warm tick
  // follows on the same slid history: re-tunes of the half that slid start
  // SSA-warm, those of the other half hit the memo.
  std::vector<double> setup_s, cold_s;
  std::unique_ptr<System> sys;
  std::vector<PublishedDoc> first_docs;
  int differing_setups = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sys.reset();
    const double t = SteadyNow();
    sys = Setup(w, seed);
    setup_s.push_back(SteadyNow() - t);
    const TickSample cold = Tick(*sys, nullptr);
    count_tick(cold);
    cold_s.push_back(cold.wall_s);
    std::vector<PublishedDoc> docs = LiveDocuments(*sys);
    if (w.tuner) {
      SlideForTick(w, *sys, 0);
      count_tick(Tick(*sys, nullptr));
      for (PublishedDoc& doc : LiveDocuments(*sys)) {
        docs.push_back(std::move(doc));
      }
    }
    if (i == 0) {
      first_docs = std::move(docs);
    } else if (docs.size() != first_docs.size() ||
               !std::equal(docs.begin(), docs.end(), first_docs.begin(),
                           [](const PublishedDoc& a, const PublishedDoc& b) {
                             return a.key == b.key && a.bytes == b.bytes;
                           })) {
      ++differing_setups;
    }
  }
  report.Check(differing_setups == 0,
               std::to_string(differing_setups) +
                   " set-ups with the same seed published different documents");
  // Parse the catalog up front (outside setup_s) so the generator does not
  // stall parsing each document the first time it is served.
  for (const auto& [key, doc] : sys->catalog) {
    sys->parsed[PayloadHash(doc)] = ipool::ParseRecommendation(doc).ok();
  }
  ipool::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const KeyPicker picker(sys->read_keys.size(), w.zipf_s, seed + 17);
  PhaseStats layers;  ///< every traced phase, for the per-layer split
  std::vector<double> warm_wall, warm_cpu;
  PhaseStats ingest, read;
  // Server-side dispatch-queue waits gained during traced phases.
  const std::vector<ipool::obs::LabelSet> methods = {
      {{"method", "GetRecommendation"}}, {{"method", "PublishTelemetry"}}};
  const std::vector<double> queue_bounds =
      ReadHistogram(sys->registry, "ipool_net_dispatch_queue_seconds", methods)
          .bounds;
  std::vector<uint64_t> queue_gained(queue_bounds.size() + 1, 0);
  auto queue_counts = [&] {
    return ReadHistogram(sys->registry, "ipool_net_dispatch_queue_seconds",
                         methods)
        .counts;
  };
  auto gain = [&](const std::vector<uint64_t>& before,
                  const std::vector<uint64_t>& after) {
    for (size_t i = 0; i < after.size(); ++i) {
      queue_gained[i] += after[i] - before[i];
    }
  };

  // ingest-tick: each pool's next bins as time-ordered single-point
  // publishes, beside GETs of the pools' live documents, while the plane
  // ticks on a fixed schedule.
  if (w.concurrent) {
    const double duration = kIngestShare * seconds;
    std::vector<Request> requests;
    size_t rr = 0;
    for (double t : PoissonTimes(rng, kIngestPublishRate, duration)) {
      const size_t p = rr++ % sys->pools.size();
      Pool& pool = sys->pools[p];
      // Past the end of the generated day there is nothing to publish.
      if (pool.next_bin >= pool.demand.size()) continue;
      requests.push_back(
          PublishRequest(t, pool, static_cast<uint32_t>(p + 1)));
    }
    for (double t : PoissonTimes(rng, kIngestGetRate, duration)) {
      const size_t p = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(sys->pools.size() - 1)));
      const size_t key = w.catalog_docs + p * (w.tuner ? 2 : 1);
      requests.push_back(GetRequest(t, *sys, static_cast<uint32_t>(key)));
    }
    std::stable_sort(requests.begin(), requests.end(),
                     [](const Request& a, const Request& b) {
                       return a.due < b.due;
                     });
    const std::vector<uint64_t> queue_before = queue_counts();
    ingest = RunPhase(*sys, "ingest", requests, 0.1 * duration, traced,
                      [&](pthread_t generator) {
      const double start = SteadyNow();
      for (size_t k = 1;; ++k) {
        const double due = start + kTickPeriodSeconds * static_cast<double>(k);
        if (due + 0.5 * kTickPeriodSeconds > start + duration) break;
        while (SteadyNow() < due) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const TickSample s = Tick(*sys, &generator);
        count_tick(s);
        warm_wall.push_back(s.wall_s);
        warm_cpu.push_back(s.cpu_s);
      }
    });
    if (traced) gain(queue_before, queue_counts());
    report.phases.push_back(ingest.counts);
    Merge(layers, ingest);
  }

  // Read: GET-only at a fixed rate with the plane idle, in chunks. On the
  // quiesced workloads a chunk follows each warm tick, so reads and ticks
  // are both sampled across the whole run, not in one stretch of a shared
  // host's load. A traced run precedes each traced chunk with an untraced
  // one; their GET p50s give the trace overhead.
  //
  // A burst of GETs all due at once follows each chunk and gives one figure
  // of server CPU per GET; their median is serve_cpu_us_per_req. A burst
  // keeps the server's threads busy. At the fixed rate they sleep between
  // requests, and each wake-up's CPU is shared by the requests that arrived
  // meanwhile, so a contended host batches more and reads cheaper: 16-23 us
  // per GET across ten seeds.
  uint64_t read_calls = 0;
  PhaseStats plain, bursts;
  read.counts.name = "read";
  plain.counts.name = "read-untraced";
  bursts.counts.name = "burst";
  std::vector<double> burst_cpu_us;
  const size_t chunks = w.concurrent ? kConcurrentReadChunks : w.warm_ticks;
  const double chunk_seconds = w.read_share * seconds / static_cast<double>(chunks);
  auto read_chunk = [&](bool traced_chunk) {
    std::vector<Request> requests;
    for (double t : PoissonTimes(rng, kReadRate, chunk_seconds)) {
      requests.push_back(GetRequest(t, *sys, picker.Pick(rng)));
    }
    const uint64_t calls_before = ComputeCalls(sys->registry);
    const std::vector<uint64_t> queue_before = queue_counts();
    const PhaseStats stats = RunPhase(*sys, "read", requests,
                                      0.1 * chunk_seconds, traced_chunk,
                                      [](pthread_t) {});
    read_calls += ComputeCalls(sys->registry) - calls_before;
    if (traced_chunk) gain(queue_before, queue_counts());
    Merge(traced && !traced_chunk ? plain : read, stats);
  };
  auto burst = [&] {
    std::vector<Request> requests;
    for (size_t i = 0; i < kBurstRequests; ++i) {
      requests.push_back(GetRequest(0.0, *sys, picker.Pick(rng)));
    }
    const uint64_t calls_before = ComputeCalls(sys->registry);
    // Every request is due at 0: none is timed.
    const PhaseStats stats =
        RunPhase(*sys, "burst", requests, 1.0, false, [](pthread_t) {});
    read_calls += ComputeCalls(sys->registry) - calls_before;
    burst_cpu_us.push_back(
        (stats.process_cpu_s - stats.gen_cpu_s) /
        static_cast<double>(std::max<size_t>(1, stats.completed)) * 1e6);
    Merge(bursts, stats);
  };
  for (size_t t = 1; t <= chunks; ++t) {
    if (!w.concurrent) {
      SlideForTick(w, *sys, t);
      const TickSample s = Tick(*sys, nullptr);
      count_tick(s);
      warm_wall.push_back(s.wall_s);
      warm_cpu.push_back(s.cpu_s);
    }
    if (traced) read_chunk(false);
    read_chunk(traced);
    burst();
  }
  report.phases.push_back(read.counts);
  if (traced) report.phases.push_back(plain.counts);
  report.phases.push_back(bursts.counts);
  Merge(layers, read);

  const uint64_t calls_before_ladder = ComputeCalls(sys->registry);
  const LadderResult ladder = Ladder(*sys, rng, picker, report);
  read_calls += ComputeCalls(sys->registry) - calls_before_ladder;
  report.Check(read_calls == 0,
               std::to_string(read_calls) +
                   " forecast/solve/tune calls during the read phases");

  if (traced) PairedTicks(*sys, w, report);

  const Quality quality = Replay(*sys, seed);
  report.Check(quality.documents > 0, "no recommendation to replay");

  // Requests that returned wrong bytes are correctness failures.
  size_t bad = 0;
  for (const PhaseCounts& c : report.phases) bad += c.bad_documents;
  report.Check(bad == 0, std::to_string(bad) +
                             " GET responses did not parse or match a stored "
                             "document");

  // Serving figures come from untraced requests where the run has them:
  // the untraced read chunks of a traced run.
  const PhaseStats& reads = traced ? plain : read;
  const PhaseStats& gets = w.concurrent ? ingest : reads;
  const double get_p50_ms = QuietQuantile(gets.get_ms, 0.5);
  const double get_p99_ms = QuietQuantile(gets.get_ms, 0.99);
  const double publish_p99_ms = QuietQuantile(ingest.publish_ms, 0.99);
  const double serve_cpu_us = Median(burst_cpu_us);
  if (!traced) {
    report.Add("serve_cpu_us_per_req", serve_cpu_us, "us");
    report.Add("tick_p50_s", Median(warm_wall), "s");
    report.Add("tick_cpu_s", Median(warm_cpu), "s");
    report.Add("cold_tick_s", Median(cold_s), "s");
    report.Add("hit_rate", quality.hit_rate, "ratio");
    report.Add("idle_cluster_h", quality.idle_cluster_h, "h");
    report.Add("setup_s", Median(setup_s), "s");
  } else {
    // Request latency and capacity depend on how much of the shared host
    // the run gets; they are reported here without a bound.
    report.Add("get_p50_ms", get_p50_ms, "ms");
    report.Add("get_p99_ms", get_p99_ms, "ms");
    report.Add("publish_p99_ms", publish_p99_ms, "ms");
    report.Add("max_get_rps", ladder.max_rps, "1/s");
    report.Add("avg_wait_s", quality.avg_wait_s, "s");
    const std::vector<double>& inbound = layers.inbound_us;
    report.Add("net.inbound_us.p50", Median(inbound), "us");
    report.Add("net.inbound_us.p99", Quantile(inbound, 0.99), "us");
    report.Add("router.get_us.p50", Median(layers.router_get_us), "us");
    report.Add("router.get_us.p99", Quantile(layers.router_get_us, 0.99), "us");
    report.Add("router.publish_us.p50", Median(layers.router_publish_us), "us");
    report.Add("router.publish_us.p99",
               Quantile(layers.router_publish_us, 0.99), "us");
    report.Add("net.outbound_us.p50", Median(layers.outbound_us), "us");
    report.Add("net.outbound_us.p99", Quantile(layers.outbound_us, 0.99), "us");
    report.Add("net.dispatch_queue_us.p50",
               BucketQuantile(queue_bounds, queue_gained, 0.5) * 1e6, "us");
    report.Add("net.dispatch_queue_us.p99",
               BucketQuantile(queue_bounds, queue_gained, 0.99) * 1e6, "us");
    size_t shed = 0, protocol_errors = 0;
    for (const PhaseCounts& c : report.phases) {
      shed += c.shed;
      protocol_errors += c.protocol_errors;
    }
    report.Add("net.shed", static_cast<double>(shed), "count");
    report.Add("net.protocol_errors", static_cast<double>(protocol_errors),
               "count");
    report.Add("gen.late_ms.p99", WindowedQuantile(layers.late_ms, 0.99), "ms");
    const double untraced_get_p50 = Median(plain.get_ms);
    const double traced_p50 = Median(read.get_ms);
    report.Add("trace.overhead_pct",
               untraced_get_p50 > 0.0
                   ? 100.0 * (traced_p50 - untraced_get_p50) / untraced_get_p50
                   : 0.0,
               "%");
  }

  // Human-readable record, then the JSON line.
  std::printf("workload %s seed %llu seconds %.1f trace %d build %s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
              traced ? 1 : 0, PERFBENCH_BUILD_TYPE);
  std::printf("nproc %ld hw_threads %u server_loop_threads 1 "
              "handler_threads %zu generator_threads 1 connections %zu "
              "window %zu shards %zu pools %zu read_keys %zu\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(), kHandlerThreads,
              kConnections, kWindow, sys->documents->shard_count(),
              sys->pools.size(), sys->read_keys.size());
  size_t attempted = report.tick_attempted, failed = report.tick_failed;
  for (const PhaseCounts& c : report.phases) {
    std::printf("phase %-14s attempted %7zu ok %7zu failed %zu shed %zu "
                "protocol_errors %zu bad_documents %zu\n",
                c.name.c_str(), c.attempted, c.ok, c.failed, c.shed,
                c.protocol_errors, c.bad_documents);
    attempted += c.attempted;
    failed += c.failed + c.shed + c.protocol_errors;
  }
  std::printf("ticks attempted %zu failed %zu; samples: get %zu publish %zu "
              "warm ticks %zu cold ticks %zu\n",
              report.tick_attempted, report.tick_failed, gets.get_ms.size(),
              ingest.publish_ms.size(), warm_wall.size(), cold_s.size());
  std::printf("warm ticks (wall s, cpu s):");
  for (size_t i = 0; i < warm_wall.size(); ++i) {
    std::printf(" %.4f/%.4f", warm_wall[i], warm_cpu[i]);
  }
  std::printf("\n");
  std::printf("serving: get_p50_ms %.6f get_p99_ms %.6f publish_p99_ms %.6f "
              "max_get_rps %.1f serve_cpu_us_per_req %.4f\n",
              get_p50_ms, get_p99_ms, publish_p99_ms, ladder.max_rps,
              serve_cpu_us);
  std::printf("replayed documents %zu: avg_wait_s %.6f hit_rate %.6f "
              "idle_cluster_h %.6f\n",
              quality.documents, quality.avg_wait_s, quality.hit_rate,
              quality.idle_cluster_h);
  if (w.tuner) {
    // The set-ups above check within the run that the tuner's winners
    // repeat; the digest lets runs in separate processes be compared too.
    std::string winners;
    for (const Pool& pool : sys->pools) {
      if (auto doc = sys->documents->GetPayload("tuning." + pool.name)) {
        winners += *doc;
      }
    }
    std::printf("tuning winners digest %016llx\n",
                static_cast<unsigned long long>(PayloadHash(winners)));
  }
  for (const LadderStep& s : ladder.steps) {
    std::printf("ladder %.0f/s p50 %.3f ms p99 %.3f ms generator late p99 "
                "%.3f ms\n",
                s.rate, s.p50_ms, s.p99_ms, s.late_p99_ms);
  }
  for (const std::string& failure : report.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(m.value) ? m.value : 1e9);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const perfbench::Workload w = perfbench::MakeWorkload(workload, seed);
  if (w.name.empty() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload read-zipf|ingest-tick|fleet-tune "
                 "--seed N --seconds S --trace 0|1\n"
                 "(ingest-tick publishes stop where a pool's generated day "
                 "ends, past --seconds 60)\n");
    return 2;
  }
  return perfbench::Run(w, seed, seconds, trace == 1);
}

// A live tick replayed from outside through the public calls
// LiveControlPlane::TickOnce makes, one stage at a time, so each layer can
// be timed without instrumenting the library:
//
//   1. ShardedTelemetryStore::SnapshotBinned for every pool     (service)
//   2. tuning-document resolve + RecommendationEngine::Create    (live)
//   3. CreateForecaster -> Refit -> Forecast                      (forecast)
//      SaaOptimizer::Optimize                                    (solver)
//   4. SerializeRecommendation                                   (service)
//   5. ShardedDocumentStore::PutBatch                            (service)
//   6. FleetTuner::TunePool + SerializeTuning + PutBatch          (autotune)
//
// It keeps its own warm forecaster state, tuner and document store, so fed
// the same telemetry as a plane built with the same engine and config it
// must publish byte-identical documents; the benchmark checks that.
#ifndef PERFBENCH_DECOMPOSED_TICK_H_
#define PERFBENCH_DECOMPOSED_TICK_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autotune/fleet_tuner.h"
#include "core/recommendation_engine.h"
#include "live/live_control_plane.h"
#include "service/sharded_document_store.h"
#include "service/sharded_telemetry_store.h"

namespace perfbench {

/// Wall seconds of one pool's calls in the compute stage.
struct PoolCalls {
  std::string model;  ///< forecaster name ("SSA+", "SSA", "Baseline", ...)
  double refit_s = 0.0;
  double predict_s = 0.0;
  double optimize_s = 0.0;
};

struct DecomposedTickResult {
  bool ok = true;
  std::string error;
  double snapshot_s = 0.0;
  double resolve_s = 0.0;
  double compute_s = 0.0;    ///< wall of the per-pool fan-out
  double serialize_s = 0.0;  ///< all documents of the tick
  double put_batch_s = 0.0;
  double tune_s = 0.0;  ///< tune stage including its PutBatch
  std::vector<PoolCalls> pools;
  std::vector<double> serialize_doc_s;
  size_t puts = 0;
  uint64_t payload_builds = 0;  ///< new payloads materialized by the puts
  std::vector<double> tune_pool_s;
  std::vector<ipool::autotune::PoolTuneResult> tunes;
  /// Every document published this tick: key and bytes.
  std::vector<std::pair<std::string, std::string>> documents;

  double StageSum() const {
    return snapshot_s + resolve_s + compute_s + serialize_s + put_batch_s +
           tune_s;
  }
};

class DecomposedTick {
 public:
  /// `engine`, `telemetry` and `config` mirror what the compared plane was
  /// created with. Only the plain 2-step pipeline is supported.
  static ipool::Result<std::unique_ptr<DecomposedTick>> Create(
      const ipool::RecommendationEngine* engine,
      ipool::ShardedTelemetryStore* telemetry,
      const ipool::live::LiveControlPlaneConfig& config);

  /// One tick at clock value `wall` (the plane's clock reading for the
  /// compared TickOnce).
  DecomposedTickResult Run(double wall);

 private:
  struct PoolEngine {
    int64_t doc_version = -1;
    ipool::autotune::TuningCandidate active;
    std::unique_ptr<ipool::RecommendationEngine> engine;
  };

  DecomposedTick(const ipool::RecommendationEngine* engine,
                 ipool::ShardedTelemetryStore* telemetry,
                 const ipool::live::LiveControlPlaneConfig& config)
      : engine_(engine), telemetry_(telemetry), config_(config) {}

  const ipool::RecommendationEngine* Resolve(const std::string& pool);

  const ipool::RecommendationEngine* engine_;
  ipool::ShardedTelemetryStore* telemetry_;
  ipool::live::LiveControlPlaneConfig config_;
  ipool::ShardedDocumentStore documents_;
  std::map<std::string, ipool::ForecastWarmState> warm_;
  std::unique_ptr<ipool::autotune::FleetTuner> tuner_;
  std::map<std::string, PoolEngine> pool_engines_;
  std::map<std::string, double> last_tuned_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECOMPOSED_TICK_H_

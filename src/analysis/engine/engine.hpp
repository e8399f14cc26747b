// Single-pass, multi-consumer analysis engine.
//
// Legacy analysis tooling scanned the trace once per analysis — eight
// decodes of the same bytes for the standard table set.  The engine
// decodes each batch exactly once and hands it to every registered
// AnalysisPass.  There are two scan paths:
//
//   serial:  run(reader), and runFile() on text, index-less or torn v2,
//            recover-mode input, or single-threaded unfiltered v2.  The
//            calling thread decodes with TraceReader::nextBatch and
//            calls every pass's observe(batch, 0) in stream order;
//            passes then finalize one after another.
//   extent:  runFile() on indexed v2 input with decodeThreads > 1 or a
//            non-trivial predicate (extent_scan.cpp).  Decode threads
//            (inline on the calling thread when decodeThreads <= 1)
//            claim whole extents from the footer index, prune them by
//            zone map, and run the mergeable passes on their own shard;
//            the calling thread feeds the sequential passes every batch
//            in stream order through a reorder queue.  Passes finalize
//            concurrently across the decode-thread count, and mergeable
//            passes fold their shards with exact (integer/min-max/union)
//            merges.
//
// Determinism: batch numbering on the extent path comes from the
// footer's cumulative record counts, interner writes land in extent
// order, and every merge is exact — so reports are byte-identical to the
// serial path at any thread count (pinned in tests/engine_test and
// tests/query_test).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/engine/pass.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "trace/tracefile.hpp"

namespace nfstrace {

class AnalysisEngine {
 public:
  struct Config {
    /// Records per batch.
    std::size_t batchRecords = TraceBatch::kDefaultCapacity;
    /// Alert when the interners grow past this many ids combined
    /// (engine.intern_high_water) — a runaway namespace or a corrupt
    /// trace interning garbage.
    std::size_t internHighWater = 1u << 20;
    /// Alert (engine.merge_skew) when the busiest mergeable shard saw
    /// more than this factor times the records of the laziest: the
    /// extent claims of the decode threads went pathological.
    double mergeSkewFactor = 8.0;
    /// Decode threads for the extent-parallel scan runFile() takes on
    /// indexed v2 input; 0 or 1 decodes inline.  The decode threads are
    /// also the observers: mergeable passes run on them, sequential
    /// passes on the in-order consumer.
    std::size_t decodeThreads = 1;
    /// Pushdown filter.  Non-trivial predicates filter record-by-record
    /// on every path, and additionally prune whole extents via the v2
    /// footer zone maps on runFile()'s extent path.
    ScanPredicate predicate;
  };

  struct Stats {
    std::uint64_t batches = 0;
    std::uint64_t records = 0;
    std::uint64_t resyncCuts = 0;  // batches cut at a recovery resync
    std::size_t internedNames = 0;
    std::size_t internedHandles = 0;
    std::uint64_t mergeSkewAlerts = 0;
    std::uint64_t internHighWaterAlerts = 0;
    /// Extent path only: footer entries seen / skipped by zone maps.
    std::uint64_t extentsTotal = 0;
    std::uint64_t extentsPruned = 0;
    /// Records decoded but rejected by the record-level predicate.
    std::uint64_t recordsFiltered = 0;
  };

  AnalysisEngine();
  explicit AnalysisEngine(const Config& config);

  /// Register a pass (not owned; must outlive run()).
  void addPass(AnalysisPass* pass);
  void addPasses(const std::vector<AnalysisPass*>& passes);

  /// Bind self-monitoring: batch/record counters, intern-table gauges,
  /// per-pass observe-ns histograms, and the two alert counters.  Call
  /// after the passes are registered.
  void attachMetrics(obs::Registry& registry);

  /// Bind a flight recorder: decode/pass-observe spans, pool- and
  /// reorder-wait stall episodes, and recovery-cut instants land on
  /// "engine.reader" / "engine.decode<w>" tracks.
  void attachFlight(obs::FlightRecorder& flight);

  /// Drive every pass over the reader's stream in one serial scan
  /// (prepare -> observe* -> finalize).  Reusable: each call re-prepares
  /// the passes.
  const Stats& run(TraceReader& reader);

  /// Scan a trace file, picking the fastest applicable path: indexed v2
  /// input with decodeThreads > 1 or a non-trivial predicate goes
  /// through the extent-parallel scanner (zone-map pruning + per-extent
  /// decode fan-out); everything else — text, index-less or torn v2,
  /// recover mode — falls back to the serial reader scan.  Reports
  /// are byte-identical across paths and thread counts.
  const Stats& runFile(const std::string& path, bool recover = false);

  const Stats& stats() const { return stats_; }

 private:
  void runSerial(TraceReader& reader);
  /// The extent scheduler (src/analysis/engine/extent_scan.cpp).  The
  /// caller owns the global interners so they outlive the scan into
  /// finalize (passes hold pointers into them).
  void runExtentParallel(const std::string& path,
                         const std::vector<tracev2::ChainedExtent>& extents,
                         StringInterner& names, StringInterner& handles);
  /// Drop records failing config_.predicate, compacting the batch in
  /// place; returns how many were dropped.
  std::size_t applyPredicate(TraceBatch& batch) const;
  void finalizeAll(std::size_t parallelism);
  void noteScanDone(const std::vector<std::uint64_t>& shardRecords,
                    std::size_t internedNames, std::size_t internedHandles);

  Config config_;
  std::vector<AnalysisPass*> passes_;
  Stats stats_;
  obs::CounterHandle batchesC_;
  obs::CounterHandle recordsC_;
  obs::CounterHandle resyncC_;
  obs::CounterHandle mergeSkewC_;
  obs::CounterHandle internHighC_;
  obs::GaugeHandle internNamesG_;
  obs::GaugeHandle internHandlesG_;
  std::vector<obs::Histogram*> passHist_;  // parallel to passes_
  obs::FlightRecorder* flight_ = nullptr;
  obs::ThreadLog* readerFlog_ = nullptr;
};

}  // namespace nfstrace

#include "analysis/engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "obs/timer.hpp"

namespace nfstrace {

AnalysisEngine::AnalysisEngine() : AnalysisEngine(Config()) {}

AnalysisEngine::AnalysisEngine(const Config& config) : config_(config) {}

void AnalysisEngine::addPass(AnalysisPass* pass) {
  passes_.push_back(pass);
  passHist_.push_back(nullptr);
}

void AnalysisEngine::addPasses(const std::vector<AnalysisPass*>& passes) {
  for (AnalysisPass* p : passes) addPass(p);
}

void AnalysisEngine::attachMetrics(obs::Registry& registry) {
  batchesC_ = registry.counterHandle("engine.batches", 0);
  recordsC_ = registry.counterHandle("engine.records", 0);
  resyncC_ = registry.counterHandle("engine.resync_cuts", 0);
  mergeSkewC_ = registry.counterHandle("engine.merge_skew", 0);
  internHighC_ = registry.counterHandle("engine.intern_high_water", 0);
  internNamesG_ = registry.gaugeHandle("engine.intern_names");
  internHandlesG_ = registry.gaugeHandle("engine.intern_handles");
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    std::string name = "engine.pass.";
    name += passes_[i]->name();
    name += ".observe_ns";
    passHist_[i] = &registry.histogram(name);
  }
}

void AnalysisEngine::attachFlight(obs::FlightRecorder& flight) {
  flight_ = &flight;
  readerFlog_ = flight.attachThread("engine.reader");
}

const AnalysisEngine::Stats& AnalysisEngine::run(TraceReader& reader) {
  stats_ = {};
  for (AnalysisPass* p : passes_) p->prepare(1);
  runSerial(reader);
  {
    obs::FlightSpan span(readerFlog_, obs::Stage::Finalize,
                         static_cast<std::uint32_t>(passes_.size()));
    finalizeAll(1);
  }
  return stats_;
}

const AnalysisEngine::Stats& AnalysisEngine::runFile(const std::string& path,
                                                     bool recover) {
  // The extent path needs a complete, CRC-valid chained index (its
  // extent hops trust the footer) and strict-mode semantics; anything
  // it cannot serve falls back to the serial reader scan, which
  // produces the byte-identical report.
  if (!recover &&
      (config_.decodeThreads > 1 || !config_.predicate.trivial()) &&
      detectTraceFormat(path) == TraceWriter::Format::V2) {
    if (auto chained = tracev2::loadChainedIndex(path)) {
      stats_ = {};
      std::size_t shards = std::max<std::size_t>(config_.decodeThreads, 1);
      for (AnalysisPass* p : passes_) p->prepare(shards);
      // Scan-lifetime interners, owned here so pass finalize (which
      // resolves interned ids) runs against live tables.
      StringInterner names, handles;
      runExtentParallel(path, *chained, names, handles);
      {
        obs::FlightSpan span(readerFlog_, obs::Stage::Finalize,
                             static_cast<std::uint32_t>(passes_.size()));
        finalizeAll(shards);
      }
      return stats_;
    }
  }
  TraceReader reader(path, recover);
  return run(reader);
}

std::size_t AnalysisEngine::applyPredicate(TraceBatch& batch) const {
  const ScanPredicate& pred = config_.predicate;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < batch.n; ++i) {
    if (!pred.matches(batch.records[i])) continue;
    if (kept != i) {
      // swap, not copy: both slots stay capacity-reusable for refills.
      std::swap(batch.records[kept], batch.records[i]);
      batch.fhId[kept] = batch.fhId[i];
      batch.fh2Id[kept] = batch.fh2Id[i];
      batch.resFhId[kept] = batch.resFhId[i];
      batch.nameId[kept] = batch.nameId[i];
      batch.name2Id[kept] = batch.name2Id[i];
    }
    ++kept;
  }
  std::size_t dropped = batch.n - kept;
  batch.n = kept;
  return dropped;
}

void AnalysisEngine::runSerial(TraceReader& reader) {
  TraceBatch batch;
  const bool havePred = !config_.predicate.trivial();
  std::vector<std::uint64_t> shardRecords(1, 0);
  for (;;) {
    std::uint64_t decodeStart = readerFlog_ ? readerFlog_->nowNs() : 0;
    if (!reader.nextBatch(batch, config_.batchRecords)) break;
    if (readerFlog_) {
      readerFlog_->complete(obs::Stage::ReaderDecode, decodeStart,
                            static_cast<std::uint32_t>(batch.n));
    }
    if (batch.endedAtResync) {
      ++stats_.resyncCuts;
      resyncC_.inc();
      if (readerFlog_) {
        readerFlog_->instant(obs::Stage::RecoveryCut, stats_.batches);
      }
    }
    if (havePred) stats_.recordsFiltered += applyPredicate(batch);
    if (batch.n == 0) continue;  // fully filtered
    ++stats_.batches;
    stats_.records += batch.n;
    shardRecords[0] += batch.n;
    batchesC_.inc();
    recordsC_.inc(batch.n);
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      obs::TimerSpan span(passHist_[i]
                              ? obs::HistogramHandle(*passHist_[i], 0)
                              : obs::HistogramHandle());
      obs::FlightSpan fspan(readerFlog_, obs::Stage::PassObserve,
                            static_cast<std::uint32_t>(i));
      passes_[i]->observe(batch, 0);
    }
  }
  noteScanDone(shardRecords, reader.nameInterner().size(),
               reader.handleInterner().size());
}

void AnalysisEngine::noteScanDone(
    const std::vector<std::uint64_t>& shardRecords, std::size_t internedNames,
    std::size_t internedHandles) {
  stats_.internedNames = internedNames;
  stats_.internedHandles = internedHandles;
  internNamesG_.set(static_cast<double>(stats_.internedNames));
  internHandlesG_.set(static_cast<double>(stats_.internedHandles));
  if (stats_.internedNames + stats_.internedHandles >
      config_.internHighWater) {
    ++stats_.internHighWaterAlerts;
    internHighC_.inc();
  }
  if (shardRecords.size() > 1) {
    auto [mn, mx] = std::minmax_element(shardRecords.begin(),
                                        shardRecords.end());
    double low = static_cast<double>(std::max<std::uint64_t>(*mn, 1));
    if (static_cast<double>(*mx) > config_.mergeSkewFactor * low) {
      ++stats_.mergeSkewAlerts;
      mergeSkewC_.inc();
    }
  }
}

void AnalysisEngine::finalizeAll(std::size_t parallelism) {
  std::size_t workers = std::max<std::size_t>(parallelism, 1);
  if (workers <= 1 || passes_.size() <= 1) {
    for (AnalysisPass* p : passes_) p->finalize();
    return;
  }
  // Passes are independent after the scan; finalize them concurrently
  // (work-stealing over an atomic index).
  std::atomic<std::size_t> next{0};
  auto drain = [this, &next] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= passes_.size()) break;
      passes_[i]->finalize();
    }
  };
  std::size_t n = std::min(workers, passes_.size());
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) threads.emplace_back(drain);
  drain();
  for (auto& t : threads) t.join();
}

}  // namespace nfstrace

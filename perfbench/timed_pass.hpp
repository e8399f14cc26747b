// A forwarding AnalysisPass decorator that times the pass it wraps.
//
// The benchmark's traced runs register these in place of the standard
// passes.  Every virtual the engine consults before or during a scan —
// name(), mergeable(), opMask() — is forwarded unchanged, so a traced run
// takes exactly the scan path, extent pruning and observe-skipping an
// untraced run takes; only observe() and finalize() gain a clock read on
// either side.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "analysis/engine/pass.hpp"

namespace nfstrace::perfbench {

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class TimedPass final : public AnalysisPass {
 public:
  explicit TimedPass(AnalysisPass& inner) : inner_(inner) {}
  TimedPass(const TimedPass&) = delete;
  TimedPass& operator=(const TimedPass&) = delete;

  std::string_view name() const override { return inner_.name(); }
  bool mergeable() const override { return inner_.mergeable(); }
  std::uint32_t opMask() const override { return inner_.opMask(); }

  void prepare(std::size_t shards) override {
    observeNs_.store(0, std::memory_order_relaxed);
    observeCalls_.store(0, std::memory_order_relaxed);
    observedRecords_.store(0, std::memory_order_relaxed);
    finalizeStartNs_ = finalizeEndNs_ = 0;
    inner_.prepare(shards);
  }

  // Mergeable passes are observed from several decode threads at once,
  // hence the atomics; one add per batch keeps contention negligible.
  void observe(const TraceBatch& batch, std::size_t shard) override {
    std::uint64_t t0 = nowNs();
    inner_.observe(batch, shard);
    observeNs_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
    observeCalls_.fetch_add(1, std::memory_order_relaxed);
    observedRecords_.fetch_add(batch.size(), std::memory_order_relaxed);
  }

  // The engine may finalize passes on parallel threads, but each pass
  // exactly once, so these fields have a single writer; the engine joins
  // its threads before runFile() returns, which publishes them.
  void finalize() override {
    finalizeStartNs_ = nowNs();
    inner_.finalize();
    finalizeEndNs_ = nowNs();
  }

  std::uint64_t observeNs() const {
    return observeNs_.load(std::memory_order_relaxed);
  }
  std::uint64_t observeCalls() const {
    return observeCalls_.load(std::memory_order_relaxed);
  }
  std::uint64_t observedRecords() const {
    return observedRecords_.load(std::memory_order_relaxed);
  }
  std::uint64_t finalizeStartNs() const { return finalizeStartNs_; }
  std::uint64_t finalizeNs() const { return finalizeEndNs_ - finalizeStartNs_; }

 private:
  AnalysisPass& inner_;
  std::atomic<std::uint64_t> observeNs_{0};
  std::atomic<std::uint64_t> observeCalls_{0};
  std::atomic<std::uint64_t> observedRecords_{0};
  std::uint64_t finalizeStartNs_ = 0;
  std::uint64_t finalizeEndNs_ = 0;
};

}  // namespace nfstrace::perfbench

// Extent-parallel scan: the v2 decode stage, parallelized across the
// footer index.
//
// The serial engine path funnels every byte through one reader thread;
// BENCH_format pins a raw v2 extent scan near 12M rec/s while the
// 8-pass engine sits at ~300k — the decode is the serialized stage.
// Here the footer index turns the file into a bag of independently
// decodable extents:
//
//   scheduler:  zone-map pruning (ScanPredicate vs per-extent
//               ts/uid/fileId ranges + op bitmask) selects surviving
//               extents; batch sequence numbers are precomputed from
//               the footer's cumulative record counts, so numbering is
//               identical at any thread count
//   worker w:   claims extents off an atomic cursor, freads + CRC-checks
//               the payload on its own FILE* (I/O overlaps), then takes
//               a *dictionary ticket* — global interner writes happen
//               in extent order, so interned ids match a serial scan
//               exactly — and decodes batches into pooled slots.
//               Mergeable passes observe right here (shard w; their
//               folds are exact, so the nondeterministic partition
//               cannot show in results).
//   consumer:   the calling thread pops batches from a bounded reorder
//               queue in sequence order and drives the sequential
//               passes — the same every-batch-in-stream-order contract
//               the serial path gives them.
//
// Strict-mode only: any damaged extent throws (like a strict serial
// scan); recover-mode scans take the serial path in runFile().
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine/engine.hpp"
#include "analysis/engine/extent_scan.hpp"
#include "obs/timer.hpp"
#include "util/crc32.hpp"

namespace nfstrace {
namespace {

/// In-flight batches per decode thread: the reorder pool holds
/// decodeThreads * kQueueBatches + 1 slots.
constexpr std::size_t kQueueBatches = 8;

/// One surviving extent, with its precomputed global batch numbering.
struct ExtentTask {
  tracev2::ExtentInfo info;
  int schema = 4;
  std::uint64_t firstSeq = 0;   // global seq of this extent's first batch
  std::uint32_t batches = 0;    // ceil(records / batchRecords)
};

/// A pooled batch plus the op bitmask of the extent it came from (lets
/// the consumer skip sequential passes whose opMask() cannot overlap).
struct ScanSlot {
  TraceBatch batch;
  std::uint32_t opMask = 0;
};

struct FileCloser {
  std::FILE* f;
  ~FileCloser() {
    if (f) std::fclose(f);
  }
};

void ensureCapacity(TraceBatch& batch, std::size_t n) {
  if (batch.records.size() < n) {
    batch.records.resize(n);
    batch.fhId.resize(n);
    batch.fh2Id.resize(n);
    batch.resFhId.resize(n);
    batch.nameId.resize(n);
    batch.name2Id.resize(n);
  }
}

/// fread + validate one extent (header, payload, CRC) into the
/// decoder's buffer.  Throws on any mismatch — on this path the footer
/// already promised the extent, so damage is corruption, not a tail.
tracev2::ExtentHeader readExtent(std::FILE* f, const ExtentTask& task,
                                 tracev2::ExtentDecoder& dec) {
  unsigned char hdrBuf[tracev2::kExtentHeaderBytes];
  tracev2::ExtentHeader hdr;
  if (std::fseek(f, static_cast<long>(task.info.offset), SEEK_SET) != 0 ||
      std::fread(hdrBuf, 1, sizeof(hdrBuf), f) != sizeof(hdrBuf) ||
      !tracev2::parseExtentHeader(hdrBuf, hdr) ||
      hdr.records != task.info.records) {
    throw std::runtime_error("extent scan: bad extent header");
  }
  auto& buf = dec.buffer();
  if (buf.size() < hdr.payloadBytes) buf.resize(hdr.payloadBytes);
  if (std::fread(buf.data(), 1, hdr.payloadBytes, f) != hdr.payloadBytes) {
    throw std::runtime_error("extent scan: truncated extent payload");
  }
  if (crc32(buf.data(), hdr.payloadBytes) != hdr.payloadCrc) {
    throw std::runtime_error("extent scan: extent payload CRC mismatch");
  }
  return hdr;
}

}  // namespace

void AnalysisEngine::runExtentParallel(
    const std::string& path,
    const std::vector<tracev2::ChainedExtent>& extents, StringInterner& names,
    StringInterner& handles) {
  const std::size_t decodeWorkers =
      std::max<std::size_t>(config_.decodeThreads, 1);
  const std::size_t batchRecords =
      std::max<std::size_t>(config_.batchRecords, 1);
  const ScanPredicate& pred = config_.predicate;
  const bool havePred = !pred.trivial();

  // Zone-map pruning + batch numbering.  Sequence numbers derive from
  // the footer's cumulative record counts over *surviving* extents, so
  // they are a pure function of (index, predicate) — identical at any
  // thread count, which is what keeps sequential passes byte-identical.
  std::vector<ExtentTask> tasks;
  tasks.reserve(extents.size());
  std::uint64_t seq = 0;
  stats_.extentsTotal = extents.size();
  for (const tracev2::ChainedExtent& ce : extents) {
    if (ce.info.records == 0) continue;
    if (havePred && !pred.mayMatch(ce.info)) {
      ++stats_.extentsPruned;
      continue;
    }
    ExtentTask t;
    t.info = ce.info;
    t.schema = ce.schema;
    t.firstSeq = seq;
    t.batches = static_cast<std::uint32_t>(
        (ce.info.records + batchRecords - 1) / batchRecords);
    seq += t.batches;
    tasks.push_back(t);
  }
  const std::uint64_t totalBatches = seq;

  std::vector<std::uint64_t> shardRecords(decodeWorkers, 0);

  if (decodeWorkers <= 1 || tasks.size() <= 1) {
    // Inline path: prune + filter without thread or reorder machinery
    // (also what a single surviving extent degenerates to).
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) throw std::runtime_error("extent scan: cannot open " + path);
    FileCloser closer{f};
    tracev2::ExtentDecoder dec;
    int curSchema = -1;
    TraceBatch batch;
    ensureCapacity(batch, batchRecords);
    batch.nameInterner = &names;
    batch.handleInterner = &handles;
    for (const ExtentTask& task : tasks) {
      std::uint64_t decodeStart = readerFlog_ ? readerFlog_->nowNs() : 0;
      tracev2::ExtentHeader hdr = readExtent(f, task, dec);
      if (task.schema != curSchema) {
        dec.setSchema(task.schema);
        curSchema = task.schema;
      }
      dec.load(hdr, names, handles);
      if (readerFlog_) {
        readerFlog_->complete(obs::Stage::ExtentDecode, decodeStart,
                              task.info.records);
      }
      for (std::uint32_t b = 0; b < task.batches; ++b) {
        tracev2::ExtentDecoder::BatchOut out;
        out.recs = batch.records.data();
        out.fh = batch.fhId.data();
        out.fh2 = batch.fh2Id.data();
        out.resFh = batch.resFhId.data();
        out.name = batch.nameId.data();
        out.name2 = batch.name2Id.data();
        batch.n = dec.take(out, batchRecords);
        batch.seq = task.firstSeq + b;
        batch.endedAtResync = false;
        if (havePred) stats_.recordsFiltered += applyPredicate(batch);
        if (batch.n == 0) continue;
        ++stats_.batches;
        stats_.records += batch.n;
        shardRecords[0] += batch.n;
        batchesC_.inc();
        recordsC_.inc(batch.n);
        for (std::size_t i = 0; i < passes_.size(); ++i) {
          AnalysisPass* pass = passes_[i];
          if ((pass->opMask() & task.info.opMask) == 0) continue;
          obs::TimerSpan span(passHist_[i]
                                  ? obs::HistogramHandle(*passHist_[i], 0)
                                  : obs::HistogramHandle());
          obs::FlightSpan fspan(readerFlog_, obs::Stage::PassObserve,
                                static_cast<std::uint32_t>(i));
          pass->observe(batch, 0);
        }
      }
    }
    noteScanDone(shardRecords, names.size(), handles.size());
    return;
  }

  // Threaded path.
  const std::size_t poolSize = decodeWorkers * kQueueBatches + 1;
  std::vector<std::unique_ptr<ScanSlot>> pool;
  pool.reserve(poolSize);
  std::vector<ScanSlot*> freeSlots;
  freeSlots.reserve(poolSize);
  for (std::size_t i = 0; i < poolSize; ++i) {
    pool.push_back(std::make_unique<ScanSlot>());
    ensureCapacity(pool.back()->batch, batchRecords);
    pool.back()->batch.nameInterner = &names;
    pool.back()->batch.handleInterner = &handles;
    freeSlots.push_back(pool.back().get());
  }
  BatchReorderQueue<ScanSlot*> queue(std::move(freeSlots));

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::uint64_t> dictTurn{0};
  std::atomic<bool> abortFlag{false};
  std::mutex errMu;
  std::exception_ptr error;
  std::vector<std::uint64_t> workerFiltered(decodeWorkers, 0);

  std::vector<obs::ThreadLog*> workerFlogs(decodeWorkers, nullptr);
  if (flight_) {
    for (std::size_t w = 0; w < decodeWorkers; ++w) {
      workerFlogs[w] =
          flight_->attachThread("engine.decode" + std::to_string(w));
    }
  }

  auto workerFn = [&](std::size_t w) {
    obs::ThreadLog* flog = workerFlogs[w];
    std::FILE* f = std::fopen(path.c_str(), "rb");
    FileCloser closer{f};
    try {
      if (!f) throw std::runtime_error("extent scan: cannot open " + path);
      tracev2::ExtentDecoder dec;
      int curSchema = -1;
      for (;;) {
        if (abortFlag.load(std::memory_order_acquire)) return;
        std::size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
        if (t >= tasks.size()) return;
        const ExtentTask& task = tasks[t];
        if (flog) {
          flog->instant(obs::Stage::ExtentClaim, t, task.info.records);
        }
        // I/O + validation before the dictionary ticket, so extent
        // reads and CRC checks overlap across workers.
        std::uint64_t decodeStart = flog ? flog->nowNs() : 0;
        tracev2::ExtentHeader hdr = readExtent(f, task, dec);
        // Dictionary ticket: interner writes must land in extent order
        // for global ids to match a serial scan byte for byte.
        if (dictTurn.load(std::memory_order_acquire) != t) {
          std::uint64_t waitStart = flog ? flog->nowNs() : 0;
          while (dictTurn.load(std::memory_order_acquire) != t) {
            if (abortFlag.load(std::memory_order_acquire)) return;
            std::this_thread::yield();
          }
          if (flog) {
            flog->complete(obs::Stage::ExtentDictWait, waitStart,
                           static_cast<std::uint32_t>(t));
          }
        }
        if (task.schema != curSchema) {
          dec.setSchema(task.schema);
          curSchema = task.schema;
        }
        dec.load(hdr, names, handles);
        dictTurn.store(t + 1, std::memory_order_release);
        if (flog) {
          flog->complete(obs::Stage::ExtentDecode, decodeStart,
                         task.info.records);
        }
        for (std::uint32_t b = 0; b < task.batches; ++b) {
          std::uint64_t bseq = task.firstSeq + b;
          bool waited = false;
          std::uint64_t poolStart = flog ? flog->nowNs() : 0;
          ScanSlot* slot = queue.acquire(bseq, &waited);
          if (!slot) return;  // aborted
          if (waited && flog) {
            flog->complete(obs::Stage::BatchPoolWait, poolStart);
          }
          std::uint64_t takeStart = flog ? flog->nowNs() : 0;
          TraceBatch& batch = slot->batch;
          tracev2::ExtentDecoder::BatchOut out;
          out.recs = batch.records.data();
          out.fh = batch.fhId.data();
          out.fh2 = batch.fh2Id.data();
          out.resFh = batch.resFhId.data();
          out.name = batch.nameId.data();
          out.name2 = batch.name2Id.data();
          batch.n = dec.take(out, batchRecords);
          batch.seq = bseq;
          batch.endedAtResync = false;
          slot->opMask = task.info.opMask;
          if (flog) {
            flog->complete(obs::Stage::ExtentDecode, takeStart,
                           static_cast<std::uint32_t>(batch.n));
          }
          if (havePred) workerFiltered[w] += applyPredicate(batch);
          if (batch.n != 0) {
            shardRecords[w] += batch.n;
            for (std::size_t i = 0; i < passes_.size(); ++i) {
              AnalysisPass* pass = passes_[i];
              if (!pass->mergeable()) continue;
              if ((pass->opMask() & task.info.opMask) == 0) continue;
              obs::TimerSpan span(
                  passHist_[i] ? obs::HistogramHandle(*passHist_[i], w)
                               : obs::HistogramHandle());
              obs::FlightSpan fspan(flog, obs::Stage::PassObserve,
                                    static_cast<std::uint32_t>(i));
              pass->observe(batch, w);
            }
          }
          // Published even when empty: the consumer pops every admitted
          // seq, filtered or not, to keep the reorder window sliding.
          queue.publish(bseq, slot);
        }
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(errMu);
        if (!error) error = std::current_exception();
      }
      abortFlag.store(true, std::memory_order_release);
      queue.abort();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(decodeWorkers);
  for (std::size_t w = 0; w < decodeWorkers; ++w) {
    threads.emplace_back(workerFn, w);
  }

  // In-order consumer: sequential passes see exactly the serial batch
  // stream (same numbering, same order, same contents).
  std::uint64_t consumed = 0;
  while (consumed < totalBatches) {
    bool waited = false;
    std::uint64_t waitStart = readerFlog_ ? readerFlog_->nowNs() : 0;
    ScanSlot* slot = nullptr;
    if (!queue.popNext(slot, &waited)) break;  // aborted
    if (waited && readerFlog_) {
      readerFlog_->complete(obs::Stage::ReorderWait, waitStart,
                            static_cast<std::uint32_t>(consumed));
    }
    TraceBatch& batch = slot->batch;
    if (batch.n != 0) {
      ++stats_.batches;
      stats_.records += batch.n;
      batchesC_.inc();
      recordsC_.inc(batch.n);
      for (std::size_t i = 0; i < passes_.size(); ++i) {
        AnalysisPass* pass = passes_[i];
        if (pass->mergeable()) continue;
        if ((pass->opMask() & slot->opMask) == 0) continue;
        obs::TimerSpan span(passHist_[i]
                                ? obs::HistogramHandle(*passHist_[i], 0)
                                : obs::HistogramHandle());
        obs::FlightSpan fspan(readerFlog_, obs::Stage::PassObserve,
                              static_cast<std::uint32_t>(i));
        pass->observe(batch, 0);
      }
    }
    queue.recycle(slot);
    ++consumed;
  }
  for (auto& th : threads) th.join();
  if (error) std::rethrow_exception(error);
  for (std::uint64_t n : workerFiltered) stats_.recordsFiltered += n;
  noteScanDone(shardRecords, names.size(), handles.size());
}

}  // namespace nfstrace

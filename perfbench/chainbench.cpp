// chainbench: the end-to-end benchmark program behind perfbench/run.py.
//
//   chainbench setup    --workload W --seed N --dir D [--oracle]
//   chainbench measure  --workload W --seed N --dir D --seconds S
//                       --stages capture,analyze,query [--traced]
//   chainbench selftest --dir D
//
// `setup` simulates the workload and writes its capture (and, for
// eecs-query, the v2 trace) into D, timing it.  `measure`
// runs the chain over those inputs through the layers' public APIs —
// PcapReader -> Sniffer or ParallelPipeline -> TraceWriter (v2) ->
// AnalysisEngine::runFile -> renderReportText, or runFile with a
// ScanPredicate for queries — and prints one JSON object on stdout.
// Untraced runs time whole stages and then check every output against
// an oracle; traced runs (--traced) also time each call into each layer
// and register every pass behind a TimedPass decorator.  `selftest`
// checks the decorator and the traced/untraced identity on miniature
// workloads.  The obs registry and flight recorder are never attached.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "analysis/engine/report.hpp"
#include "pcap/pcap.hpp"
#include "pipeline/pipeline.hpp"
#include "sniffer/sniffer.hpp"
#include "timed_pass.hpp"
#include "trace/tracefile.hpp"
#include "trace/v2.hpp"
#include "workload/campus.hpp"
#include "workload/eecs.hpp"
#include "workload/sim.hpp"
#include "workloads.hpp"

namespace nfstrace::perfbench {
namespace {

constexpr const char* kReportLabel = "trace.v2";
constexpr int kMinIterations = 3;
/// Share of the measured time capture -> report iterations get next to
/// the query passes: on the capture workloads, and on eecs-query, whose
/// measured phase is mostly queries.
constexpr double kChainShare = 0.5;
constexpr double kReportShareOfQueries = 0.2;

// ------------------------------------------------------------- utilities

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double millis(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// CPUs this process may run on (what `nproc` prints).
unsigned nprocAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t hashBytes(const char* p, std::size_t n,
                        std::uint64_t h = 0xcbf29ce484222325ULL) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ static_cast<unsigned char>(p[i])) * 0x100000001b3ULL;
  return h;
}

std::uint64_t hashFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot open " + path);
  std::vector<char> buf(1 << 20);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t got;
  while ((got = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    h = hashBytes(buf.data(), got, h);
  }
  std::fclose(f);
  return h;
}

bool filesEqual(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  return std::equal(std::istreambuf_iterator<char>(fa),
                    std::istreambuf_iterator<char>(),
                    std::istreambuf_iterator<char>(fb),
                    std::istreambuf_iterator<char>());
}

/// Minimal JSON object writer: numbers keep all their digits.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return raw(k, buf);
  }
  Json& count(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  Json& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& raw(const std::string& k, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + k + "\":" + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------- context

struct Ctx {
  Workload w;
  std::uint64_t seed = 1;
  std::string dir;
  unsigned nproc = 1;

  std::string pcap() const { return dir + "/capture.pcap"; }
  std::string trace() const { return dir + "/" + kReportLabel; }
  std::string oracleTrace() const { return dir + "/oracle.v2"; }
  /// Producer + shards + merge = nproc threads.
  int shards() const { return std::max(1, static_cast<int>(nproc) - 2); }
  /// Decode threads + the calling in-order consumer = nproc threads.
  std::size_t decodeThreads() const {
    return w.parallelDecode ? std::max(1u, nproc - 1) : 1;
  }
};

// --------------------------------------------------------------- set-up

/// Writes the first `limit` frames it is offered (0 = all) to a pcap, and
/// notes how many frames the mirror port in front of it (if any) had
/// dropped by then.
class PcapSink : public FrameSink {
 public:
  PcapSink(const std::string& path, std::uint64_t limit)
      : writer_(path), limit_(limit) {}
  void setMirror(const MirrorPort* mirror) { mirror_ = mirror; }
  void onFrame(const CapturedPacket& pkt) override {
    if (limit_ != 0 && writer_.packetsWritten() >= limit_) return;
    writer_.write(pkt);
    if (mirror_) dropped_ = mirror_->dropped();
  }
  std::uint64_t frames() const { return writer_.packetsWritten(); }
  /// Share of the frames up to the last one kept that the mirror dropped.
  double dropRate() const {
    const auto seen = static_cast<double>(frames() + dropped_);
    return seen > 0 ? static_cast<double>(dropped_) / seen : 0.0;
  }

 private:
  PcapWriter writer_;
  std::uint64_t limit_;
  const MirrorPort* mirror_ = nullptr;
  std::uint64_t dropped_ = 0;
};

struct SimOut {
  std::uint64_t frames = 0;
  double mirrorDropRate = 0;  // over the frames the pcap covers
};

/// Simulate the workload and write what the tap (or mirror port) sees.
SimOut simulateToPcap(const Ctx& c) {
  const Workload& w = c.w;
  SimEnvironment::Config cfg;
  if (w.eecs) {
    cfg.fsConfig.fsid = 1;
    cfg.clientHosts = 8;
    cfg.nfsVers = 3;
    // "Most of the EECS clients use NFSv3, but many use NFSv2."
    cfg.hostVersions = {3, 3, 3, 3, 3, 3, 2, 2};
    cfg.useTcp = false;
    cfg.mtu = kStandardMtu;
  } else {
    cfg.fsConfig.fsid = 2;
    cfg.fsConfig.defaultQuotaBytes = 50ULL << 20;
    cfg.clientHosts = 3;
    cfg.nfsVers = 3;
    cfg.useTcp = true;
    cfg.mtu = kJumboMtu;
    cfg.clientConfig.dataCacheCapacityBytes = 48ULL << 20;
  }
  cfg.seed = c.seed;

  SimOut out;
  PcapSink sink(c.pcap(), w.maxFrames);
  std::unique_ptr<MirrorPort> mirror;
  SimEnvironment env(cfg, [](const TraceRecord&) {});
  if (w.mirrorBitsPerSec > 0) {
    MirrorPort::Config mc;
    mc.bandwidthBitsPerSec = w.mirrorBitsPerSec;
    mc.bufferBytes = w.mirrorBufferBytes;
    mirror = std::make_unique<MirrorPort>(mc, sink);
    sink.setMirror(mirror.get());
    env.addTapSink(mirror.get());
  } else {
    env.addTapSink(&sink);
  }
  if (w.eecs) {
    EecsConfig ec;
    ec.users = w.users;
    ec.seed = c.seed + 1;
    EecsWorkload gen(ec, env);
    gen.setup(w.start());
    gen.run(w.start(), w.end());
  } else {
    CampusConfig cc;
    cc.users = w.users;
    cc.mailboxMedianBytes = w.mailboxMedianBytes;
    cc.seed = c.seed + 1;
    CampusWorkload gen(cc, env);
    gen.setup(w.start());
    gen.run(w.start(), w.end());
  }
  env.finishCapture();
  out.frames = sink.frames();
  out.mirrorDropRate = sink.dropRate();
  return out;
}

// -------------------------------------------------------------- capture

struct CaptureOut {
  std::uint64_t wallNs = 0;
  std::uint64_t frames = 0;
  std::uint64_t records = 0;
  Sniffer::Stats sniff;
  std::uint64_t shed = 0;
  std::uint64_t merged = 0;
  std::uint64_t ioRetries = 0;
  // Traced runs only: time inside each layer's calls.
  std::uint64_t pcapNs = 0;      // PcapReader construction + next()
  std::uint64_t feedNs = 0;      // Sniffer/ParallelPipeline::onFrame
  std::uint64_t flushNs = 0;     // Sniffer::flush (serial)
  std::uint64_t finishNs = 0;    // ParallelPipeline::finish
  std::uint64_t pipeLifeNs = 0;  // pipeline construction .. finish()
  std::uint64_t writeNs = 0;     // TraceWriter::write (record callback)
  std::uint64_t finalizeNs = 0;  // TraceWriter::finalize
};

/// pcap -> sniffer (serial) or pipeline (sharded) -> sealed v2 trace.
/// With kTraced every layer call is bracketed by clock reads; successive
/// spans share their boundary reads, so the loop costs two per frame.
template <bool kTraced>
CaptureOut captureOnce(const Ctx& c, bool pipeline, const std::string& out) {
  CaptureOut o;
  const std::uint64_t start = nowNs();
  TraceWriter::Options wopts;
  wopts.format = TraceWriter::Format::V2;
  TraceWriter writer(out, wopts);
  auto onRecord = [&](const TraceRecord& rec) {
    if constexpr (kTraced) {
      std::uint64_t t = nowNs();
      writer.write(rec);
      o.writeNs += nowNs() - t;
    } else {
      writer.write(rec);
    }
    ++o.records;
  };
  auto pump = [&](FrameSink& sink) {
    std::uint64_t t0 = kTraced ? nowNs() : 0;
    PcapReader reader(c.pcap());
    for (;;) {
      std::optional<CapturedPacket> pkt = reader.next();
      std::uint64_t t1 = kTraced ? nowNs() : 0;
      if constexpr (kTraced) o.pcapNs += t1 - t0;
      if (!pkt) break;
      ++o.frames;
      sink.onFrame(*pkt);
      if constexpr (kTraced) {
        t0 = nowNs();
        o.feedNs += t0 - t1;
      }
    }
  };
  if (pipeline) {
    std::uint64_t life = kTraced ? nowNs() : 0;
    ParallelPipeline::Config pc;
    pc.shards = c.shards();
    ParallelPipeline pipe(pc, onRecord);
    pump(pipe);
    std::uint64_t t = kTraced ? nowNs() : 0;
    pipe.finish();
    if constexpr (kTraced) {
      std::uint64_t end = nowNs();
      o.finishNs = end - t;
      o.pipeLifeNs = end - life;
    }
    o.sniff = pipe.stats();
    o.shed = pipe.framesShed();
    o.merged = pipe.recordsMerged();
  } else {
    Sniffer sniffer(Sniffer::Config{}, onRecord);
    pump(sniffer);
    std::uint64_t t = kTraced ? nowNs() : 0;
    sniffer.flush();
    if constexpr (kTraced) o.flushNs = nowNs() - t;
    o.sniff = sniffer.stats();
  }
  std::uint64_t t = kTraced ? nowNs() : 0;
  writer.finalize();
  if constexpr (kTraced) o.finalizeNs = nowNs() - t;
  o.ioRetries = writer.ioStats().retries;
  o.wallNs = nowNs() - start;
  return o;
}

/// The oracle for a pipeline capture: one serial Sniffer over the same
/// pcap into its own v2 trace.
void serialCapture(const Ctx& c, const std::string& out) {
  captureOnce<false>(c, /*pipeline=*/false, out);
}

// -------------------------------------------------------------- analysis

constexpr std::size_t kPasses = 8;

struct AnalyzeOut {
  std::uint64_t wallNs = 0;
  std::string report;
  AnalysisEngine::Stats stats;
  // Traced runs only.
  std::uint64_t deferred = 0;  // records blocklife holds until finalize
  std::uint64_t runFileNs = 0;
  std::uint64_t scanNs = 0;      // runFile start .. first finalize
  std::uint64_t finalizeNs = 0;  // first finalize .. runFile return
  std::uint64_t renderNs = 0;
  std::vector<std::string> passNames;
  std::vector<std::uint64_t> observeNs, passFinalizeNs;
};

/// v2 trace -> AnalysisEngine::runFile over the eight standard passes ->
/// rendered text report.  A non-trivial predicate makes it a query.
template <bool kTraced>
AnalyzeOut analyzeOnce(const std::string& trace, std::size_t decodeThreads,
                       const ScanPredicate& pred) {
  AnalyzeOut o;
  const std::uint64_t start = nowNs();
  StandardAnalyses a;
  AnalysisEngine::Config ec;
  ec.decodeThreads = decodeThreads;
  ec.predicate = pred;
  AnalysisEngine engine(ec);
  std::vector<std::unique_ptr<TimedPass>> timed;
  if constexpr (kTraced) {
    for (AnalysisPass* p : a.all()) {
      timed.push_back(std::make_unique<TimedPass>(*p));
      engine.addPass(timed.back().get());
    }
  } else {
    engine.addPasses(a.all());
  }
  const std::uint64_t t1 = kTraced ? nowNs() : 0;
  o.stats = engine.runFile(trace);
  const std::uint64_t t2 = kTraced ? nowNs() : 0;
  o.report = renderReportText(kReportLabel, a);
  const std::uint64_t end = nowNs();
  o.wallNs = end - start;
  if constexpr (kTraced) {
    o.runFileNs = t2 - t1;
    o.renderNs = end - t2;
    std::uint64_t firstFinalize = t2;
    for (const auto& tp : timed) {
      o.passNames.emplace_back(tp->name());
      o.observeNs.push_back(tp->observeNs());
      o.passFinalizeNs.push_back(tp->finalizeNs());
      firstFinalize = std::min(firstFinalize, tp->finalizeStartNs());
      // BlockLifePass defers every record it observes (it needs the
      // trace's span before it can replay them), and frees them in
      // finalize, so its observed count is its deferred peak.
      if (tp->name() == a.blocklife.name()) o.deferred = tp->observedRecords();
    }
    o.scanNs = firstFinalize - t1;
    o.finalizeNs = t2 - firstFinalize;
  }
  return o;
}

/// The oracle for a report or query: the classic serial reader path
/// (TraceReader + AnalysisEngine::run), which filters record by record
/// and never consults the footer's zone maps.
std::string classicReport(const std::string& trace, const ScanPredicate& pred,
                          AnalysisEngine::Stats* statsOut = nullptr) {
  StandardAnalyses a;
  AnalysisEngine::Config ec;
  ec.predicate = pred;
  AnalysisEngine engine(ec);
  engine.addPasses(a.all());
  TraceReader reader(trace);
  AnalysisEngine::Stats st = engine.run(reader);
  if (statsOut) *statsOut = st;
  return renderReportText(kReportLabel, a);
}

// ------------------------------------------------------------ accounting

/// Operations attempted and failed, and whether every output matched.
struct Books {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void mismatch(const std::string& what) {
    ++failed;
    correct = false;
    if (problems.size() < 8) problems.push_back(what);
  }
  void captured(const CaptureOut& o) {
    attempted += o.frames + o.records;
    failed += o.sniff.framesUndecodable + o.shed;
  }
  void write(Json& j) const {
    j.flag("correct", correct).count("attempted", attempted).count("failed", failed);
    std::string list = "[";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      list += (i ? ",\"" : "\"") + problems[i] + "\"";
    }
    j.raw("problems", list + "]");
  }
};

/// Per-layer sums over the traced iterations of a stage.
struct CaptureLedger {
  int n = 0;
  CaptureOut sum;
  void add(const CaptureOut& o) {
    ++n;
    sum.wallNs += o.wallNs;
    sum.frames += o.frames;
    sum.records += o.records;
    sum.pcapNs += o.pcapNs;
    sum.feedNs += o.feedNs;
    sum.flushNs += o.flushNs;
    sum.finishNs += o.finishNs;
    sum.pipeLifeNs += o.pipeLifeNs;
    sum.writeNs += o.writeNs;
    sum.finalizeNs += o.finalizeNs;
  }
};

struct AnalyzeLedger {
  int n = 0;
  AnalyzeOut sum;
  std::uint64_t decoded = 0;
  void add(const AnalyzeOut& o) {
    if (n++ == 0) {
      sum.passNames = o.passNames;
      sum.observeNs.assign(o.observeNs.size(), 0);
      sum.passFinalizeNs.assign(o.passFinalizeNs.size(), 0);
    }
    sum.wallNs += o.wallNs;
    sum.runFileNs += o.runFileNs;
    sum.scanNs += o.scanNs;
    sum.finalizeNs += o.finalizeNs;
    sum.renderNs += o.renderNs;
    sum.deferred += o.deferred;
    sum.stats.batches += o.stats.batches;
    sum.stats.records += o.stats.records;
    sum.stats.extentsTotal += o.stats.extentsTotal;
    sum.stats.extentsPruned += o.stats.extentsPruned;
    sum.stats.recordsFiltered += o.stats.recordsFiltered;
    decoded += o.stats.records + o.stats.recordsFiltered;
    for (std::size_t i = 0; i < o.observeNs.size(); ++i) {
      sum.observeNs[i] += o.observeNs[i];
      sum.passFinalizeNs[i] += o.passFinalizeNs[i];
    }
  }
};

/// The per-layer metrics only one capture path has: the pipeline's feed,
/// finish and sink share, or the serial sniffer's self time and the
/// reconciliation of its single-threaded ledger.
void writeCapturePathMetrics(Json& m, const CaptureLedger& l, bool pipeline) {
  const CaptureOut& s = l.sum;
  const double frames = static_cast<double>(std::max<std::uint64_t>(s.frames, 1));
  const double records = static_cast<double>(std::max<std::uint64_t>(s.records, 1));
  const double n = std::max(l.n, 1);
  if (pipeline) {
    m.num("pipeline.feed_ns_per_frame", static_cast<double>(s.feedNs) / frames);
    m.num("pipeline.finish_ms", millis(s.finishNs) / n);
    m.num("pipeline.sink_busy_frac",
          static_cast<double>(s.writeNs) /
              static_cast<double>(std::max<std::uint64_t>(s.pipeLifeNs, 1)));
  } else {
    // The sniffer's self time excludes the record callback (trace layer).
    m.num("sniffer.ns_per_record",
          static_cast<double>(s.feedNs + s.flushNs - s.writeNs) / records);
    // Single-threaded, so the layers' self times should tile the wall.
    const std::uint64_t attributed = s.pcapNs + s.feedNs + s.flushNs + s.finalizeNs;
    m.num("ledger.capture_unattributed_frac",
          1.0 - static_cast<double>(attributed) /
                    static_cast<double>(std::max<std::uint64_t>(s.wallNs, 1)));
  }
}

/// Per-layer metrics of the workload's own capture path, plus its ledger:
/// each layer's self time per iteration, in ms, against the stage's wall.
void writeCaptureLedger(Json& m, Json& ledger, const CaptureLedger& l,
                        bool pipeline) {
  const CaptureOut& s = l.sum;
  const double frames = static_cast<double>(std::max<std::uint64_t>(s.frames, 1));
  const double records = static_cast<double>(std::max<std::uint64_t>(s.records, 1));
  const double n = std::max(l.n, 1);
  auto perIter = [&](std::uint64_t ns) { return millis(ns) / n; };
  m.num("pcap.ns_per_frame", static_cast<double>(s.pcapNs) / frames);
  m.num("trace.write_ns_per_record", static_cast<double>(s.writeNs) / records);
  m.num("trace.finalize_ms", perIter(s.finalizeNs));
  writeCapturePathMetrics(m, l, pipeline);
  Json layers;
  layers.num("pcap", perIter(s.pcapNs));
  if (pipeline) {
    layers.num("pipeline.feed", perIter(s.feedNs))
        .num("pipeline.finish", perIter(s.finishNs))
        .num("trace.finalize", perIter(s.finalizeNs))
        .num("trace.write (merge thread, overlaps)", perIter(s.writeNs));
  } else {
    layers.num("sniffer", perIter(s.feedNs + s.flushNs - s.writeNs))
        .num("trace", perIter(s.writeNs + s.finalizeNs));
  }
  ledger.num("wall_ms", perIter(s.wallNs)).flag("serial", !pipeline);
  ledger.raw("layers", layers.text());
}

/// Per-layer metrics of a traced analysis or query stage, per report or
/// query, plus its ledger.
void writeAnalyzeLedger(Json& m, Json& ledger, const AnalyzeLedger& l,
                        bool serial) {
  const AnalyzeOut& s = l.sum;
  const double n = std::max(l.n, 1);
  auto perRun = [&](std::uint64_t ns) { return millis(ns) / n; };
  m.num("engine.scan_ms", perRun(s.scanNs));
  m.num("engine.finalize_ms", perRun(s.finalizeNs));
  m.num("engine.batches", static_cast<double>(s.stats.batches) / n);
  m.num("engine.extents_total", static_cast<double>(s.stats.extentsTotal) / n);
  m.num("engine.extents_pruned", static_cast<double>(s.stats.extentsPruned) / n);
  m.num("engine.prune_frac",
        s.stats.extentsTotal ? static_cast<double>(s.stats.extentsPruned) /
                                   static_cast<double>(s.stats.extentsTotal)
                             : 0.0);
  m.num("engine.records_filtered", static_cast<double>(s.stats.recordsFiltered) / n);
  m.num("engine.filter_waste_frac",
        l.decoded ? static_cast<double>(s.stats.recordsFiltered) /
                        static_cast<double>(l.decoded)
                  : 0.0);
  Json layers;
  std::uint64_t passNs = 0;
  for (std::size_t i = 0; i < s.passNames.size(); ++i) {
    const std::string p = "pass." + s.passNames[i];
    m.num(p + ".observe_ms", perRun(s.observeNs[i]));
    m.num(p + ".finalize_ms", perRun(s.passFinalizeNs[i]));
    layers.num(p + ".observe", perRun(s.observeNs[i]))
        .num(p + ".finalize", perRun(s.passFinalizeNs[i]));
    passNs += s.observeNs[i] + s.passFinalizeNs[i];
  }
  m.num("pass.blocklife.deferred_records", static_cast<double>(s.deferred) / n);
  m.num("report.render_ms", perRun(s.renderNs));
  layers.num("report", perRun(s.renderNs));
  m.num("ledger.analyze_unattributed_frac",
        1.0 - static_cast<double>(s.runFileNs + s.renderNs) /
                  static_cast<double>(std::max<std::uint64_t>(s.wallNs, 1)));
  if (serial) {
    // Engine self time: runFile minus the pass calls it made.  With one
    // thread every pass call runs inside runFile, so this is exact.
    layers.num("engine", perRun(s.runFileNs - passNs));
  } else {
    // Passes run on decode threads alongside the engine: busy times
    // overlap, so only the engine's wall split is given.
    layers.num("engine.scan (wall)", perRun(s.scanNs))
        .num("engine.finalize (wall)", perRun(s.finalizeNs));
  }
  ledger.num("wall_ms", perRun(s.wallNs)).flag("serial", serial);
  ledger.raw("layers", layers.text());
}

void writeSnifferCounts(Json& m, const CaptureOut& o) {
  const Sniffer::Stats& s = o.sniff;
  const double calls = static_cast<double>(s.rpcCalls + s.orphanReplies);
  m.count("pcap.frames", o.frames);
  m.count("sniffer.frames_undecodable", s.framesUndecodable);
  m.count("sniffer.orphan_replies", s.orphanReplies);
  m.count("sniffer.expired_calls", s.expiredCalls);
  m.count("sniffer.flushed_calls", s.flushedCalls);
  // The paper's §4.1.4 estimate: orphans / (calls + orphans).
  m.num("sniffer.loss_estimate",
        calls > 0 ? static_cast<double>(s.orphanReplies) / calls : 0.0);
  m.count("sniffer.pending_peak", s.pendingPeak);
  m.count("sniffer.tcp_flows_peak", s.tcpFlowsPeak);
  m.count("pipeline.frames_shed", o.shed);
  m.count("pipeline.records_merged", o.merged);
  m.count("trace.io_retries", o.ioRetries);
}

/// Where and how the figures were taken.
std::string provenance(const Ctx& c) {
  const Workload& w = c.w;
  Json p;
  p.count("nproc", c.nproc)
      .count("hw_threads", std::thread::hardware_concurrency())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER)
      .count("seed", c.seed)
      .str("population", w.eecs ? "EECS" : "CAMPUS")
      .count("users", static_cast<std::uint64_t>(w.users))
      .num("start_day", w.startDay)
      .num("sim_days", w.simDays)
      .str("transport", w.eecs ? "NFSv3+v2/UDP, MTU 1500" : "NFSv3/TCP, MTU 9000")
      .num("mirror_bits_per_s", w.mirrorBitsPerSec)
      .num("mailbox_median_bytes", w.eecs ? 0 : w.mailboxMedianBytes)
      .count("mirror_buffer_bytes", w.mirrorBufferBytes)
      .str("capture", w.pipeline ? "ParallelPipeline" : "serial Sniffer")
      .count("pipeline_shards", w.pipeline ? static_cast<std::uint64_t>(c.shards()) : 0)
      .count("decode_threads", c.decodeThreads())
      .count("queries", static_cast<std::uint64_t>(w.queries));
  return p.text();
}

// ------------------------------------------------------------- commands

struct Args {
  std::string cmd;
  std::string workload;
  std::uint64_t seed = 1;
  std::string dir;
  double seconds = 10;
  bool oracle = false;
  std::string stages = "capture,analyze,query";
  bool traced = false;
};

/// `setup`: simulate -> (mirror) -> pcap; for eecs-query also build the
/// v2 trace through the pipeline.  run.py runs it several times, each in
/// a fresh process, and checks the digests agree.  With --oracle the
/// pipeline-built trace is also checked against a serial-Sniffer capture.
int cmdSetup(const Ctx& c, bool oracle) {
  Books books;
  Json m;
  const std::uint64_t t0 = nowNs();
  const SimOut sim = simulateToPcap(c);
  CaptureOut cap;
  if (c.w.captureInSetup) {
    const std::uint64_t t1 = nowNs();
    cap = captureOnce<false>(c, c.w.pipeline, c.trace());
    m.num("capture_s", seconds(nowNs() - t1));
    books.captured(cap);
  }
  m.num("setup_s", seconds(nowNs() - t0));
  m.count("frames", sim.frames);
  m.num("mirror_drop_rate", sim.mirrorDropRate);
  m.count("pcap_bytes", std::filesystem::file_size(c.pcap()));
  Json d;
  d.count("pcap", hashFile(c.pcap()));
  if (c.w.captureInSetup) {
    m.count("records", cap.records);
    m.count("trace_bytes", std::filesystem::file_size(c.trace()));
    writeSnifferCounts(m, cap);
    d.count("trace", hashFile(c.trace()));
    if (oracle && c.w.pipeline) {
      serialCapture(c, c.oracleTrace());
      if (!filesEqual(c.trace(), c.oracleTrace())) {
        books.mismatch("pipeline trace differs from the serial-Sniffer trace");
      }
      std::filesystem::remove(c.oracleTrace());
    }
  }
  Json j;
  books.write(j);
  j.raw("provenance", provenance(c));
  j.raw("digests", d.text());
  j.raw("metrics", m.text());
  std::printf("%s\n", j.text().c_str());
  return 0;
}

/// The query sequence for the trace in `c`, over the time span its
/// footer index records.
std::vector<ScanPredicate> queriesFor(const Ctx& c) {
  auto index = tracev2::loadExtentIndex(c.trace());
  if (!index || index->empty()) throw std::runtime_error("trace has no index");
  MicroTime first = index->front().tsMin, last = index->front().tsMax;
  for (const tracev2::ExtentInfo& e : *index) {
    first = std::min(first, e.tsMin);
    last = std::max(last, e.tsMax);
  }
  return makeQueries(c.w, c.seed, first, last);
}

CaptureOut capture(const Ctx& c, bool traced) {
  return traced ? captureOnce<true>(c, c.w.pipeline, c.trace())
                : captureOnce<false>(c, c.w.pipeline, c.trace());
}

AnalyzeOut analyze(const Ctx& c, bool traced, const ScanPredicate& pred) {
  return traced ? analyzeOnce<true>(c.trace(), c.decodeThreads(), pred)
                : analyzeOnce<false>(c.trace(), c.decodeThreads(), pred);
}

bool sameStats(const AnalysisEngine::Stats& a, const AnalysisEngine::Stats& b) {
  return a.records == b.records && a.batches == b.batches &&
         a.extentsTotal == b.extentsTotal &&
         a.extentsPruned == b.extentsPruned &&
         a.recordsFiltered == b.recordsFiltered;
}

double overheadFrac(double traced, double plain) {
  return plain > 0 ? traced / plain - 1.0 : 0.0;
}

/// `measure`: the timed stages, then the oracle checks.  With --traced,
/// untraced and traced iterations alternate, so the per-layer ledger, the
/// tracing overhead and the traced-equals-untraced check all come from
/// one process under the same conditions.
int cmdMeasure(const Ctx& c, const Args& args) {
  // eecs-query's trace comes from set-up; its traced runs still take the
  // capture stage, so that every capture layer is measured on it too.
  const bool doCapture = args.stages.find("capture") != std::string::npos &&
                         (!c.w.captureInSetup || args.traced);
  const bool doAnalyze = args.stages.find("analyze") != std::string::npos;
  const bool doQuery = args.stages.find("query") != std::string::npos;
  if (!doCapture && !std::filesystem::exists(c.trace())) {
    throw std::runtime_error("no trace at " + c.trace());
  }
  const bool paired = args.traced;
  const int modes = paired ? 2 : 1;
  if (!doCapture && !doAnalyze && !doQuery) throw std::runtime_error("no stages");
  const auto budgetNs = static_cast<double>(args.seconds * 1e9);
  const std::uint64_t start = nowNs();
  auto elapsed = [&] { return static_cast<double>(nowNs() - start); };

  Books books;
  // Index 0: untraced samples, 1: traced.
  std::vector<double> captureS[2], analyzeS[2], chainRps;
  CaptureLedger capLedger, crossLedger;
  AnalyzeLedger anLedger, qLedger;
  CaptureOut lastCapture;
  std::uint64_t traceDigest = 0, records = 0;
  std::string report;
  AnalysisEngine::Stats reportStats;

  // One untimed round first, so the page cache holds the inputs and the
  // allocator has grown its arenas before any sample is taken.
  if (doCapture) capture(c, false);
  if (doAnalyze) analyze(c, false, {});
  const std::vector<ScanPredicate> queries =
      doQuery ? queriesFor(c) : std::vector<ScanPredicate>{};
  if (doQuery) analyze(c, false, queries.front());

  // One capture -> report iteration (traced every other one when paired).
  int iteration = 0;
  auto chainIteration = [&] {
    const int i = iteration++;
    const bool traced = paired && i % 2 == 1;
    double chainS = 0;
    if (doCapture) {
      CaptureOut cap = capture(c, traced);
      books.captured(cap);
      captureS[traced].push_back(seconds(cap.wallNs));
      chainS += seconds(cap.wallNs);
      if (traced) capLedger.add(cap);
      std::uint64_t d = hashFile(c.trace());
      if (i == 0) traceDigest = d;
      else if (d != traceDigest) books.mismatch("trace differs between iterations");
      lastCapture = cap;
      records = cap.records;
      if (traced) {
        // The other capture path over the same pcap, traced, so each
        // path's layers are measured on every workload; its trace must
        // equal this one byte for byte.
        CaptureOut cross = captureOnce<true>(c, !c.w.pipeline, c.oracleTrace());
        books.captured(cross);
        crossLedger.add(cross);
        if (!filesEqual(c.trace(), c.oracleTrace())) {
          books.mismatch("serial and pipeline captures differ");
        }
      }
    }
    if (doAnalyze) {
      AnalyzeOut an = analyze(c, traced, {});
      ++books.attempted;
      analyzeS[traced].push_back(seconds(an.wallNs));
      chainS += seconds(an.wallNs);
      if (traced) anLedger.add(an);
      if (i == 0) {
        report = std::move(an.report);
        reportStats = an.stats;
      } else if (an.report != report || !sameStats(an.stats, reportStats)) {
        books.mismatch(traced ? "traced report or engine Stats differ from untraced"
                              : "report differs between iterations");
      }
      records = an.stats.records;
    }
    if (!traced && doCapture && doAnalyze) {
      chainRps.push_back(static_cast<double>(records) / chainS);
    }
  };

  // One closed-loop pass over the query sequence.  Paired runs issue each
  // query untraced and traced, alternating which goes first.  Latency
  // percentiles are taken per pass (200 samples, 10 beyond p95) and
  // reported as their median over passes.
  std::vector<std::string> queryReports(queries.size());
  std::vector<AnalysisEngine::Stats> queryStats(queries.size());
  std::vector<double> passP50[2], passP95[2];
  std::uint64_t querySamples = 0;
  std::size_t pass = 0;
  auto queryPass = [&] {
    const std::size_t p = pass++;
    std::vector<double> ms[2];
    for (std::size_t k = 0; k < queries.size(); ++k) {
      for (int m = 0; m < modes; ++m) {
        const bool traced = paired && (m + k) % 2 == 1;
        AnalyzeOut q = analyze(c, traced, queries[k]);
        ++books.attempted;
        ms[traced].push_back(millis(q.wallNs));
        if (traced) qLedger.add(q);
        if (p == 0 && m == 0) {
          queryReports[k] = std::move(q.report);
          queryStats[k] = q.stats;
        } else if (q.report != queryReports[k] || !sameStats(q.stats, queryStats[k])) {
          books.mismatch("query " + std::to_string(k) +
                         (traced ? ": traced report or engine Stats differ"
                                 : ": report differs between repetitions"));
        }
      }
    }
    for (int t = 0; t < modes; ++t) {
      passP50[t].push_back(percentile(ms[t], 50));
      passP95[t].push_back(percentile(ms[t], 95));
    }
    querySamples += ms[0].size();
  };

  // The stages interleave until the time is up: whichever stands furthest
  // below its share of the time so far runs next, so contention on the
  // host lands on every stage alike and the medians over iterations and
  // passes ride out bursts shorter than half the run.
  const bool doChain = doCapture || doAnalyze;
  const double chainShare = !doQuery   ? 1.0
                            : !doChain ? 0.0
                            : c.w.captureInSetup ? kReportShareOfQueries
                                                 : kChainShare;
  double chainNs = 0, queryNs = 0;
  for (;;) {
    const bool chainOwed = doChain && iteration < kMinIterations * modes;
    const bool queryOwed = doQuery && pass == 0;
    if (!chainOwed && !queryOwed && elapsed() >= budgetNs) break;
    const bool chainNext =
        chainOwed || (!queryOwed && doChain &&
                      chainNs * (1 - chainShare) <= queryNs * chainShare);
    const std::uint64_t t = nowNs();
    if (chainNext) {
      chainIteration();
      chainNs += static_cast<double>(nowNs() - t);
    } else {
      queryPass();
      queryNs += static_cast<double>(nowNs() - t);
    }
  }
  const double rss = peakRssMb();

  // Oracles, outside the timed region.
  if (doCapture && c.w.pipeline) {
    serialCapture(c, c.oracleTrace());
    if (!filesEqual(c.trace(), c.oracleTrace())) {
      books.mismatch("pipeline trace differs from the serial-Sniffer trace");
    }
    std::filesystem::remove(c.oracleTrace());
  }
  if (doAnalyze) {
    AnalysisEngine::Stats st;
    if (classicReport(c.trace(), {}, &st) != report) {
      books.mismatch("report differs from the classic serial reader path");
    }
    if (doCapture && st.records != records) {
      books.mismatch("trace does not read back every captured record");
    }
  }
  if (doQuery) {
    // Independent scans; spread them over the cores.
    std::atomic<std::size_t> next{0};
    std::vector<char> bad(queries.size(), 0);
    auto worker = [&] {
      for (std::size_t k; (k = next.fetch_add(1)) < queries.size();) {
        try {
          bad[k] = classicReport(c.trace(), queries[k]) != queryReports[k];
        } catch (const std::exception&) {
          bad[k] = 1;  // the oracle could not read what the engine did
        }
      }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < c.nproc; ++t) pool.emplace_back(worker);
    worker();
    for (auto& t : pool) t.join();
    for (std::size_t k = 0; k < queries.size(); ++k) {
      if (bad[k]) {
        books.mismatch("query " + std::to_string(k) +
                       " differs from the reader path without pruning");
      }
    }
  }

  Json m;
  m.num("peak_rss_mb", rss);
  if (doCapture || doAnalyze) m.count("records", records);
  if (doCapture) {
    const std::uint64_t traceBytes = std::filesystem::file_size(c.trace());
    m.num("capture_s", median(captureS[0]));
    m.num("capture_rps", static_cast<double>(records) / median(captureS[0]));
    m.count("trace_bytes", traceBytes);
    m.num("trace_bytes_per_record",
          static_cast<double>(traceBytes) / static_cast<double>(std::max<std::uint64_t>(records, 1)));
    m.count("trace.extents", tracev2::loadExtentIndex(c.trace()).value_or(
                                 std::vector<tracev2::ExtentInfo>{}).size());
    writeSnifferCounts(m, lastCapture);
  }
  if (doAnalyze) {
    m.num("analyze_s", median(analyzeS[0]));
    m.num("analyze_rps", static_cast<double>(reportStats.records) / median(analyzeS[0]));
  }
  if (!chainRps.empty()) m.num("chain_rps", median(chainRps));
  if (doQuery) {
    m.num("query_p50_ms", median(passP50[0]));
    m.num("query_p95_ms", median(passP95[0]));
    m.count("query.samples", querySamples);
    m.count("query.passes", passP50[0].size());
  }
  Json ledger;
  if (paired) {
    const bool serialScan = c.decodeThreads() <= 1;
    if (doCapture) {
      writeCaptureLedger(m, ledger, capLedger, c.w.pipeline);
      writeCapturePathMetrics(m, crossLedger, !c.w.pipeline);
      std::filesystem::remove(c.oracleTrace());
      m.num("tracing.capture_overhead_frac",
            overheadFrac(median(captureS[1]), median(captureS[0])));
    }
    if (doAnalyze) {
      m.num("tracing.analyze_overhead_frac",
            overheadFrac(median(analyzeS[1]), median(analyzeS[0])));
    }
    if (doQuery) {
      m.num("tracing.query_overhead_frac",
            overheadFrac(median(passP50[1]), median(passP50[0])));
    }
    // Engine, pass and report layers come from the stage that dominates
    // the workload: the queries on eecs-query, the full report elsewhere.
    if (doQuery && c.w.captureInSetup) {
      writeAnalyzeLedger(m, ledger, qLedger, serialScan);
    } else if (doAnalyze) {
      writeAnalyzeLedger(m, ledger, anLedger, serialScan);
    }
  }

  Json j;
  books.write(j);
  j.raw("metrics", m.text());
  if (paired) j.raw("ledger", ledger.text());
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// ------------------------------------------------------------- selftest

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

/// A pass that records how the engine drives it, to check forwarding.
class ProbePass final : public AnalysisPass {
 public:
  ProbePass(std::string_view name, bool mergeable, std::uint32_t mask)
      : name_(name), mergeable_(mergeable), mask_(mask) {}
  std::string_view name() const override { return name_; }
  bool mergeable() const override { return mergeable_; }
  std::uint32_t opMask() const override { return mask_; }
  void prepare(std::size_t shards) override { shards_ = shards; }
  void observe(const TraceBatch& batch, std::size_t shard) override {
    records_ += batch.size();
    lastShard_ = shard;
  }
  void finalize() override { ++finalized_; }

  std::string_view name_;
  bool mergeable_;
  std::uint32_t mask_;
  std::size_t shards_ = 0, records_ = 0, lastShard_ = 99;
  int finalized_ = 0;
};

int cmdSelftest(const Args& args) {
  // 1. The decorator forwards every virtual, for every standard pass.
  {
    StandardAnalyses a;
    for (AnalysisPass* p : a.all()) {
      TimedPass t(*p);
      expect(t.name() == p->name(), "name forwarded for " + std::string(p->name()));
      expect(t.mergeable() == p->mergeable(), "mergeable forwarded for " + std::string(p->name()));
      expect(t.opMask() == p->opMask(), "opMask forwarded for " + std::string(p->name()));
    }
    ProbePass probe("probe", true, opMaskBit(NfsOp::Read));
    TimedPass t(probe);
    t.prepare(3);
    TraceBatch batch;
    batch.n = 5;
    t.observe(batch, 2);
    t.finalize();
    expect(probe.shards_ == 3 && probe.records_ == 5 && probe.lastShard_ == 2 &&
               probe.finalized_ == 1,
           "prepare/observe/finalize reach the wrapped pass");
    expect(t.observeCalls() == 1, "observe calls counted");
  }
  // 2. Traced and untraced runs take the same paths: identical reports
  //    and engine Stats on every workload's configuration, for the full
  //    report and for a predicate query.
  for (const Workload& full : allWorkloads()) {
    Ctx c;
    c.w = miniature(full);
    c.seed = 11;
    c.dir = args.dir;
    c.nproc = nprocAvailable();
    simulateToPcap(c);
    CaptureOut plain = captureOnce<false>(c, c.w.pipeline, c.trace());
    std::uint64_t plainDigest = hashFile(c.trace());
    CaptureOut traced = captureOnce<true>(c, c.w.pipeline, c.trace());
    expect(plain.records > 0, c.w.name + ": capture produced records");
    expect(plain.records == traced.records && hashFile(c.trace()) == plainDigest,
           c.w.name + ": traced capture writes the same trace");
    std::vector<ScanPredicate> preds{ScanPredicate{}};
    for (const ScanPredicate& q : queriesFor(c)) preds.push_back(q);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      AnalyzeOut u = analyzeOnce<false>(c.trace(), c.decodeThreads(), preds[i]);
      AnalyzeOut t = analyzeOnce<true>(c.trace(), c.decodeThreads(), preds[i]);
      const std::string tag = c.w.name + " predicate " + std::to_string(i);
      expect(u.report == t.report, tag + ": traced report identical");
      expect(u.stats.records == t.stats.records &&
                 u.stats.batches == t.stats.batches &&
                 u.stats.extentsTotal == t.stats.extentsTotal &&
                 u.stats.extentsPruned == t.stats.extentsPruned &&
                 u.stats.recordsFiltered == t.stats.recordsFiltered,
             tag + ": traced engine Stats identical");
      expect(u.report == classicReport(c.trace(), preds[i]),
             tag + ": report matches the classic reader path");
      expect(t.passNames.size() == kPasses, tag + ": eight passes timed");
      expect(t.scanNs <= t.runFileNs, tag + ": every pass finalized inside runFile");
    }
    std::filesystem::remove(c.pcap());
    std::filesystem::remove(c.trace());
  }
  std::printf("{\"selftest\":\"%s\",\"failures\":%d}\n", failures ? "fail" : "pass",
              failures);
  return failures ? 1 : 0;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::runtime_error("usage: chainbench setup|measure|selftest ...");
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--dir") a.dir = val();
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--oracle") a.oracle = true;
    else if (k == "--stages") a.stages = val();
    else if (k == "--traced") a.traced = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.dir.empty()) throw std::runtime_error("--dir is required");
  return a;
}

int run(int argc, char** argv) {
  Args args = parseArgs(argc, argv);
  if (args.cmd == "selftest") return cmdSelftest(args);
  const Workload* w = findWorkload(args.workload);
  if (!w) throw std::runtime_error("unknown workload '" + args.workload + "'");
  Ctx c;
  c.w = *w;
  c.seed = args.seed;
  c.dir = args.dir;
  c.nproc = nprocAvailable();
  if (args.cmd == "setup") return cmdSetup(c, args.oracle);
  if (args.cmd == "measure") {
    return cmdMeasure(c, args);
  }
  throw std::runtime_error("unknown command " + args.cmd);
}

}  // namespace
}  // namespace nfstrace::perfbench

int main(int argc, char** argv) {
  try {
    return nfstrace::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chainbench: %s\n", e.what());
    return 1;
  }
}

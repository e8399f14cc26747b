// Analysis-engine pins: batch decoding equivalence, intern-id stability,
// recovery on batch boundaries, and the determinism guarantee (the
// extent-parallel scan of a v2 re-encode is byte-identical to the serial
// text scan at any decode-thread count).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/blocklife.hpp"
#include "analysis/engine/engine.hpp"
#include "analysis/engine/passes.hpp"
#include "analysis/engine/report.hpp"
#include "analysis/names.hpp"
#include "analysis/pathrec.hpp"
#include "analysis/reorder.hpp"
#include "analysis/runs.hpp"
#include "analysis/summary.hpp"
#include "analysis/users.hpp"
#include "trace/tracefile.hpp"
#include "workload/campus.hpp"
#include "workload/sim.hpp"

namespace nfstrace {
namespace {

/// One shared demo trace per test binary run: a two-hour CAMPUS morning,
/// rich enough to exercise every pass (reads, writes, creates, removes,
/// lock files, renames).
class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<TraceRecord>();
    SimEnvironment::Config cfg;
    cfg.fsConfig.fsid = 2;
    cfg.clientHosts = 3;
    SimEnvironment env(cfg);
    CampusConfig wl;
    wl.users = 8;
    CampusWorkload workload(wl, env);
    MicroTime start = days(1) + hours(9);
    workload.setup(start);
    workload.run(start, start + hours(1));
    env.finishCapture();
    *records_ = env.records();

    // Per-process names: gtest_discover_tests runs each case as its own
    // ctest entry, so concurrent processes would race on a fixed path.
    std::string pid = std::to_string(::getpid());
    textPath_ = new std::string("/tmp/engine_test_" + pid + "_text.trace");
    v2Path_ = new std::string("/tmp/engine_test_" + pid + "_v2.trace");
    {
      TraceWriter w(*textPath_, TraceWriter::Format::Text);
      for (const auto& r : *records_) w.write(r);
    }
    {
      // Re-encode what the text file holds; small extents give the
      // extent scheduler many units to spread across decode threads.
      TraceWriter::Options opts;
      opts.format = TraceWriter::Format::V2;
      opts.v2ExtentRecords = 97;
      TraceWriter w(*v2Path_, opts);
      TraceReader reader(*textPath_);
      TraceRecord rec;
      while (reader.nextInto(rec)) w.write(rec);
    }
  }

  static void TearDownTestSuite() {
    std::remove(textPath_->c_str());
    std::remove(v2Path_->c_str());
    delete records_;
    delete textPath_;
    delete v2Path_;
    records_ = nullptr;
    textPath_ = nullptr;
    v2Path_ = nullptr;
  }

  static std::vector<TraceRecord>* records_;
  static std::string* textPath_;
  static std::string* v2Path_;
};

std::vector<TraceRecord>* EngineTest::records_ = nullptr;
std::string* EngineTest::textPath_ = nullptr;
std::string* EngineTest::v2Path_ = nullptr;

/// The 8-pass report over `path` through runFile: serial for text,
/// recover mode and single-threaded v2; the extent scheduler for v2 at
/// decodeThreads > 1.  The label is constant so reports over different
/// encodings of the same records compare equal.
std::string runEngineReport(
    const std::string& path, std::size_t decodeThreads = 1,
    std::size_t batchRecords = TraceBatch::kDefaultCapacity,
    bool recover = false, AnalysisEngine::Stats* statsOut = nullptr) {
  StandardAnalyses analyses;
  AnalysisEngine::Config cfg;
  cfg.decodeThreads = decodeThreads;
  cfg.batchRecords = batchRecords;
  AnalysisEngine engine(cfg);
  engine.addPasses(analyses.all());
  const auto& st = engine.runFile(path, recover);
  if (statsOut) *statsOut = st;
  return renderReportText("trace", analyses);
}

// -------------------------------------------- batch reader equivalence

void checkBatchMatchesNext(const std::string& path) {
  TraceReader one(path);
  TraceReader batched(path);
  TraceBatch batch;
  std::size_t total = 0;
  while (batched.nextBatch(batch, 57)) {  // odd size: batches straddle
    ASSERT_GT(batch.n, 0u);
    for (std::size_t i = 0; i < batch.n; ++i) {
      TraceRecord expect;
      ASSERT_TRUE(one.nextInto(expect)) << "batch reader produced extras";
      EXPECT_EQ(formatRecord(batch.records[i]), formatRecord(expect));
      // Interned ids decode back to exactly the record's own fields.
      const TraceRecord& r = batch.records[i];
      EXPECT_EQ(batch.nameInterner->view(batch.nameId[i]), r.name);
      EXPECT_EQ(batch.nameInterner->view(batch.name2Id[i]), r.name2);
      std::string_view fhBytes = batch.handleInterner->view(batch.fhId[i]);
      EXPECT_EQ(fhBytes,
                std::string_view(reinterpret_cast<const char*>(r.fh.data.data()),
                                 r.fh.len));
      ++total;
    }
  }
  TraceRecord extra;
  EXPECT_FALSE(one.nextInto(extra)) << "batch reader lost records";
  EXPECT_GT(total, 0u);
}

TEST_F(EngineTest, BatchReaderMatchesNextText) {
  checkBatchMatchesNext(*textPath_);
}

TEST_F(EngineTest, BatchReaderMatchesNextV2) {
  checkBatchMatchesNext(*v2Path_);
}

TEST_F(EngineTest, ReadAllMatchesRecords) {
  auto all = TraceReader::readAll(*textPath_);
  ASSERT_EQ(all.size(), records_->size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(formatRecord(all[i]), formatRecord((*records_)[i]));
  }
}

// ------------------------------------------------- intern-id stability

TEST_F(EngineTest, InternIdsStableAcrossBatches) {
  TraceReader reader(*textPath_);
  TraceBatch batch;
  std::map<std::string, std::uint32_t> nameIds, fhIds;
  while (reader.nextBatch(batch, 43)) {
    for (std::size_t i = 0; i < batch.n; ++i) {
      const TraceRecord& r = batch.records[i];
      auto [it, inserted] = nameIds.try_emplace(r.name, batch.nameId[i]);
      EXPECT_EQ(it->second, batch.nameId[i])
          << "name '" << r.name << "' re-interned under a different id";
      std::string fhKey(reinterpret_cast<const char*>(r.fh.data.data()),
                        r.fh.len);
      auto [fit, finserted] = fhIds.try_emplace(fhKey, batch.fhId[i]);
      EXPECT_EQ(fit->second, batch.fhId[i]);
    }
  }
  // Empty string is always id 0 (the shared sentinel for absent fields).
  EXPECT_EQ(reader.nameInterner().view(0), "");
  EXPECT_EQ(reader.nameInterner().size(),
            nameIds.count("") ? nameIds.size() : nameIds.size() + 1);
}

// ------------------------------------------------------- recovery path

TEST_F(EngineTest, RecoverResyncsLandOnBatchBoundaries) {
  // Corrupt one record line in the middle of the text trace.
  std::string corruptPath =
      "/tmp/engine_test_" + std::to_string(::getpid()) + "_corrupt.trace";
  {
    std::FILE* in = std::fopen(textPath_->c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::string bytes;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) bytes.append(buf, n);
    std::fclose(in);
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      std::size_t nl = bytes.find('\n', pos);
      if (nl == std::string::npos) nl = bytes.size();
      lines.push_back(bytes.substr(pos, nl - pos));
      pos = nl + 1;
    }
    std::size_t mid = lines.size() / 2;
    while (mid < lines.size() && (lines[mid].empty() || lines[mid][0] == '#'))
      ++mid;
    ASSERT_LT(mid, lines.size());
    lines[mid] = "x#!neither comment nor parseable";
    std::FILE* out = std::fopen(corruptPath.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    for (const auto& l : lines) {
      std::fwrite(l.data(), 1, l.size(), out);
      std::fputc('\n', out);
    }
    std::fclose(out);
  }

  TraceReader::RecoverStats rs;
  auto expected = TraceReader::recoverAll(corruptPath, &rs);
  EXPECT_EQ(rs.skipped, 1u);
  EXPECT_EQ(rs.resyncs, 1u);

  // The batch path recovers the identical record sequence, and the batch
  // in flight when the resync happened is cut at the boundary.
  TraceReader reader(corruptPath, /*recover=*/true);
  TraceBatch batch;
  std::vector<std::string> got;
  std::size_t resyncCuts = 0;
  while (reader.nextBatch(batch, 64)) {
    if (batch.endedAtResync) {
      ++resyncCuts;
      EXPECT_LT(batch.n, 64u) << "a cut batch cannot be full";
    }
    for (std::size_t i = 0; i < batch.n; ++i) {
      got.push_back(formatRecord(batch.records[i]));
    }
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], formatRecord(expected[i]));
  }
  EXPECT_EQ(resyncCuts, 1u);

  // The engine over the damaged trace reports exactly what it reports
  // over a clean trace holding just the recovered records.
  std::string cleanPath =
      "/tmp/engine_test_" + std::to_string(::getpid()) + "_recovered.trace";
  {
    TraceWriter w(cleanPath, TraceWriter::Format::Text);
    for (const auto& r : expected) w.write(r);
  }
  AnalysisEngine::Stats st;
  std::string damaged = runEngineReport(
      corruptPath, 1, TraceBatch::kDefaultCapacity, /*recover=*/true, &st);
  EXPECT_EQ(st.records, expected.size());
  EXPECT_EQ(st.resyncCuts, 1u);
  EXPECT_EQ(damaged, runEngineReport(cleanPath));
  std::remove(corruptPath.c_str());
  std::remove(cleanPath.c_str());
}

// -------------------------------------------------------- determinism

TEST_F(EngineTest, ReportByteIdenticalAtAnyWorkerCount) {
  // The serial text scan is the oracle; the v2 re-encode must match it
  // serially and through the extent scheduler at any thread count.
  std::string serial = runEngineReport(*textPath_);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(runEngineReport(*v2Path_), serial) << "serial v2 scan diverged";
  for (std::size_t threads : {2u, 4u, 7u}) {
    AnalysisEngine::Stats st;
    EXPECT_EQ(runEngineReport(*v2Path_, threads, TraceBatch::kDefaultCapacity,
                              false, &st),
              serial)
        << "report diverged at " << threads << " decode threads";
    EXPECT_GT(st.extentsTotal, 1u) << "extent path not taken";
  }
  // Small batches: many batches per extent through the reorder queue,
  // with batches cut short at every extent end; still identical.
  for (std::size_t threads : {2u, 4u, 7u}) {
    EXPECT_EQ(runEngineReport(*v2Path_, threads, 19), serial)
        << "report diverged at " << threads
        << " decode threads, 19-record batches";
  }
}

TEST_F(EngineTest, JsonReportDeterministicToo) {
  auto runJson = [&](const std::string& path, std::size_t threads) {
    StandardAnalyses analyses;
    AnalysisEngine::Config cfg;
    cfg.decodeThreads = threads;
    AnalysisEngine engine(cfg);
    engine.addPasses(analyses.all());
    engine.runFile(path);
    return renderReportJson("trace", analyses);
  };
  std::string j1 = runJson(*textPath_, 1);
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1.front(), '{');
  for (std::size_t threads : {2u, 4u, 7u}) {
    EXPECT_EQ(runJson(*v2Path_, threads), j1)
        << "JSON diverged at " << threads << " decode threads";
  }
}

// --------------------------------------------- legacy-result equality

TEST_F(EngineTest, PassResultsMatchLegacyFunctions) {
  const auto& records = *records_;

  StandardAnalyses analyses;
  AnalysisEngine engine;
  engine.addPasses(analyses.all());
  TraceReader reader(*textPath_);
  const auto& st = engine.run(reader);
  EXPECT_EQ(st.records, records.size());

  // summary
  TraceSummary legacy = summarize(records);
  const TraceSummary& s = analyses.summary.result();
  EXPECT_EQ(s.totalOps, legacy.totalOps);
  EXPECT_EQ(s.opCounts, legacy.opCounts);
  EXPECT_EQ(s.bytesRead, legacy.bytesRead);
  EXPECT_EQ(s.bytesWritten, legacy.bytesWritten);
  EXPECT_EQ(s.readOps, legacy.readOps);
  EXPECT_EQ(s.writeOps, legacy.writeOps);
  EXPECT_EQ(s.dataOps, legacy.dataOps);
  EXPECT_EQ(s.metadataOps, legacy.metadataOps);
  EXPECT_EQ(s.repliesMissing, legacy.repliesMissing);
  EXPECT_EQ(s.firstTs, legacy.firstTs);
  EXPECT_EQ(s.lastTs, legacy.lastTs);

  // hourly
  HourlyStats hs;
  for (const auto& r : records) hs.observe(r);
  ASSERT_EQ(analyses.hourly.result().hours().size(), hs.hours().size());
  for (std::size_t i = 0; i < hs.hours().size(); ++i) {
    EXPECT_EQ(analyses.hourly.result().hours()[i].totalOps,
              hs.hours()[i].totalOps);
    EXPECT_EQ(analyses.hourly.result().hours()[i].bytesRead,
              hs.hours()[i].bytesRead);
  }

  // users
  UserStats us;
  for (const auto& r : records) us.observe(r);
  EXPECT_EQ(analyses.users.result().userCount(), us.userCount());
  EXPECT_DOUBLE_EQ(analyses.users.result().imbalance(), us.imbalance());
  auto top = us.byActivity();
  auto etop = analyses.users.result().byActivity();
  ASSERT_EQ(etop.size(), top.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(etop[i].uid, top[i].uid);
    EXPECT_EQ(etop[i].totalOps, top[i].totalOps);
    EXPECT_EQ(etop[i].activeHours, top[i].activeHours);
  }

  // reorder sweep
  auto sweep = sweepReorderWindows(
      records, {0, 1'000, 5'000, 10'000, 50'000, 100'000, 1'000'000});
  ASSERT_EQ(analyses.reorder.sweep().size(), sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(analyses.reorder.sweep()[i].first, sweep[i].first);
    EXPECT_DOUBLE_EQ(analyses.reorder.sweep()[i].second, sweep[i].second);
  }

  // runs
  auto sorted = sortWithReorderWindow(records, 10'000);
  auto runs = detectRuns(sorted.records);
  EXPECT_EQ(analyses.runs.runs().size(), runs.size());
  EXPECT_DOUBLE_EQ(analyses.runs.reorderSwappedFraction(),
                   sorted.swappedFraction());
  auto rp = summarizeRunPatterns(runs);
  EXPECT_DOUBLE_EQ(analyses.runs.patterns().readFrac, rp.readFrac);
  EXPECT_DOUBLE_EQ(analyses.runs.patterns().writeSeq, rp.writeSeq);
  EXPECT_DOUBLE_EQ(analyses.runs.patterns().rwRandom, rp.rwRandom);

  // block life
  BlockLifeConfig cfg;
  cfg.phase1Start = legacy.firstTs;
  cfg.phase1Length =
      std::max<MicroTime>((legacy.lastTs - legacy.firstTs) / 2, 1);
  cfg.phase2Length = cfg.phase1Length;
  EmpiricalCdf lifetimes;
  auto bl = analyzeBlockLife(records, cfg, &lifetimes);
  EXPECT_EQ(analyses.blocklife.stats().births, bl.births);
  EXPECT_EQ(analyses.blocklife.stats().deaths, bl.deaths);
  EXPECT_EQ(analyses.blocklife.stats().birthsWrite, bl.birthsWrite);
  EXPECT_EQ(analyses.blocklife.stats().deathsOverwrite, bl.deathsOverwrite);
  EXPECT_EQ(analyses.blocklife.lifetimes().size(), lifetimes.size());

  // names
  FileLifeCensus census;
  for (const auto& r : records) census.observe(r);
  census.finish();
  EXPECT_EQ(analyses.names.census().totalCreated(), census.totalCreated());
  EXPECT_EQ(analyses.names.census().totalDeleted(), census.totalDeleted());
  EXPECT_DOUBLE_EQ(analyses.names.census().lockFractionOfDeleted(),
                   census.lockFractionOfDeleted());

  // pathrec
  PathReconstructor pr;
  for (const auto& r : records) pr.observe(r);
  EXPECT_EQ(analyses.pathrec.reconstructor().knownFiles(), pr.knownFiles());
  EXPECT_DOUBLE_EQ(analyses.pathrec.reconstructor().parentCoverage(),
                   pr.parentCoverage());
}

// --------------------------------------------------- engine mechanics

TEST_F(EngineTest, StatsAndRerunReuse) {
  StandardAnalyses analyses;
  AnalysisEngine engine;
  engine.addPasses(analyses.all());
  {
    TraceReader reader(*textPath_);
    const auto& st = engine.run(reader);
    EXPECT_EQ(st.records, records_->size());
    EXPECT_GT(st.batches, 0u);
    EXPECT_GT(st.internedNames + st.internedHandles, 0u);
    EXPECT_EQ(st.resyncCuts, 0u);
  }
  std::string first = renderReportText("x", analyses);
  {
    // A second run() re-prepares every pass: same input, same output.
    TraceReader reader(*textPath_);
    engine.run(reader);
  }
  EXPECT_EQ(renderReportText("x", analyses), first);
}

TEST(EngineStandalone, EmptyTraceYieldsNoRecords) {
  std::string path =
      "/tmp/engine_test_" + std::to_string(::getpid()) + "_empty.trace";
  { TraceWriter w(path, TraceWriter::Format::Text); }
  StandardAnalyses analyses;
  AnalysisEngine engine;
  engine.addPasses(analyses.all());
  TraceReader reader(path);
  const auto& st = engine.run(reader);
  EXPECT_EQ(st.records, 0u);
  EXPECT_EQ(st.batches, 0u);
  EXPECT_EQ(analyses.summary.result().totalOps, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nfstrace

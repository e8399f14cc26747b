// The benchmark's workloads: what each simulates, how its capture is
// taken and analysed, and the predicate queries it issues.  Why each
// workload exists is recorded in perfbench/README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/predicate.hpp"
#include "util/time.hpp"

namespace nfstrace::perfbench {

struct Workload {
  std::string name;
  bool eecs = true;  // EECS population and network; else CAMPUS
  int users = 0;
  double startDay = 0;  // simulation day the capture starts (0 = Sunday)
  double simDays = 0;
  /// Bandwidth-limited mirror port between the wire and the pcap; 0 =
  /// lossless tap.
  double mirrorBitsPerSec = 0;
  std::size_t mirrorBufferBytes = 0;
  /// CAMPUS median inbox size (lognormal); bounds the capture's bytes.
  double mailboxMedianBytes = 2.0 * 1024 * 1024;
  /// The pcap keeps only the first this-many frames the tap forwards, so
  /// every seed yields an input of the same size (0 = keep all).
  std::uint64_t maxFrames = 0;
  /// Capture through ParallelPipeline (else one serial Sniffer).
  bool pipeline = false;
  /// Analyse with nproc-1 extent decode threads (else one).
  bool parallelDecode = false;
  /// The trace is built during set-up and the measured phase starts
  /// from it (no capture stage is measured).
  bool captureInSetup = false;
  /// Distinct queries in the seed-derived sequence.
  int queries = 200;

  MicroTime start() const { return days(startDay); }
  MicroTime end() const { return days(startDay + simDays); }
  /// First uid the workload generator assigns (users get base + index).
  std::uint32_t uidBase() const { return eecs ? 3000 : 2000; }
};

/// The workload named `name`, or nullptr.
const Workload* findWorkload(const std::string& name);
const std::vector<Workload>& allWorkloads();

/// A tiny variant of `w` for the self-test: same configuration, a few
/// users over a couple of simulated hours.
Workload miniature(const Workload& w);

/// The fixed, seed-derived query sequence over a trace spanning
/// [first, last]: 2-hour windows, each with an op set — three in four a
/// non-empty subset of getattr/lookup/access, one in four read, write or
/// both — and one in four also pinned to a random uid.  Shares are exact,
/// op sets cycle and windows sit on an even grid, so different seeds ask
/// alike sequences; the seed picks the uids and the order.
std::vector<ScanPredicate> makeQueries(const Workload& w, std::uint64_t seed,
                                       MicroTime first, MicroTime last);

}  // namespace nfstrace::perfbench

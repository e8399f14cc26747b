#include "workloads.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace nfstrace::perfbench {

const std::vector<Workload>& allWorkloads() {
  static const std::vector<Workload> kAll = [] {
    Workload research;
    research.name = "eecs-research";
    research.eecs = true;
    research.users = 12;
    research.startDay = 1;  // Monday: a working day plus its night crons
    research.simDays = 1;
    // A fixed input size for every seed: each seed's day has 390-420k
    // frames, so the cut falls late in the evening.
    research.maxFrames = 380'000;
    research.pipeline = true;
    research.parallelDecode = true;

    Workload email;
    email.name = "campus-email";
    email.eecs = false;
    email.users = 128;
    email.startDay = 0;  // Sunday
    email.simDays = 1;
    email.maxFrames = 100'000;  // cut in the afternoon
    // Narrower than the jumbo-frame wire: delivery and mailbox-read
    // bursts overflow the port buffer, the paper's §4.1.4 mirror loss.
    email.mirrorBitsPerSec = 300e6;
    email.mirrorBufferBytes = 256 * 1024;
    // Many users with small inboxes rather than a few with the paper's
    // 2 MB: inbox and folder sizes are lognormal, and with a dozen users
    // the capture's content swung twofold from seed to seed; 128 users
    // average it out at a smaller pcap.
    email.mailboxMedianBytes = 128.0 * 1024;

    Workload query = research;
    query.name = "eecs-query";
    query.captureInSetup = true;
    return std::vector<Workload>{research, email, query};
  }();
  return kAll;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : allWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload miniature(const Workload& w) {
  Workload m = w;
  m.users = 3;
  m.startDay = 1.375;  // 09:00 Monday, so the hours hold traffic
  m.simDays = 3.0 / 24.0;
  m.queries = 12;
  return m;
}

std::vector<ScanPredicate> makeQueries(const Workload& w, std::uint64_t seed,
                                       MicroTime first, MicroTime last) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5155455259ULL);
  const MicroTime window = hours(2);
  const double span =
      static_cast<double>(std::max<MicroTime>(last - first - window, 1));
  const auto n = static_cast<std::size_t>(w.queries);
  const NfsOp meta[] = {NfsOp::Getattr, NfsOp::Lookup, NfsOp::Access};
  const std::uint32_t data[] = {
      opMaskBit(NfsOp::Read), opMaskBit(NfsOp::Write),
      opMaskBit(NfsOp::Read) | opMaskBit(NfsOp::Write)};
  // Every fourth query reads data, and every fourth of each kind names a
  // uid.  Each kind's windows sit on an even grid over the span, so the
  // latency tail reflects the trace, not which windows the seed drew.
  const std::size_t nData = n / 4, nMeta = n - nData;
  std::size_t iData = 0, iMeta = 0;
  std::vector<ScanPredicate> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    ScanPredicate& q = out[i];
    const bool isData = i % 4 == 3;
    const std::size_t k = isData ? iData++ : iMeta++;
    const double slots = static_cast<double>(isData ? nData : nMeta);
    q.from = first + static_cast<MicroTime>((static_cast<double>(k) + 0.5) *
                                            span / slots);
    q.to = q.from + window - 1;
    q.ops = 0;
    // Op sets cycle too: read/write/both, and the seven non-empty
    // subsets of the metadata ops.
    const std::size_t set = isData ? k % 3 : k % 7 + 1;
    for (std::size_t b = 0; b < 3; ++b) {
      if (isData ? b == set : ((set >> b) & 1) != 0) {
        q.ops |= isData ? data[b] : opMaskBit(meta[b]);
      }
    }
    if ((i / 4) % 4 == 0) {
      q.uid = w.uidBase() +
              static_cast<std::uint32_t>(
                  rng.below(static_cast<std::uint64_t>(w.users)));
    }
  }
  rng.shuffle(out);
  return out;
}

}  // namespace nfstrace::perfbench

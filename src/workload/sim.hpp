// Simulation harness: wires file system -> server -> per-host transports
// -> (optional mirror port) -> sniffer, and exposes either a collected
// trace or a streaming record callback for week-long runs that would not
// fit in memory as full records.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "client/client.hpp"
#include "fs/fs.hpp"
#include "netcap/netcap.hpp"
#include "server/mountd.hpp"
#include "server/server.hpp"
#include "sniffer/sniffer.hpp"

namespace nfstrace {

class SimEnvironment {
 public:
  struct Config {
    InMemoryFs::Config fsConfig;
    /// Number of distinct client hosts (POP/SMTP/login servers on CAMPUS;
    /// workstations on EECS).
    int clientHosts = 4;
    std::uint8_t nfsVers = 3;
    /// Optional per-host NFS version override (EECS: "most clients use
    /// NFSv3, but many use NFSv2").  Hosts beyond the vector use nfsVers.
    std::vector<std::uint8_t> hostVersions;
    bool useTcp = true;
    std::size_t mtu = kJumboMtu;
    NfsClient::Config clientConfig;
    /// Mirror port between the wire and the sniffer; disabled => lossless
    /// tap (the EECS setup).
    bool useMirror = false;
    MirrorPort::Config mirrorConfig;
    std::uint64_t seed = 42;
  };

  using RecordCallback = std::function<void(const TraceRecord&)>;

  /// `callback` receives every trace record as the sniffer emits it; pass
  /// nullptr to collect into records() instead.
  explicit SimEnvironment(Config config, RecordCallback callback = nullptr);

  InMemoryFs& fs() { return *fs_; }
  NfsServer& server() { return *server_; }
  MountServer& mountd() { return *mountd_; }
  Portmapper& portmap() { return *portmap_; }
  NfsClient& client(int host) { return *clients_.at(static_cast<std::size_t>(host)); }
  int clientHostCount() const { return static_cast<int>(clients_.size()); }
  Sniffer& sniffer() { return *sniffer_; }
  const MirrorPort* mirror() const { return mirror_.get(); }
  Rng& rng() { return rng_; }

  /// Attach an extra frame sink to the tap (a pcap writer, a frame
  /// collector for replay through another pipeline, ...).  Sees the raw
  /// pre-mirror frames.  Must outlive the simulation.
  void addTapSink(FrameSink* sink) { tap_.addSink(sink); }

  /// Collected records (only when no callback was given).  Sorted by call
  /// timestamp on access.
  std::vector<TraceRecord>& records();

  /// Flush sniffer state (pending reply-less calls) at end of run.
  void finishCapture() { sniffer_->flush(); }

 private:
  Config config_;
  Rng rng_;
  std::unique_ptr<InMemoryFs> fs_;
  std::unique_ptr<NfsServer> server_;
  std::unique_ptr<MountServer> mountd_;
  std::unique_ptr<Portmapper> portmap_;
  std::unique_ptr<Sniffer> sniffer_;
  std::unique_ptr<MirrorPort> mirror_;
  FrameTee tap_;
  /// IPv4 identification counter shared by this simulation's hosts: a
  /// simulation's frames depend on its own inputs only, not on what ran
  /// earlier in the process.
  std::uint16_t ipIds_ = 1;
  std::vector<std::unique_ptr<NfsTransport>> transports_;
  std::vector<std::unique_ptr<NfsClient>> clients_;
  std::vector<TraceRecord> records_;
  bool recordsSorted_ = false;
};

}  // namespace nfstrace

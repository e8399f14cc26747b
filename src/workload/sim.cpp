#include "workload/sim.hpp"

#include <algorithm>

namespace nfstrace {

SimEnvironment::SimEnvironment(Config config, RecordCallback callback)
    : config_(config), rng_(config.seed) {
  fs_ = std::make_unique<InMemoryFs>(config_.fsConfig);
  server_ = std::make_unique<NfsServer>(*fs_);
  mountd_ = std::make_unique<MountServer>(*fs_);
  mountd_->addExport("/");
  portmap_ = std::make_unique<Portmapper>();
  // The server registers its services at boot, as rpc.statd and friends
  // do: NFS v2+v3 on 2049 (both transports), mountd on 635.
  for (std::uint32_t vers : {2u, 3u}) {
    portmap_->set({kNfsProgram, vers, 6, 2049});
    portmap_->set({kNfsProgram, vers, 17, 2049});
    portmap_->set({kMountProgram, vers, 17, 635});
  }

  auto onRecord = callback
                      ? Sniffer::RecordCallback(callback)
                      : Sniffer::RecordCallback([this](const TraceRecord& r) {
                          records_.push_back(r);
                          recordsSorted_ = false;
                        });
  sniffer_ = std::make_unique<Sniffer>(Sniffer::Config{}, std::move(onRecord));

  FrameSink* capture = sniffer_.get();
  if (config_.useMirror) {
    mirror_ = std::make_unique<MirrorPort>(config_.mirrorConfig, *sniffer_);
    capture = mirror_.get();
  }
  tap_.addSink(capture);

  for (int i = 0; i < config_.clientHosts; ++i) {
    NfsTransport::Config tc;
    tc.clientIp = makeIp(10, 1, 0, 10 + i);
    tc.serverIp = makeIp(10, 0, 0, 1);
    tc.nfsVers = static_cast<std::size_t>(i) < config_.hostVersions.size()
                     ? config_.hostVersions[static_cast<std::size_t>(i)]
                     : config_.nfsVers;
    tc.useTcp = config_.useTcp;
    tc.mtu = config_.mtu;
    tc.machineName = "host" + std::to_string(i);
    transports_.push_back(std::make_unique<NfsTransport>(
        tc, *server_, &tap_, rng_.next(), mountd_.get(), portmap_.get(),
        &ipIds_));
    auto client = std::make_unique<NfsClient>(config_.clientConfig,
                                              *transports_.back(),
                                              rng_.next());
    // Clients bootstrap exactly as real ones do: ask the portmapper
    // where mountd and nfsd live, then MNT the export.
    MicroTime mountTime = 0;
    transports_.back()->getport(mountTime, kMountProgram, 3, 17);
    transports_.back()->getport(mountTime, kNfsProgram, config_.nfsVers, 17);
    if (!client->mountRoot(mountTime, "/")) {
      client->setRootHandle(fs_->rootHandle());
    }
    clients_.push_back(std::move(client));
  }
}

std::vector<TraceRecord>& SimEnvironment::records() {
  if (!recordsSorted_) {
    std::stable_sort(records_.begin(), records_.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                       return a.ts < b.ts;
                     });
    recordsSorted_ = true;
  }
  return records_;
}

}  // namespace nfstrace

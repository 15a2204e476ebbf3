// RemoteCoordinator: the coordinator (coordinator.hpp) over kfi_campaignd
// daemons, one shard per --hosts endpoint, each over its own TCP session
// (net.hpp's KFNM protocol).
//
// The submit carries the expected plan fingerprint: a daemon whose
// rebuilt plan disagrees, or that speaks a different protocol version,
// refuses with a typed error (kSkew / kBadRequest -> FabricError) before
// any injection runs anywhere; kBusy is a transient death.  Daemons are
// crash domains like worker subprocesses: every completed injection is
// journaled on the daemon's LOCAL disk, and KFFR heartbeat/progress
// frames riding in kStatus messages renew the session lease.
//
// Resume is the daemon's job: the first accepted dispatch of a shard
// sends `fresh`, every later one fresh=false, so a restarted daemon
// resumes its journal and re-executes nothing.  (A re-dispatch landing
// on a DIFFERENT host re-runs the slice from scratch there — benign,
// because records are pure functions of (plan, index) and the splice
// dedups identical entries.)  A completed shard's journal streams back
// byte-for-byte (kJournal) and lands atomically at the local shard
// journal path, where the splice picks it up.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/net.hpp"

namespace kfi::fabric {

struct RemoteOptions : CoordinatorOptions {
  /// Daemon endpoints; also the shard count.  Required (>= 1).
  std::vector<HostSpec> hosts;
  /// Fresh run: first submission per shard tells the daemon to drop any
  /// journal it holds for this (plan, shard).  false = resume (daemon-
  /// and client-side journals are kept and deduped against).
  bool fresh = true;
  /// Engine threads inside each daemon run (forwarded in the submit).
  u32 jobs_per_host = 1;
  /// TCP connect timeout per dispatch attempt.
  double connect_timeout_seconds = 5.0;
  /// Deaths (connection losses, refusals, lease revocations) one host
  /// absorbs before it is retired.
  u32 max_restarts_per_host = 3;
  /// Live tally sink: called (from the coordinator thread) whenever any
  /// host reports progress, with a snapshot of every host.  May be empty.
  std::function<void(const std::vector<RemoteHostProgress>&)> progress;
};

/// The coordinator over kfi_campaignd daemons.  Per-host ledgers land in
/// CampaignResult::fabric_hosts.  `open` replaces the TCP transport
/// (tests drive the state machine with fakes).
class RemoteCoordinator : public Coordinator {
 public:
  explicit RemoteCoordinator(RemoteOptions options, SessionOpener open = {});
};

}  // namespace kfi::fabric

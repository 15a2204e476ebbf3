// Coordinator: crash-isolated campaign execution over a fabric of
// sessions — kfi_worker subprocesses (FabricCoordinator, this file) or
// kfi_campaignd daemons over TCP (RemoteCoordinator, remote.hpp).
//
// The coordinator cuts a frozen CampaignPlan's index space into one
// shard per slot (shard boundaries are pure functions of (total,
// shards), so a restarted coordinator recomputes identical slices and
// every shard journal on disk still means what it meant) and drives one
// state machine per shard, whatever the transport:
//
//   pending --dispatch--> running --done--> done
//      ^                     |
//      +--- backoff(eligible_at) --- death (exit, EOF, refusal,
//                                           corrupt stream, lease miss)
//
// A session renews its slot's lease with any traffic; a silent one is
// revoked.  A death re-enqueues the shard after a deterministic-seeded
// exponential backoff; a slot that absorbs more than max_restarts deaths
// is retired; fewer live slots than min_workers aborts with FabricError,
// leaving every shard journal on disk, so the fabric is resumable.  When
// every shard is done the shard journals are spliced into one
// CampaignResult whose result_fingerprint is byte-identical to the
// single-process run of the same plan.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fabric/splice.hpp"
#include "fabric/wire.hpp"
#include "inject/engine.hpp"
#include "inject/journal.hpp"
#include "inject/plan.hpp"

namespace kfi::fabric {

/// Coordinator-level failure: spawn machinery broke, a peer rebuilt a
/// different plan, or the fabric degraded below min_workers.  Shard
/// journals are always left on disk — the campaign is resumable.
struct FabricError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Knobs every transport shares; FabricOptions and RemoteOptions add
/// their own.
struct CoordinatorOptions {
  /// Abort (FabricError) when fewer live slots than this remain.
  u32 min_workers = 1;
  /// Shard journals live at "<prefix>.shard<k>of<n>.kfij" (a remote
  /// shard's lands there when its daemon streams it back).  Required.
  std::string journal_prefix;
  /// Heartbeat lease: a session that stays silent this long is presumed
  /// wedged or partitioned, ended, and its shard re-dispatched.
  double lease_seconds = 30.0;
  /// Heartbeat period requested of workers and daemons.
  double heartbeat_seconds = 1.0;
  /// Exponential backoff before re-dispatching a dead session's shard:
  /// restart r of slot s waits min(cap, base * 2^(r-1)) seconds scaled
  /// by a deterministic jitter in [0.5, 1.5) from an Rng seeded by
  /// (plan fingerprint, slot) — reruns back off identically.  base = 0
  /// restarts immediately.
  double backoff_base = 0.05;
  double backoff_cap = 2.0;
  /// Journal durability policy for the shard journals.
  inject::FlushPolicy flush = inject::FlushPolicy::kFsync;
  /// Supervisor knobs forwarded to each shard's engine.
  u32 retries = 1;
  double stall_seconds = 0.0;
  /// Narrate session lifecycle (dispatch/death/re-dispatch) to stderr.
  bool verbose = false;
};

/// Live per-slot view handed to the progress callback: what each slot is
/// doing right now, including the outcome tally its latest frame
/// carried.  Purely observational.
struct RemoteHostProgress {
  std::string host;  // "host:port" label
  bool connected = false;
  bool retired = false;  // slot gave up (too many deaths)
  u32 shard = 0;
  u32 completed = 0;  // slice indices finished (incl. resumed)
  u32 total = 0;      // slice size
  std::array<u32, kFrameOutcomeSlots> outcomes{};
};

/// One dispatch of a shard to a slot, as the coordinator hands it to the
/// transport.
struct Dispatch {
  const inject::CampaignPlan& plan;
  u64 plan_fp;
  u32 slot;
  u32 shard;
  u32 shards;
  const std::vector<u32>& slice;    // the shard's whole index slice
  const std::vector<u32>& missing;  // slice minus the local journal
  const std::string& journal;       // the coordinator-side shard journal
  u32 launches;  // earlier dispatches of this shard
  bool fresh;    // no peer has accepted this shard yet in a fresh run
};

/// How a session ended: done (the shard journal is complete at
/// Dispatch::journal) or a death, with a reason for the narration.
struct SessionEnd {
  bool done = false;
  std::string why;
};

/// One running dispatch.  Destroying a session ends it: a worker is
/// SIGKILLed and reaped, a socket closed.
class Session {
 public:
  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  virtual ~Session() = default;
  /// The fd the coordinator polls for this session's traffic.
  virtual int fd() const = 0;
  /// Consume what fd() has ready, handing each status frame to
  /// `on_frame`; returns the end once the session is over.
  virtual std::optional<SessionEnd> pump(
      const std::function<void(const StatusFrame&)>& on_frame) = 0;
};

/// Start a dispatch; nullptr (with `*why`) is an immediate death.
using SessionOpener =
    std::function<std::unique_ptr<Session>(const Dispatch&, std::string* why)>;

class Coordinator {
 public:
  /// Run the plan across the slots and splice the shard journals into
  /// one result.  Existing shard journals for the same plan are resumed
  /// (SIGKILL-safe: rerunning after any crash continues where the
  /// journals stopped).  Throws FabricError when the fabric cannot make
  /// progress; the shard journals survive for a later resume.
  inject::CampaignResult run(const inject::CampaignPlan& plan,
                             SpliceStats* stats = nullptr);

  /// The coordinator-side shard journal paths run() uses for `plan`
  /// (total = targets).
  std::vector<std::string> journal_paths(u32 total) const;

  /// Per-slot ledger of the last run (filled even when it threw).
  const std::vector<inject::FabricHostStats>& slot_stats() const {
    return ledger_;
  }

 protected:
  /// What the coordinator needs of either option struct.
  struct Config : CoordinatorOptions {
    explicit Config(const CoordinatorOptions& o) : CoordinatorOptions(o) {}
    const char* noun = "slot";       // or "host", for narration
    std::vector<std::string> names;  // one per slot; also the shard count
    u32 max_restarts = 3;
    u32 jobs_per_slot = 1;
    /// Process transport: dispatch only the indices the local journal
    /// lacks.  Remote transport: the daemon resumes its own journal, the
    /// local one appears complete or not at all, and `fabric_hosts` is
    /// reported.
    bool local_journals = true;
    bool fresh = true;  // remote only: a non-fresh run skips shards
                        // whose retrieved journal is already complete
    std::function<void(const std::vector<RemoteHostProgress>&)> progress;
  };

  Coordinator(Config config, SessionOpener open);

 private:
  Config cfg_;
  SessionOpener open_;
  std::vector<inject::FabricHostStats> ledger_;
};

struct FabricOptions : CoordinatorOptions {
  /// Worker subprocess slots (>= 1); also the shard count.
  u32 workers = 2;
  /// Engine threads inside each worker (kfi_worker --jobs).
  u32 jobs_per_worker = 1;
  /// Path to the kfi_worker binary.  Required.
  std::string worker_binary;
  /// Worker deaths a single slot absorbs before it is retired.
  u32 max_restarts_per_slot = 3;
  /// Chaos knob: each shard's FIRST worker launch self-SIGKILLs after
  /// completing this many injections (0 = off).  Restarted workers run
  /// to completion, so the campaign still finishes — the chaos tests use
  /// this for deterministic mid-campaign worker loss.
  u32 chaos_kill_after = 0;
};

/// The coordinator over kfi_worker subprocesses, one per shard, each
/// reporting KFFR status frames over an inherited pipe.  `open` replaces
/// the subprocess transport (tests drive the state machine with fakes).
class FabricCoordinator : public Coordinator {
 public:
  explicit FabricCoordinator(FabricOptions options, SessionOpener open = {});
};

}  // namespace kfi::fabric

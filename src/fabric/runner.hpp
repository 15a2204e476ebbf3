// ShardRunner: the one shard executor behind kfi_worker and kfi_campaignd.
//
// A shard submission is a SubmitRequest whether it arrived on
// kfi_worker's command line or as a KFNM kSubmit.  The runner rebuilds
// the campaign plan from the spec blob (plan building is deterministic)
// and validates the submission — protocol version, spec blob, index
// ranges, the rebuilt plan's fingerprint, index bounds — throwing a
// typed ShardError before any journal is touched or injection runs.  It
// then resumes or creates the shard journal and runs the engine over the
// slice, every record durable before the next starts, streaming KFFR
// status frames into a FrameSink: hello, one progress frame per
// completion, a heartbeat every `heartbeat_seconds` so a lease outlives
// one long injection, and done with the supervisor totals.  The outcome
// tally on every frame counts the resumed entries too.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/net.hpp"
#include "fabric/wire.hpp"
#include "inject/journal.hpp"
#include "inject/plan.hpp"

namespace kfi::fabric {

/// A submission refused before any injection: kSkew (protocol version or
/// plan fingerprint mismatch) or kBadRequest (malformed or out of range).
struct ShardError : std::runtime_error {
  ShardError(RefuseCode code, const std::string& what)
      : std::runtime_error(what), code(code) {}
  RefuseCode code;
};

/// Receives the run's status frames, one call at a time (the runner
/// serializes the engine and the heartbeat).  Returning false means the
/// peer is gone: the run is cancelled at the next injection boundary.
using FrameSink = std::function<bool(const StatusFrame&)>;

class ShardRunner {
 public:
  /// Validate `req` and rebuild its plan; throws ShardError.  The plan
  /// fingerprint is only checked when `check_fp` (a standalone kfi_worker
  /// may omit --expect-plan-fp).
  explicit ShardRunner(SubmitRequest req, bool check_fp = true);

  u64 plan_fingerprint() const { return plan_fp_; }

  /// Resume the shard journal at `path`, or create it (a fresh request
  /// drops any old one first).  Returns the number of entries recovered.
  u32 open_journal(const std::string& path);

  /// Run the slice into the journal open_journal() opened, streaming
  /// frames to `sink`.  Returns true when every index completed, false
  /// when the sink failed and the run was cancelled (the journal keeps
  /// every completed record).
  bool run(const FrameSink& sink);

 private:
  SubmitRequest req_;
  inject::CampaignPlan plan_;
  u64 plan_fp_ = 0;
  std::vector<u32> indices_;
  std::optional<inject::InjectionJournal> journal_;
};

}  // namespace kfi::fabric

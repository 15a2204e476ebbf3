// kfi_worker: one crash domain of a fabric campaign.
//
//   kfi_worker --spec HEX --indices RANGES --journal PATH
//              [--expect-plan-fp HEX16] [--shard K] [--shards N]
//              [--status-fd FD] [--jobs J] [--heartbeat SECS]
//              [--retries K] [--stall SECS] [--journal-flush fsync|flush]
//              [--chaos-kill-after N]
//
// Spawned by the fabric coordinator (kfi_campaign --fabric N), one per
// shard.  The argv is a shard submission for the ShardRunner
// (fabric/runner.hpp), which rebuilds the plan from the spec blob,
// refuses skew before any injection (a --expect-plan-fp mismatch exits
// 3, a malformed submission 2), resumes or creates the shard journal and
// runs the slice, every record fsync'd before the next one starts.
// Status frames flow to --status-fd; if the coordinator vanishes, the
// next frame write raises SIGPIPE and the default disposition kills this
// process — orphaned workers self-clean.
//
// --chaos-kill-after N makes the worker raise SIGKILL after completing N
// injections: the chaos tests use it for deterministic mid-campaign
// worker loss (everything up to the kill is already durable in the
// journal, so the restarted worker resumes bit-identically).
//
// Also usable standalone (no --status-fd) to run one shard of a campaign
// by hand; kfi_journal_splice merges the shard journals afterwards.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "fabric/net.hpp"
#include "fabric/runner.hpp"
#include "fabric/wire.hpp"

using namespace kfi;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --spec HEX --indices RANGES --journal PATH\n"
               "          [--expect-plan-fp HEX16] [--shard K] [--shards N]\n"
               "          [--status-fd FD] [--jobs J] [--heartbeat SECS]\n"
               "          [--retries K] [--stall SECS]\n"
               "          [--journal-flush fsync|flush]\n"
               "          [--chaos-kill-after N]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  fabric::SubmitRequest req;
  std::string spec_hex, journal_path, expect_fp_hex;
  int status_fd = -1;
  u32 chaos_kill_after = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--spec") spec_hex = next();
    else if (arg == "--indices") req.indices = next();
    else if (arg == "--journal") journal_path = next();
    else if (arg == "--expect-plan-fp") expect_fp_hex = next();
    else if (arg == "--shard") req.shard = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    else if (arg == "--shards") req.shards = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    else if (arg == "--status-fd") status_fd = static_cast<int>(std::strtol(next(), nullptr, 10));
    else if (arg == "--jobs") req.jobs = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    else if (arg == "--heartbeat") req.heartbeat_seconds = std::strtod(next(), nullptr);
    else if (arg == "--retries") req.retries = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    else if (arg == "--stall") req.stall_seconds = std::strtod(next(), nullptr);
    else if (arg == "--chaos-kill-after") chaos_kill_after = static_cast<u32>(std::strtoul(next(), nullptr, 10));
    else if (arg == "--journal-flush") {
      const auto policy = inject::parse_flush_policy(next());
      if (!policy) {
        usage(argv[0]);
        return 2;
      }
      req.flush = static_cast<u8>(*policy);
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (spec_hex.empty() || req.indices.empty() || journal_path.empty()) {
    usage(argv[0]);
    return 2;
  }
  const auto spec_bytes = fabric::from_hex(spec_hex);
  if (!spec_bytes) {
    std::fprintf(stderr, "kfi_worker: --spec is not valid hex\n");
    return 2;
  }
  req.spec = *spec_bytes;
  req.expect_plan_fp = std::strtoull(expect_fp_hex.c_str(), nullptr, 16);
  if (status_fd < 0) req.heartbeat_seconds = 0.0;  // nobody to keep alive

  u32 completions = 0;
  const fabric::FrameSink sink = [&](const fabric::StatusFrame& f) {
    // Chaos: die loudly after N completions in THIS process, with
    // everything so far already fsync'd to the shard journal.
    if (f.type == fabric::FrameType::kProgress && chaos_kill_after > 0 &&
        ++completions >= chaos_kill_after && f.done < f.total) {
      ::raise(SIGKILL);
    }
    if (status_fd < 0) return true;
    // write_all retries EINTR and short writes; any other failure means
    // the coordinator is gone (and SIGPIPE was somehow not fatal).
    const std::vector<u8> bytes = fabric::encode_frame(f);
    return fabric::write_all(status_fd, bytes.data(), bytes.size());
  };

  try {
    fabric::ShardRunner runner(std::move(req), !expect_fp_hex.empty());
    runner.open_journal(journal_path);
    return runner.run(sink) ? 0 : 1;
  } catch (const fabric::ShardError& e) {
    std::fprintf(stderr, "kfi_worker: %s\n", e.what());
    return e.code == fabric::RefuseCode::kSkew ? 3 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kfi_worker: %s\n", e.what());
    fabric::StatusFrame f;
    f.type = fabric::FrameType::kError;
    f.message = e.what();
    sink(f);
    return 1;
  }
}

// The coordinator state machine driven through fake sessions: no fork,
// no TCP.  One opener fails dispatches outright (what a dead host's
// refused connect looks like); the other runs the shard in-process on a
// real ShardRunner and hands its status frames over a pipe.  Together
// they walk death -> backoff -> re-dispatch -> splice, retirement after
// max_restarts -> the min-workers FabricError, and pin that both option
// structs drive the very same deterministic backoff.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "fabric/coordinator.hpp"
#include "fabric/remote.hpp"
#include "fabric/runner.hpp"
#include "fabric/shard.hpp"
#include "inject/campaign.hpp"

namespace kfi::fabric {
namespace {

constexpr u64 kPinnedCisca = 0xAB480E702F164E0Eull;

inject::CampaignPlan pinned_plan() {
  inject::CampaignSpec spec;
  spec.arch = isa::Arch::kCisca;
  spec.kind = inject::CampaignKind::kData;
  spec.injections = 16;
  spec.seed = 77;
  return inject::build_campaign_plan(spec);
}

std::string prefix(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("kfi_coord_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

FabricOptions fabric_options(const std::string& tag, u32 workers) {
  FabricOptions opt;
  opt.workers = workers;
  opt.journal_prefix = prefix(tag);
  opt.worker_binary = "unused";
  opt.backoff_base = 0.001;
  opt.backoff_cap = 0.004;
  return opt;
}

RemoteOptions remote_options(const std::string& tag, u32 hosts) {
  RemoteOptions opt;
  for (u32 h = 0; h < hosts; ++h) {
    opt.hosts.push_back(HostSpec{"fake", static_cast<u16>(4711 + h)});
  }
  opt.journal_prefix = prefix(tag);
  opt.backoff_base = 0.001;
  opt.backoff_cap = 0.004;
  return opt;
}

void remove_shards(const Coordinator& c, u32 total) {
  for (const std::string& p : c.journal_paths(total)) {
    std::filesystem::remove(p);
  }
}

/// A session whose shard already ran in-process: its frames wait in a
/// pipe whose write end is closed, so pump() drains them and sees EOF.
class PipedSession final : public Session {
 public:
  explicit PipedSession(const Dispatch& d) {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    fd_ = fds[0];
    SubmitRequest req;
    req.expect_plan_fp = d.plan_fp;
    req.shard = d.shard;
    req.shards = d.shards;
    req.heartbeat_seconds = 0.0;
    req.indices = format_index_ranges(d.missing);
    req.spec = serialize_campaign_spec(d.plan.spec);
    ShardRunner runner(req);
    runner.open_journal(d.journal);
    runner.run([&](const StatusFrame& f) {
      const std::vector<u8> bytes = encode_frame(f);
      return write_all(fds[1], bytes.data(), bytes.size());
    });
    ::close(fds[1]);
  }
  ~PipedSession() override { ::close(fd_); }

  int fd() const override { return fd_; }

  std::optional<SessionEnd> pump(
      const std::function<void(const StatusFrame&)>& on_frame) override {
    u8 buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.feed(buf, static_cast<size_t>(n));
      while (auto f = reader_.next()) {
        done_ = done_ || f->type == FrameType::kDone;
        on_frame(*f);
      }
      return std::nullopt;
    }
    return SessionEnd{done_, "EOF"};
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
  bool done_ = false;
};

/// Every shard's first launch dies on dispatch; re-dispatches run.
std::unique_ptr<Session> die_first(const Dispatch& d, std::string* why) {
  if (d.launches == 0) {
    *why = "fake death";
    return nullptr;
  }
  return std::make_unique<PipedSession>(d);
}

std::unique_ptr<Session> always_die(const Dispatch&, std::string* why) {
  *why = "fake death";
  return nullptr;
}

TEST(CoordinatorStateMachine, DeathBacksOffRedispatchesAndSplices) {
  const inject::CampaignPlan plan = pinned_plan();
  const u32 total = static_cast<u32>(plan.targets.size());

  FabricCoordinator local(fabric_options("local", 2), die_first);
  remove_shards(local, total);
  const inject::CampaignResult a = local.run(plan);
  EXPECT_EQ(inject::result_fingerprint(a), kPinnedCisca);
  EXPECT_EQ(a.executed(), total);
  EXPECT_EQ(a.fabric_worker_deaths, 2u);
  EXPECT_EQ(a.fabric_redispatches, 2u);
  EXPECT_EQ(a.fabric_backoff_waits, 2u);
  EXPECT_TRUE(a.fabric_hosts.empty());  // only the remote path reports hosts
  remove_shards(local, total);

  RemoteCoordinator remote(remote_options("remote", 2), die_first);
  remove_shards(remote, total);
  const inject::CampaignResult b = remote.run(plan);
  EXPECT_EQ(inject::result_fingerprint(b), kPinnedCisca);
  EXPECT_EQ(b.fabric_worker_deaths, 2u);
  EXPECT_EQ(b.fabric_redispatches, 2u);
  ASSERT_EQ(b.fabric_hosts.size(), 2u);
  EXPECT_EQ(b.fabric_hosts[0].host, "fake:4711");
  EXPECT_EQ(b.fabric_hosts[0].deaths + b.fabric_hosts[1].deaths, 2u);
  EXPECT_EQ(b.fabric_hosts[0].records + b.fabric_hosts[1].records, total);
  remove_shards(remote, total);
}

TEST(CoordinatorStateMachine, RetiresAfterMaxRestartsThenAbortsBelowFloor) {
  const inject::CampaignPlan plan = pinned_plan();
  FabricOptions opt = fabric_options("retire", 1);
  opt.max_restarts_per_slot = 2;
  u32 opens = 0;
  FabricCoordinator coordinator(opt, [&](const Dispatch& d, std::string* why) {
    EXPECT_EQ(d.launches, opens);  // every launch is a re-dispatch of shard 0
    ++opens;
    return always_die(d, why);
  });
  EXPECT_THROW(coordinator.run(plan), FabricError);
  EXPECT_EQ(opens, 3u);  // two restarts absorbed, the third death retires
  ASSERT_EQ(coordinator.slot_stats().size(), 1u);
  EXPECT_EQ(coordinator.slot_stats()[0].deaths, 3u);
  EXPECT_EQ(coordinator.slot_stats()[0].backoff_waits, 3u);
}

TEST(CoordinatorStateMachine, BackoffIsTheSameForBothOptionStructs) {
  // Restart k of slot 0 waits min(cap, base * 2^(k-1)) * [0.5, 1.5).
  // Each run stops at the death that retires the slot, so its backoff
  // total is a prefix sum of slot 0's wait sequence: equal prefix sums
  // for every length mean equal sequences.
  const inject::CampaignPlan plan = pinned_plan();
  double previous = 0.0;
  for (u32 restarts = 0; restarts < 4; ++restarts) {
    FabricOptions fo = fabric_options("backoff", 1);
    fo.max_restarts_per_slot = restarts;
    RemoteOptions ro = remote_options("backoff", 1);
    ro.max_restarts_per_host = restarts;
    FabricCoordinator local(fo, always_die);
    RemoteCoordinator remote(ro, always_die);
    EXPECT_THROW(local.run(plan), FabricError);
    EXPECT_THROW(remote.run(plan), FabricError);
    const double sum = local.slot_stats()[0].backoff_seconds;
    EXPECT_EQ(sum, remote.slot_stats()[0].backoff_seconds);
    const double step =
        std::min(0.004, 0.001 * static_cast<double>(1u << restarts));
    EXPECT_GE(sum - previous, 0.5 * step);
    EXPECT_LT(sum - previous, 1.5 * step);
    previous = sum;
  }
}

}  // namespace
}  // namespace kfi::fabric

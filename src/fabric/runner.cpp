#include "fabric/runner.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "fabric/shard.hpp"
#include "inject/engine.hpp"

namespace kfi::fabric {

ShardRunner::ShardRunner(SubmitRequest req, bool check_fp)
    : req_(std::move(req)) {
  if (req_.protocol != kNetProtocolVersion) {
    throw ShardError(RefuseCode::kSkew,
                     "protocol version " + std::to_string(req_.protocol) +
                         " != " + std::to_string(kNetProtocolVersion));
  }
  const auto spec = deserialize_campaign_spec(req_.spec);
  if (!spec) {
    throw ShardError(RefuseCode::kBadRequest, "spec blob does not decode");
  }
  auto indices = parse_index_ranges(req_.indices);
  if (!indices || indices->empty()) {
    throw ShardError(RefuseCode::kBadRequest,
                     "bad index ranges '" + req_.indices + "'");
  }
  indices_ = std::move(*indices);
  plan_ = inject::build_campaign_plan(*spec);
  plan_fp_ = inject::plan_fingerprint(plan_);
  if (check_fp && plan_fp_ != req_.expect_plan_fp) {
    throw ShardError(RefuseCode::kSkew,
                     "plan fingerprint skew: expected " +
                         fingerprint_hex(req_.expect_plan_fp) + ", rebuilt " +
                         fingerprint_hex(plan_fp_) +
                         " (the two binaries disagree)");
  }
  if (indices_.back() >= plan_.targets.size()) {  // indices are sorted
    throw ShardError(RefuseCode::kBadRequest,
                     "index " + std::to_string(indices_.back()) +
                         " out of range (plan has " +
                         std::to_string(plan_.targets.size()) + " targets)");
  }
}

u32 ShardRunner::open_journal(const std::string& path) {
  if (req_.fresh) std::remove(path.c_str());
  const inject::FlushPolicy flush =
      req_.flush == static_cast<u8>(inject::FlushPolicy::kFlush)
          ? inject::FlushPolicy::kFlush
          : inject::FlushPolicy::kFsync;
  try {
    journal_.emplace(inject::InjectionJournal::resume(path, plan_, flush));
  } catch (const inject::JournalError&) {
    journal_.emplace(inject::InjectionJournal::create(path, plan_, flush));
  }
  return static_cast<u32>(journal_->recovered().size());
}

bool ShardRunner::run(const FrameSink& sink) {
  // Atomics: the heartbeat thread reads while engine threads write.  One
  // slot per OutcomeCategory (wire.cpp asserts the sizes agree).
  std::array<std::atomic<u32>, kFrameOutcomeSlots> outcomes{};
  auto count = [&outcomes](inject::OutcomeCategory outcome) {
    outcomes[static_cast<size_t>(outcome)].fetch_add(
        1, std::memory_order_relaxed);
  };
  for (const inject::JournalEntry& e : journal_->recovered()) {
    count(e.record.outcome);
  }
  std::atomic<u32> done_count{
      static_cast<u32>(journal_->recovered().size())};
  auto frame = [&](FrameType type, u32 done) {
    StatusFrame f;
    f.type = type;
    f.plan_fingerprint = plan_fp_;
    f.shard = req_.shard;
    f.pid = static_cast<u32>(::getpid());
    f.done = done;
    f.total = static_cast<u32>(indices_.size());
    for (size_t i = 0; i < f.outcomes.size(); ++i) {
      f.outcomes[i] = outcomes[i].load(std::memory_order_relaxed);
    }
    return f;
  };
  std::atomic<bool> cancel{false};
  std::mutex sink_mutex;
  auto send = [&](const StatusFrame& f) {
    const std::lock_guard<std::mutex> lock(sink_mutex);
    if (!cancel.load() && !sink(f)) cancel.store(true);
  };

  send(frame(FrameType::kHello, 0));
  // The heartbeat keeps the peer's lease alive through long injections.
  // It waits on a condition variable, so stopping it (below, or by
  // unwinding) wakes it at once: the done frame is never held back by a
  // heartbeat sleep.
  std::mutex beat_mutex;
  std::condition_variable_any beat_wake;
  std::jthread heartbeat;
  if (req_.heartbeat_seconds > 0.0) {
    heartbeat = std::jthread([&](std::stop_token stop) {
      const std::chrono::duration<double> period(req_.heartbeat_seconds);
      std::unique_lock<std::mutex> lock(beat_mutex);
      while (!beat_wake.wait_for(lock, stop, period,
                                 [&stop] { return stop.stop_requested(); })) {
        lock.unlock();
        send(frame(FrameType::kHeartbeat, done_count.load()));
        lock.lock();
      }
    });
  }

  inject::RunControl control;
  control.journal = &*journal_;
  control.indices = &indices_;
  control.retries = req_.retries;
  control.stall_seconds = req_.stall_seconds;
  control.cancel = &cancel;
  control.record_observer = [&count](u32, const inject::InjectionRecord& r) {
    count(r.outcome);
  };
  const inject::CampaignResult result = inject::CampaignEngine(req_.jobs).run(
      plan_,
      [&](u32 done, u32 total) {
        done_count.store(done);
        StatusFrame f = frame(FrameType::kProgress, done);
        f.total = total;
        send(f);
      },
      control);
  heartbeat = std::jthread();  // stops and joins it
  if (result.interrupted || cancel.load()) return false;

  StatusFrame done = frame(FrameType::kDone, static_cast<u32>(indices_.size()));
  done.executed = result.journal_flushes;
  done.quarantined = result.quarantined;
  done.stalls = result.stalls;
  done.harness_retries = result.harness_retries;
  done.backoff_waits = result.retry_backoff_waits;
  done.backoff_seconds = result.retry_backoff_seconds;
  send(done);
  return !cancel.load();
}

}  // namespace kfi::fabric

#include "fabric/coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/rng.hpp"
#include "fabric/shard.hpp"

namespace kfi::fabric {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration from_seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

struct Unit {
  u32 shard = 0;
  std::vector<u32> slice;
  std::string journal;
  enum class State { kPending, kRunning, kDone } state = State::kPending;
  u32 dispatches = 0;
  /// A peer said hello for this shard: later remote dispatches resume
  /// the daemon's journal instead of starting it fresh.
  bool ever_accepted = false;
  Clock::time_point eligible_at = Clock::time_point::min();
  std::optional<StatusFrame> done_frame;
};

struct Slot {
  Rng backoff_rng{1};
  // Running-dispatch state (valid while unit != nullptr).
  Unit* unit = nullptr;
  std::unique_ptr<Session> session;
  Clock::time_point last_heard = Clock::time_point::min();
  std::string error_message;
  RemoteHostProgress view;  // shard, completed, total, outcomes
};

/// Indices of `slice` not yet carrying a successful record in the shard
/// journal at `path`.  Quarantined (harness-error) entries stay in the
/// remaining set — the engine re-executes them on resume, exactly like a
/// single-process resume would.  A missing or torn-at-frame-zero journal
/// means the whole slice remains; a journal for a different campaign is
/// a hard configuration error (FabricError).
std::vector<u32> remaining_indices(const std::string& path,
                                   const std::vector<u32>& slice,
                                   u64 want_plan_fp) {
  inject::JournalFileData data;
  try {
    data = inject::read_journal_file(path);
  } catch (const inject::JournalError&) {
    return slice;  // no usable journal yet: everything remains
  }
  if (data.plan_fingerprint != want_plan_fp) {
    throw FabricError("stale shard journal " + path +
                      " belongs to a different campaign; remove it or "
                      "choose another --journal prefix");
  }
  std::vector<u8> done;
  for (const inject::JournalEntry& e : data.entries) {
    if (e.record.outcome == inject::OutcomeCategory::kHarnessError) continue;
    if (e.index >= done.size()) done.resize(e.index + 1, 0);
    done[e.index] = 1;
  }
  std::vector<u32> remaining;
  for (const u32 i : slice) {
    if (i >= done.size() || !done[i]) remaining.push_back(i);
  }
  return remaining;
}

/// One kfi_worker subprocess running one dispatch, reporting over a pipe.
class ProcessSession final : public Session {
 public:
  ProcessSession(const FabricOptions& opt, const Dispatch& d) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw FabricError(std::string("pipe2 failed: ") + std::strerror(errno));
    }
    std::vector<std::string> args = {
        opt.worker_binary,
        "--spec", to_hex(serialize_campaign_spec(d.plan.spec)),
        "--expect-plan-fp", fingerprint_hex(d.plan_fp),
        "--indices", format_index_ranges(d.missing),
        "--journal", d.journal,
        "--shard", std::to_string(d.shard),
        "--shards", std::to_string(d.shards),
        "--status-fd", std::to_string(fds[1]),
        "--jobs", std::to_string(opt.jobs_per_worker),
        "--heartbeat", std::to_string(opt.heartbeat_seconds),
        "--retries", std::to_string(opt.retries),
        "--journal-flush",
        opt.flush == inject::FlushPolicy::kFsync ? "fsync" : "flush",
    };
    if (opt.stall_seconds > 0.0) {
      args.push_back("--stall");
      args.push_back(std::to_string(opt.stall_seconds));
    }
    if (opt.chaos_kill_after > 0 && d.launches == 0) {
      args.push_back("--chaos-kill-after");
      args.push_back(std::to_string(opt.chaos_kill_after));
    }
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw FabricError(std::string("fork failed: ") + std::strerror(errno));
    }
    if (pid_ == 0) {
      // Child: keep the write end across exec, drop everything else.
      ::fcntl(fds[1], F_SETFD, 0);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::fprintf(stderr, "fabric: exec %s failed: %s\n", argv[0],
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(fds[1]);
    fd_ = fds[0];
    if (opt.verbose) {
      std::fprintf(stderr,
                   "fabric: slot %u -> shard %u pid %d (%zu indices%s)\n",
                   d.slot, d.shard, static_cast<int>(pid_), d.missing.size(),
                   d.launches > 0 ? ", re-dispatch" : "");
    }
  }

  ~ProcessSession() override {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::close(fd_);
  }

  int fd() const override { return fd_; }

  std::optional<SessionEnd> pump(
      const std::function<void(const StatusFrame&)>& on_frame) override {
    u8 buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) return std::nullopt;
    if (n > 0) {
      reader_.feed(buf, static_cast<size_t>(n));
      while (auto frame = reader_.next()) {
        got_done_ = got_done_ || frame->type == FrameType::kDone;
        on_frame(*frame);
      }
      if (!reader_.corrupted()) return std::nullopt;
      // Garbled stream: the worker is not speaking the protocol.
      ::kill(pid_, SIGKILL);
    }
    // EOF (or a garbled stream): the worker exited or died.
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (reader_.corrupted()) return SessionEnd{false, "corrupt status stream"};
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && got_done_) {
      return SessionEnd{true, ""};
    }
    return SessionEnd{false,
                      WIFSIGNALED(status)
                          ? "signal " + std::to_string(WTERMSIG(status))
                          : "exit " + std::to_string(WEXITSTATUS(status))};
  }

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  FrameReader reader_;
  bool got_done_ = false;
};

}  // namespace

Coordinator::Coordinator(Config config, SessionOpener open)
    : cfg_(std::move(config)), open_(std::move(open)) {
  const u32 slots = static_cast<u32>(cfg_.names.size());
  cfg_.min_workers = std::clamp<u32>(cfg_.min_workers, 1, slots);
  if (cfg_.journal_prefix.empty()) {
    throw FabricError("fabric needs a journal prefix (--journal)");
  }
}

std::vector<std::string> Coordinator::journal_paths(u32 total) const {
  const u32 shards = static_cast<u32>(cfg_.names.size());
  const auto slices = shard_indices(total, shards);
  std::vector<std::string> paths;
  for (u32 s = 0; s < shards; ++s) {
    if (slices[s].empty()) continue;
    paths.push_back(shard_journal_path(cfg_.journal_prefix, s, shards));
  }
  return paths;
}

inject::CampaignResult Coordinator::run(const inject::CampaignPlan& plan,
                                        SpliceStats* stats) {
  const Clock::time_point run_start = Clock::now();
  const u32 total = static_cast<u32>(plan.targets.size());
  const u64 plan_fp = inject::plan_fingerprint(plan);
  const u32 shards = static_cast<u32>(cfg_.names.size());
  const auto slices = shard_indices(total, shards);

  std::vector<Unit> units(shards);
  std::vector<Slot> slots(shards);
  ledger_.assign(shards, inject::FabricHostStats{});
  for (u32 s = 0; s < shards; ++s) {
    units[s].shard = s;
    units[s].slice = slices[s];
    units[s].journal = shard_journal_path(cfg_.journal_prefix, s, shards);
    if (units[s].slice.empty()) units[s].state = Unit::State::kDone;
    slots[s].backoff_rng =
        Rng(plan_fp ^ 0xFABC0FFull ^ (0x9E3779B97F4A7C15ull * (s + 1)));
    ledger_[s].host = cfg_.names[s];
  }

  // A slot that absorbed more than max_restarts deaths is retired.
  auto retired = [this](u32 s) {
    return ledger_[s].deaths > cfg_.max_restarts;
  };
  auto live_slots = [&]() {
    u32 n = 0;
    for (u32 s = 0; s < shards; ++s) n += retired(s) ? 0 : 1;
    return n;
  };

  auto emit_progress = [&]() {
    if (!cfg_.progress) return;
    std::vector<RemoteHostProgress> snap;
    for (u32 s = 0; s < shards; ++s) {
      snap.push_back(slots[s].view);
      snap.back().host = cfg_.names[s];
      snap.back().connected = slots[s].session != nullptr;
      snap.back().retired = retired(s);
    }
    cfg_.progress(snap);
  };

  // End a dispatch and advance its unit's state machine: done, or a
  // death that backs off, re-enqueues, and may retire the slot.
  auto end_session = [&](u32 s, const SessionEnd& end) {
    Slot& slot = slots[s];
    Unit& unit = *slot.unit;
    slot.session.reset();
    slot.unit = nullptr;
    slot.view = {};
    if (end.done) {
      unit.state = Unit::State::kDone;
      ledger_[s].records += unit.slice.size();
      if (cfg_.verbose) {
        std::fprintf(stderr, "fabric: shard %u done (%s %s)\n", unit.shard,
                     cfg_.noun, cfg_.names[s].c_str());
      }
      emit_progress();
      return;
    }
    const u64 deaths = ++ledger_[s].deaths;
    if (cfg_.verbose) {
      std::fprintf(stderr, "fabric: %s %s lost shard %u (%s)%s%s\n",
                   cfg_.noun, cfg_.names[s].c_str(), unit.shard,
                   end.why.c_str(), slot.error_message.empty() ? "" : ": ",
                   slot.error_message.c_str());
    }
    slot.error_message.clear();
    unit.state = Unit::State::kPending;
    double wait = 0.0;
    if (cfg_.backoff_base > 0.0) {
      const double exp =
          cfg_.backoff_base *
          static_cast<double>(1ull << std::min<u64>(deaths - 1, 30));
      wait = std::min(cfg_.backoff_cap, exp) *
             (0.5 + slot.backoff_rng.next_double());
      ++ledger_[s].backoff_waits;
      ledger_[s].backoff_seconds += wait;
    }
    unit.eligible_at = Clock::now() + from_seconds(wait);
    if (retired(s)) {
      if (cfg_.verbose) {
        std::fprintf(stderr, "fabric: %s %s retired after %llu deaths\n",
                     cfg_.noun, cfg_.names[s].c_str(),
                     static_cast<unsigned long long>(deaths));
      }
      if (live_slots() < cfg_.min_workers) {
        throw FabricError("fabric degraded below --min-workers (" +
                          std::to_string(live_slots()) + " live < " +
                          std::to_string(cfg_.min_workers) +
                          "); shard journals are intact — rerun to resume");
      }
    }
  };

  auto dispatch = [&](u32 s, Unit& unit) {
    Slot& slot = slots[s];
    std::vector<u32> missing = unit.slice;
    if (cfg_.local_journals || !cfg_.fresh) {
      missing = remaining_indices(unit.journal, unit.slice, plan_fp);
      if (missing.empty()) {
        unit.state = Unit::State::kDone;
        return;
      }
    }
    ++ledger_[s].dispatches;
    const Dispatch d{plan,       plan_fp,      s,
                     unit.shard, shards,       unit.slice,
                     missing,    unit.journal, unit.dispatches,
                     cfg_.fresh && !unit.ever_accepted};
    ++unit.dispatches;
    unit.state = Unit::State::kRunning;
    slot.unit = &unit;
    slot.view.shard = unit.shard;
    slot.view.total = static_cast<u32>(unit.slice.size());
    slot.last_heard = Clock::now();
    std::string why;
    slot.session = open_(d, &why);
    if (!slot.session) end_session(s, SessionEnd{false, why});
  };

  auto on_frame = [&](Slot& slot, const StatusFrame& frame) {
    switch (frame.type) {
      case FrameType::kHello:
        if (frame.plan_fingerprint != plan_fp) {
          throw FabricError(
              "a peer rebuilt a different plan (fingerprint mismatch): "
              "coordinator and peer binaries disagree");
        }
        slot.unit->ever_accepted = true;
        break;
      case FrameType::kProgress:
      case FrameType::kHeartbeat:
        if (frame.type == FrameType::kProgress ||
            frame.done > slot.view.completed) {
          slot.view.completed = frame.done;
          slot.view.outcomes = frame.outcomes;
          emit_progress();
        }
        break;
      case FrameType::kDone:
        slot.unit->done_frame = frame;
        slot.view.completed = slot.view.total;
        slot.view.outcomes = frame.outcomes;
        emit_progress();
        break;
      case FrameType::kError:
        slot.error_message = frame.message;
        break;
    }
  };

  try {
    while (true) {
      const Clock::time_point now = Clock::now();

      // Dispatch eligible pending units to idle live slots.
      for (Unit& unit : units) {
        if (unit.state != Unit::State::kPending || unit.eligible_at > now) {
          continue;
        }
        u32 idle = 0;
        while (idle < shards &&
               (retired(idle) || slots[idle].unit != nullptr)) {
          ++idle;
        }
        if (idle == shards) break;
        dispatch(idle, unit);
      }

      bool busy = false;
      Clock::time_point deadline = now + std::chrono::milliseconds(500);
      for (const Unit& u : units) {
        busy = busy || u.state != Unit::State::kDone;
        if (u.state == Unit::State::kPending) {
          deadline = std::min(deadline, u.eligible_at);
        }
      }
      if (!busy) break;  // every unit done

      // Wait for session traffic, a lease expiry, or a backoff expiry (a
      // fabric with too few live slots to make progress has thrown).
      std::vector<pollfd> fds;
      std::vector<u32> fd_slots;
      for (u32 s = 0; s < shards; ++s) {
        if (!slots[s].session) continue;
        fds.push_back(pollfd{slots[s].session->fd(), POLLIN, 0});
        fd_slots.push_back(s);
        deadline = std::min(deadline, slots[s].last_heard +
                                          from_seconds(cfg_.lease_seconds));
      }
      const auto timeout =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now());
      const int nready =
          ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                 std::max(static_cast<int>(timeout.count()), 10));
      if (nready < 0 && errno != EINTR) {
        throw FabricError(std::string("poll failed: ") + std::strerror(errno));
      }

      for (size_t i = 0; i < fds.size(); ++i) {
        Slot& slot = slots[fd_slots[i]];
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        slot.last_heard = Clock::now();
        const auto end = slot.session->pump(
            [&](const StatusFrame& frame) { on_frame(slot, frame); });
        if (end) end_session(fd_slots[i], *end);
      }

      // Lease check: silent sessions are presumed wedged or partitioned.
      const Clock::time_point after = Clock::now();
      for (u32 s = 0; s < shards; ++s) {
        if (!slots[s].session ||
            seconds_between(slots[s].last_heard, after) <=
                cfg_.lease_seconds) {
          continue;
        }
        ++ledger_[s].lease_revocations;
        if (cfg_.verbose) {
          std::fprintf(stderr,
                       "fabric: %s %s missed its lease (%.1fs), revoking "
                       "session\n",
                       cfg_.noun, cfg_.names[s].c_str(), cfg_.lease_seconds);
        }
        end_session(s, SessionEnd{false, "lease expired"});
      }
    }
  } catch (...) {
    for (Slot& s : slots) s.session.reset();
    throw;
  }

  inject::CampaignResult result =
      splice_journals(plan, journal_paths(total), stats);
  result.fabric_workers = shards;
  for (const inject::FabricHostStats& h : ledger_) {
    result.fabric_worker_deaths += h.deaths;
    result.fabric_backoff_waits += h.backoff_waits;
    result.fabric_backoff_seconds += h.backoff_seconds;
  }
  if (!cfg_.local_journals) result.fabric_hosts = ledger_;
  for (const Unit& u : units) {
    if (u.dispatches > 1) result.fabric_redispatches += u.dispatches - 1;
    if (!u.done_frame) continue;
    result.stalls += u.done_frame->stalls;
    result.harness_retries += u.done_frame->harness_retries;
    result.retry_backoff_waits += u.done_frame->backoff_waits;
    result.retry_backoff_seconds += u.done_frame->backoff_seconds;
    result.journal_flushes += u.done_frame->executed;
  }
  result.throughput.jobs = shards * cfg_.jobs_per_slot;
  result.throughput.plan_seconds = plan.plan_seconds;
  result.throughput.run_seconds = seconds_between(run_start, Clock::now());
  result.throughput.wall_seconds =
      result.throughput.plan_seconds + result.throughput.run_seconds;
  return result;
}

FabricCoordinator::FabricCoordinator(FabricOptions options, SessionOpener open)
    : Coordinator(
          [&options]() {
            Config c(options);
            c.noun = "slot";
            for (u32 s = 0; s < std::max<u32>(options.workers, 1); ++s) {
              c.names.push_back(std::to_string(s));
            }
            c.max_restarts = options.max_restarts_per_slot;
            c.jobs_per_slot = options.jobs_per_worker;
            return c;
          }(),
          open ? std::move(open)
               : SessionOpener([options](const Dispatch& d, std::string*) {
                   return std::make_unique<ProcessSession>(options, d);
                 })) {
  if (options.worker_binary.empty()) {
    throw FabricError("fabric needs the kfi_worker binary path");
  }
}

}  // namespace kfi::fabric

// kfibench: runs one benchmark workload for a wall-clock budget and prints
// its raw samples as one JSON line on stdout (run.py derives the metrics).
//
//   kfibench --workload NAME --seed S --seconds T --trace 0|1
//            --worker PATH/kfi_worker --daemon PATH/kfi_campaignd
//            --work DIR
//
// A run is: set-up (every plan built), then rounds of the workload's
// campaigns until T seconds have passed and the latency percentiles have
// their samples.  Each plan is rebuilt after each of its
// runs, so set-up is sampled all through the run.  Every round runs the
// same campaigns, so runs differ only in how many rounds fit; the seed
// orders the campaigns inside each round.
// The campaign set itself is fixed because every campaign's result
// fingerprint is pinned.  With --trace 1 the rounds alternate untraced and
// traced, and the layer probes (probes.cpp) run afterwards.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "errnoinj/errno_model.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/remote.hpp"
#include "inject/campaign.hpp"
#include "inject/journal.hpp"
#include "kfibench.hpp"

namespace kfibench {

using namespace kfi;

i64 now_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// --- Json -------------------------------------------------------------

void Json::comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

Json& Json::begin_object() {
  comma();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::begin_array() {
  comma();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

Json& Json::key(const std::string& k) {
  str(k);
  out_ += ':';
  after_key_ = true;
  return *this;
}

Json& Json::str(const std::string& s) {
  comma();
  out_ += '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out_ += '\\';
      out_ += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out_ += buf;
    } else {
      out_ += ch;
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::num(double v) {
  comma();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

Json& Json::num(u64 v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

Json& Json::boolean(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::num_array(const std::vector<double>& v) {
  begin_array();
  for (const double x : v) num(x);
  return end_array();
}

// --- Tracer -------------------------------------------------------------

int Tracer::open(const std::string& name, const std::string& id, int parent,
                 i64 start) {
  if (!on_) return -1;
  spans_.push_back(Span{name, id, start, start, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int span, i64 end) {
  if (span >= 0) spans_[static_cast<size_t>(span)].end = end;
}

int Tracer::add(const std::string& name, const std::string& id, int parent,
                i64 start, i64 end) {
  const int span = open(name, id, parent, start);
  close(span, end);
  return span;
}

// --- Campaign runs --------------------------------------------------------

const char* path_name(Path path) {
  switch (path) {
    case Path::kEngine: return "engine";
    case Path::kFabric: return "fabric";
    case Path::kHosts: return "hosts";
  }
  return "?";
}

std::string arch_tag(isa::Arch arch) {
  return arch == isa::Arch::kCisca ? "p4" : "g4";
}

std::string journal_stem(const Env& env, const Campaign& c, Path path) {
  return env.work_dir + "/" + c.name + "." + path_name(path);
}

fabric::FabricOptions fabric_options(const Env& env,
                                     const std::string& prefix) {
  fabric::FabricOptions fo;
  fo.workers = 2;
  fo.jobs_per_worker = 1;
  fo.journal_prefix = prefix;
  fo.worker_binary = env.worker_binary;
  return fo;
}

namespace {

const char* span_name(Path path) {
  switch (path) {
    case Path::kEngine: return "inject.campaign";
    case Path::kFabric: return "fabric.local_campaign";
    case Path::kHosts: return "fabric.hosts_campaign";
  }
  return "?";
}

}  // namespace

RunRecord run_campaign(const Campaign& c, Path path, u32 jobs, bool journal,
                       const Env& env, Daemons& daemons, Tracer& tracer,
                       int parent) {
  RunRecord r;
  r.name = c.name;
  r.arch = arch_tag(c.spec.arch);
  r.path = path;
  const u32 n = static_cast<u32>(c.plan.targets.size());
  r.injections = n;
  const std::string stem = journal_stem(env, c, path);

  inject::CampaignResult result;
  i64 t0 = 0, t1 = 0;
  if (path == Path::kEngine) {
    r.jobs = jobs;
    std::optional<inject::InjectionJournal> j;
    inject::RunControl ctl;
    if (journal) {
      j.emplace(inject::InjectionJournal::create(stem + ".kfij", c.plan));
      ctl.journal = &*j;
    }
    // Both hooks are observational; the span covers the injection and its
    // journal append.  Threads join before run() returns, so the stores
    // are visible here.
    std::vector<std::atomic<i64>> start(n), end(n);
    ctl.harness_fault_hook = [&start](u32 i, u32 attempt) {
      if (attempt == 0) start[i].store(now_ns(), std::memory_order_relaxed);
    };
    ctl.record_observer = [&end](u32 i, const inject::InjectionRecord&) {
      end[i].store(now_ns(), std::memory_order_relaxed);
    };
    t0 = now_ns();
    result = inject::CampaignEngine(jobs).run(c.plan, {}, ctl);
    t1 = now_ns();
    const int span = tracer.add(span_name(path), c.name, parent, t0, t1);
    r.latency_ms.reserve(n);
    r.hang.reserve(n);
    for (u32 i = 0; i < n; ++i) {
      const i64 a = start[i].load(std::memory_order_relaxed);
      const i64 b = end[i].load(std::memory_order_relaxed);
      r.latency_ms.push_back(static_cast<double>(b - a) * 1e-6);
      r.hang.push_back(result.records[i].outcome ==
                       inject::OutcomeCategory::kHangOrUnknownCrash);
      tracer.add("inject.injection", c.name + "#" + std::to_string(i), span,
                 a, b);
    }
  } else if (path == Path::kFabric) {
    fabric::FabricCoordinator coord(fabric_options(env, stem));
    r.jobs = 2;
    for (const std::string& p : coord.journal_paths(n)) {
      std::filesystem::remove(p);
    }
    t0 = now_ns();
    result = coord.run(c.plan);
    t1 = now_ns();
    tracer.add(span_name(path), c.name, parent, t0, t1);
  } else {
    fabric::RemoteOptions ro;
    ro.hosts = daemons.hosts();
    ro.journal_prefix = stem;
    ro.fresh = true;
    ro.jobs_per_host = 1;
    fabric::RemoteCoordinator coord(ro);
    r.jobs = static_cast<u32>(ro.hosts.size());
    for (const std::string& p : coord.journal_paths(n)) {
      std::filesystem::remove(p);
    }
    daemons.pace(c.name);
    t0 = now_ns();
    result = coord.run(c.plan);
    t1 = now_ns();
    daemons.finished(c.name);
    tracer.add(span_name(path), c.name, parent, t0, t1);
  }

  r.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  r.fingerprint = inject::result_fingerprint(result);
  r.complete = !result.interrupted && result.executed() == n;
  r.quarantined = result.quarantined;
  r.retries = result.harness_retries;
  r.worker_deaths = result.fabric_worker_deaths;
  r.redispatches = result.fabric_redispatches;
  for (const inject::FabricHostStats& h : result.fabric_hosts) {
    r.worker_deaths += h.deaths;
    r.lease_revocations += h.lease_revocations;
  }
  return r;
}

// --- Daemons --------------------------------------------------------------

void Daemons::start(u32 count, const std::string& binary,
                    const std::string& dir) {
  std::vector<std::string> port_files;
  for (u32 k = 0; k < count; ++k) {
    const std::string home = dir + "/daemon" + std::to_string(k);
    std::filesystem::create_directories(home);
    const std::string port_file = home + ".port";
    const std::string log = home + ".log";
    std::filesystem::remove(port_file);
    // argv is built before fork(): the child only calls async-signal-safe
    // functions on its way to exec.
    std::vector<std::string> args = {binary, "--port",  "0", "--port-file",
                                     port_file, "--dir", home};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pids_.push_back(pid);
    port_files.push_back(port_file);
  }
  const i64 deadline = now_ns() + 10'000'000'000;
  for (const std::string& pf : port_files) {
    for (;;) {
      std::ifstream in(pf);
      unsigned port = 0;
      if (in >> port && port != 0) {
        hosts_.push_back({"127.0.0.1", static_cast<u16>(port)});
        break;
      }
      for (const pid_t pid : pids_) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          throw std::runtime_error("kfi_campaignd exited during start-up");
        }
      }
      if (now_ns() > deadline) {
        throw std::runtime_error("kfi_campaignd did not publish its port");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

void Daemons::stop() {
  for (const pid_t pid : pids_) ::kill(pid, SIGTERM);
  for (const pid_t pid : pids_) {
    const i64 deadline = now_ns() + 5'000'000'000;
    int status = 0;
    while (::waitpid(pid, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  pids_.clear();
  hosts_.clear();
  last_end_ns_.clear();
}

void Daemons::pace(const std::string& campaign) const {
  constexpr i64 kSessionLingerNs = 1'250'000'000;  // heartbeat + margin
  const auto it = last_end_ns_.find(campaign);
  if (it == last_end_ns_.end()) return;
  const i64 wait = it->second + kSessionLingerNs - now_ns();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

void Daemons::finished(const std::string& campaign) {
  last_end_ns_[campaign] = now_ns();
}

// --- Workloads --------------------------------------------------------------

namespace {

inject::CampaignSpec physical_spec(isa::Arch arch, inject::CampaignKind kind,
                                   u32 n, u64 seed) {
  inject::CampaignSpec spec;
  spec.arch = arch;
  spec.kind = kind;
  spec.injections = n;
  spec.seed = seed;
  return spec;
}

inject::CampaignSpec errno_spec(isa::Arch arch, errnoinj::ErrnoTrigger trigger,
                                u32 n, u64 seed) {
  inject::CampaignSpec spec =
      physical_spec(arch, inject::CampaignKind::kErrno, n, seed);
  spec.errno_model.syscalls = errnoinj::eligible_syscall_mask();
  spec.errno_model.trigger = trigger;
  if (trigger == errnoinj::ErrnoTrigger::kRate) spec.errno_model.rate = 2.0;
  return spec;
}


/// One workload: its campaigns, the paths each runs on every round, and
/// how the engine path runs.
struct WorkloadDef {
  std::vector<inject::CampaignSpec> specs;
  std::vector<Path> paths;
  u32 engine_jobs = 1;
  bool engine_journal = false;
};

std::optional<WorkloadDef> workload_def(const std::string& name, u32 jobs) {
  using inject::CampaignKind;
  WorkloadDef def;
  if (name == "inproc-serial") {
    // The paper's four campaign families per arch, plus the two CI
    // control campaigns whose fingerprints the repository pins.
    u64 seed = 11;
    for (const CampaignKind kind :
         {CampaignKind::kStack, CampaignKind::kRegister, CampaignKind::kData,
          CampaignKind::kCode}) {
      for (const isa::Arch arch : kArches) {
        def.specs.push_back(physical_spec(arch, kind, 24, seed));
      }
      ++seed;
    }
    for (const isa::Arch arch : kArches) {
      def.specs.push_back(physical_spec(arch, CampaignKind::kData, 16, 77));
    }
    def.paths = {Path::kEngine};
  } else if (name == "inproc-parallel-errno") {
    for (const isa::Arch arch : kArches) {
      def.specs.push_back(
          errno_spec(arch, errnoinj::ErrnoTrigger::kNth, 48, 21));
      def.specs.push_back(
          errno_spec(arch, errnoinj::ErrnoTrigger::kRate, 48, 22));
    }
    def.paths = {Path::kEngine};
    def.engine_jobs = jobs;
    def.engine_journal = true;
  } else if (name == "fabric-local") {
    // Short campaigns, so the fabric's fixed per-campaign costs dominate.
    // The fabric path alone gives the throughput and campaign times.  The
    // fabric has no per-injection hooks, so the latency samples come from
    // the same plans run in process on one engine thread, as each worker
    // runs its shard.  They have no journal, so the latency tail carries
    // no disk stalls; the fabric's own journals are timed on the fabric
    // path, and the journal append on inproc-parallel-errno.  The same
    // campaigns on the loopback daemons are not a workload: across ten
    // runs their throughput spread by up to 0.27, with the shared host's
    // phase.  The traced run's fabric probe times them.
    def.specs.push_back(fabric_probe_spec());
    def.specs.push_back(
        physical_spec(isa::Arch::kRiscf, CampaignKind::kStack, 24, 11));
    def.paths = {Path::kFabric, Path::kEngine};
  } else {
    return std::nullopt;
  }
  return def;
}

void write_run(Json& out, const RunRecord& r) {
  char fp[20];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(r.fingerprint));
  out.begin_object()
      .key("name").str(r.name)
      .key("arch").str(r.arch)
      .key("path").str(path_name(r.path))
      .key("phase").str(r.phase)
      .key("jobs").num(u64{r.jobs})
      .key("injections").num(u64{r.injections})
      .key("wall_s").num(r.wall_s)
      .key("fingerprint").str(fp)
      .key("complete").boolean(r.complete)
      .key("quarantined").num(r.quarantined)
      .key("retries").num(r.retries)
      .key("worker_deaths").num(r.worker_deaths)
      .key("redispatches").num(r.redispatches)
      .key("lease_revocations").num(r.lease_revocations)
      .key("latency_ms").num_array(r.latency_ms)
      .key("hang").begin_array();
  for (const bool h : r.hang) out.num(u64{h ? 1u : 0u});
  out.end_array().end_object();
}

void write_spans(Json& out, const std::vector<Span>& spans) {
  out.begin_array();
  for (const Span& s : spans) {
    out.begin_object()
        .key("name").str(s.name)
        .key("id").str(s.id)
        .key("start").num(static_cast<double>(s.start) * 1e-9)
        .key("end").num(static_cast<double>(s.end) * 1e-9)
        .key("parent").num(static_cast<double>(s.parent))
        .end_object();
  }
  out.end_array();
}

/// Resident kB of `pid` from /proc/<pid>/statm (0 once it has exited).
u64 rss_kb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/statm");
  u64 size = 0, resident = 0;
  if (!(in >> size >> resident)) return 0;
  return resident * static_cast<u64>(::sysconf(_SC_PAGESIZE)) / 1024;
}

/// This process's own resident high-water mark (VmHWM, kB).
u64 self_hwm_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(&line[6], nullptr, 10);
  }
  return 0;
}

/// Samples the resident set of this process plus its child processes
/// (kfi_worker, kfi_campaignd) every 10 ms and keeps the largest sum.
/// Sampling is needed because a child's own high-water mark is gone once
/// it exits, and its rusage counts the pages it shared with the benchmark
/// at fork.
class TreeRssSampler {
 public:
  TreeRssSampler() = default;
  ~TreeRssSampler() { stop(); }
  TreeRssSampler(const TreeRssSampler&) = delete;
  TreeRssSampler& operator=(const TreeRssSampler&) = delete;

  void start() {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        peak_kb_ = std::max(peak_kb_, sample());
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  /// Joins the sampler; the largest sample so far, in kB.
  u64 stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return peak_kb_;
  }

 private:
  static u64 sample() {
    const std::string self = std::to_string(::getpid());
    u64 kb = rss_kb(self);
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc", ec)) {
      const std::string pid = entry.path().filename().string();
      if (pid.empty() || pid.find_first_not_of("0123456789") !=
                             std::string::npos) {
        continue;
      }
      std::ifstream in("/proc/" + pid + "/stat");
      std::string stat;
      std::getline(in, stat);
      // Field 4, after the parenthesised command name, is the parent pid.
      const size_t close = stat.rfind(')');
      if (close == std::string::npos) continue;
      char state = 0;
      long ppid = 0;
      if (std::sscanf(stat.c_str() + close + 1, " %c %ld", &state, &ppid) ==
              2 &&
          std::to_string(ppid) == self) {
        kb += rss_kb(pid);
      }
    }
    return kb;
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;
  u64 peak_kb_ = 0;  // written by the sampler thread, read after join
};

int run(int argc, char** argv) {
  std::string workload, seconds_text = "10";
  u64 seed = 1;
  bool trace = false;
  Env env;
  const char* usage =
      "usage: kfibench --workload W --seed S --seconds T --trace 0|1 "
      "--worker BIN --daemon BIN --work DIR";
  if (argc % 2 == 0) throw std::runtime_error(usage);
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds_text = value;
    else if (flag == "--trace") trace = value == "1";
    else if (flag == "--worker") env.worker_binary = value;
    else if (flag == "--daemon") env.daemon_binary = value;
    else if (flag == "--work") env.work_dir = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  const double seconds = std::strtod(seconds_text.c_str(), nullptr);
  if (env.worker_binary.empty() || env.daemon_binary.empty() ||
      env.work_dir.empty() || !(seconds > 0.0)) {
    throw std::runtime_error(usage);
  }
  // One core stays free for the host's own work (this process's main
  // thread, the journal's fsync, the system), so the engine threads are
  // not preempted mid-injection.
  env.jobs = std::clamp(inject::CampaignEngine::resolve_jobs(0) - 1, 1u, 4u);
  const std::optional<WorkloadDef> def = workload_def(workload, env.jobs);
  if (!def) throw std::runtime_error("unknown workload " + workload);

  now_ns();  // t0
  // Only fabric-local has child processes in the timed run.
  TreeRssSampler tree_rss;
  if (def->paths.front() != Path::kEngine) tree_rss.start();
  Tracer tracer(trace);
  Tracer off(false);
  const int root = tracer.open("bench.run", workload, -1, now_ns());

  // Set-up: every plan built.  Each plan is built again after each of its
  // runs in the rounds below, outside the timed span, and the next run
  // uses the new plan, so the pinned fingerprints check every build.
  // Set-up time is thereby sampled across the whole run rather than in
  // one burst at its start, which a slow phase of the host could cover
  // entirely.  Traced runs also start the two loopback daemons their
  // fabric probe uses.
  std::vector<std::vector<double>> plan_s(def->specs.size());
  std::vector<Campaign> campaigns;
  Daemons daemons;
  {
    Scope setup(tracer, "bench.setup", "", root);
    for (const inject::CampaignSpec& spec : def->specs) {
      Scope plan(tracer, "inject.plan", campaign_name(spec), setup.id());
      campaigns.push_back({campaign_name(spec), spec,
                           inject::build_campaign_plan(spec)});
      plan_s[campaigns.size() - 1].push_back(plan.stop());
    }
    if (trace) {
      Scope start(tracer, "fabric.daemon_start", "", setup.id());
      daemons.start(2, env.daemon_binary, env.work_dir);
    }
  }

  // Timed rounds.  Traced runs alternate untraced and traced rounds so the
  // tracing overhead is measured inside the run.
  struct Item {
    u32 campaign;
    Path path;
  };
  std::vector<Item> items;
  for (u32 c = 0; c < campaigns.size(); ++c) {
    for (const Path p : def->paths) items.push_back({c, p});
  }
  // inj_ms_p95 needs ten samples beyond it, so rounds go on past the
  // budget until there are that many: a slower simulator is measured as
  // slower, never reported short of samples.
  constexpr size_t kMinLatencySamples = 200;
  size_t latency_samples = 0;
  Rng order(seed);
  std::vector<RunRecord> runs;
  const i64 loop_start = now_ns();
  const i64 budget = static_cast<i64>(seconds * 1e9);
  for (u32 round = 0;; ++round) {
    for (size_t i = items.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(items[i - 1], items[order.below(i)]);
    }
    const bool traced = trace && round % 2 == 1;
    const char* phase = !trace ? "timed" : traced ? "traced" : "untraced";
    Scope scope(tracer, traced ? "bench.traced_round" : "bench.untraced_round",
                std::to_string(round), root);
    for (const Item& it : items) {
      Campaign& c = campaigns[it.campaign];
      RunRecord r = run_campaign(c, it.path, def->engine_jobs,
                                 def->engine_journal, env, daemons,
                                 traced ? tracer : off, scope.id());
      r.phase = phase;
      latency_samples += r.latency_ms.size();
      runs.push_back(std::move(r));
      Scope plan(tracer, "inject.plan", c.name, scope.id());
      c.plan = inject::build_campaign_plan(c.spec);
      plan_s[it.campaign].push_back(plan.stop());
    }
    scope.stop();
    if (now_ns() - loop_start >= budget &&
        latency_samples >= kMinLatencySamples && (!trace || round >= 1)) {
      break;
    }
  }
  const u64 peak_kb = std::max(self_hwm_kb(), tree_rss.stop());

  Json out;
  out.begin_object()
      .key("workload").str(workload)
      .key("seed").num(seed)
      .key("jobs").num(u64{env.jobs})
      .key("plan_s").begin_array();
  for (const std::vector<double>& v : plan_s) out.num_array(v);
  out.end_array();

  if (trace) {
    // Serial reference for parallel efficiency: the engine campaigns once
    // more at one thread.
    if (def->engine_jobs > 1) {
      Scope ref(tracer, "bench.serial_reference", "", root);
      for (const Campaign& c : campaigns) {
        RunRecord r = run_campaign(c, Path::kEngine, 1, def->engine_journal,
                                   env, daemons, tracer, ref.id());
        r.phase = "serial_ref";
        runs.push_back(std::move(r));
      }
    }
    run_layer_probes(env, daemons, tracer, root, runs, out);
  }
  tracer.close(root, now_ns());

  daemons.stop();
  out.key("peak_rss_mb").num(static_cast<double>(peak_kb) / 1024.0);

  out.key("runs").begin_array();
  for (const RunRecord& r : runs) write_run(out, r);
  out.end_array();
  if (trace) {
    out.key("spans");
    write_spans(out, tracer.spans());
  }
  out.end_object();
  std::fwrite(out.text().data(), 1, out.text().size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace

std::string campaign_name(const inject::CampaignSpec& spec) {
  std::string kind = inject::campaign_kind_name(spec.kind);
  if (spec.kind == inject::CampaignKind::kErrno) {
    kind += spec.errno_model.trigger == errnoinj::ErrnoTrigger::kRate
                ? "-rate"
                : "-nth";
  }
  return arch_tag(spec.arch) + "-" + kind + "-n" +
         std::to_string(spec.injections) + "-s" + std::to_string(spec.seed);
}

inject::CampaignSpec fabric_probe_spec() {
  return physical_spec(isa::Arch::kCisca, inject::CampaignKind::kStack, 24,
                       11);
}


}  // namespace kfibench

int main(int argc, char** argv) {
  try {
    return kfibench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kfibench: %s\n", e.what());
    return 1;
  }
}

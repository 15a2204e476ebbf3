// kfibench: the campaign benchmark's measuring side.
//
// The binary measures and reports raw samples; run.py turns them into the
// named metrics of BENCHMARK.json, checks fingerprints and exact counts
// against pins.json, and prints the result line.  Everything here times
// calls into kfisim's public API from the outside: no span lives inside
// the simulator.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/net.hpp"
#include "inject/engine.hpp"
#include "inject/plan.hpp"

namespace kfibench {

using kfi::i64;
using kfi::u32;
using kfi::u64;

/// Nanoseconds on the steady clock since the first call (the run's t0).
i64 now_ns();

/// Minimal streaming JSON writer: commas and nesting are tracked, so call
/// sites read like the document they produce.
class Json {
 public:
  Json& begin_object();
  Json& end_object();
  Json& begin_array();
  Json& end_array();
  Json& key(const std::string& k);
  Json& str(const std::string& s);
  Json& num(double v);
  Json& num(u64 v);
  Json& boolean(bool v);
  Json& num_array(const std::vector<double>& v);
  const std::string& text() const { return out_; }

 private:
  void comma();
  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// One recorded span: [start, end] in ns since t0; parent is an index
/// into the same vector (-1 for the root); id names the campaign or
/// injection it belongs to.
struct Span {
  std::string name;
  std::string id;
  i64 start = 0;
  i64 end = 0;
  int parent = -1;
};

/// In-memory span store for the traced run.  Disabled tracers record
/// nothing and hand out -1, so untraced code paths call it unconditionally.
/// Spans are written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  int open(const std::string& name, const std::string& id, int parent,
           i64 start);
  void close(int span, i64 end);
  /// Record a span whose times were taken elsewhere (worker-thread hooks).
  int add(const std::string& name, const std::string& id, int parent,
          i64 start, i64 end);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Times a scope and records it as a span (when the tracer is on).
/// stop() ends it early and returns its duration in seconds.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, const std::string& id,
        int parent)
      : tracer_(tracer),
        start_(now_ns()),
        span_(tracer.open(name, id, parent, start_)) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return span_; }
  double stop() {
    if (!stopped_) {
      end_ = now_ns();
      tracer_.close(span_, end_);
      stopped_ = true;
    }
    return static_cast<double>(end_ - start_) * 1e-9;
  }

 private:
  Tracer& tracer_;
  i64 start_;
  int span_;
  i64 end_ = 0;
  bool stopped_ = false;
};

/// Both modelled processors: P4 (cisca) and G4 (riscf).
constexpr kfi::isa::Arch kArches[] = {kfi::isa::Arch::kCisca,
                                      kfi::isa::Arch::kRiscf};

/// A pinned campaign of a workload: its name keys pins.json.
struct Campaign {
  std::string name;
  kfi::inject::CampaignSpec spec;
  kfi::inject::CampaignPlan plan;
};

/// How one campaign run reaches the engine.
enum class Path { kEngine, kFabric, kHosts };
const char* path_name(Path path);

/// Loopback kfi_campaignd daemons owned by the benchmark: started with an
/// ephemeral port, stopped (SIGTERM, then waited for) on destruction.
/// Each child also gets SIGTERM if the benchmark itself dies.
class Daemons {
 public:
  Daemons() = default;
  ~Daemons() { stop(); }
  Daemons(const Daemons&) = delete;
  Daemons& operator=(const Daemons&) = delete;

  void start(u32 count, const std::string& binary, const std::string& dir);
  void stop();
  const std::vector<kfi::fabric::HostSpec>& hosts() const { return hosts_; }

  /// A daemon holds a shard's session key until the session's heartbeat
  /// thread next wakes: up to one heartbeat period (1 s) after the client
  /// already has the journal.  A resubmission of the same plan inside that
  /// window is refused as busy, which the client counts as a death and a
  /// redispatch.  pace() sleeps out the window for `campaign` (outside any
  /// timed span); finished() records when its hosts run ended.
  void pace(const std::string& campaign) const;
  void finished(const std::string& campaign);

 private:
  std::vector<pid_t> pids_;
  std::vector<kfi::fabric::HostSpec> hosts_;
  std::map<std::string, i64> last_end_ns_;
};

/// Paths and parallelism the run was given.
struct Env {
  std::string worker_binary;
  std::string daemon_binary;
  std::string work_dir;
  u32 jobs = 1;  // engine threads for the parallel paths (nproc - 1, <= 4)
};

/// One finished campaign run, as reported to run.py.
struct RunRecord {
  std::string name;
  std::string arch;
  Path path = Path::kEngine;
  std::string phase;  // timed, untraced, traced, serial_ref or probe
  u32 jobs = 1;
  u32 injections = 0;
  double wall_s = 0.0;
  u64 fingerprint = 0;
  bool complete = false;
  u64 quarantined = 0;
  u64 retries = 0;
  u64 worker_deaths = 0;
  u64 redispatches = 0;
  u64 lease_revocations = 0;
  /// Engine path only: per-injection latency (harness_fault_hook(i, 0) to
  /// record_observer(i)) and whether the injection ended as a hang.
  std::vector<double> latency_ms;
  std::vector<bool> hang;
};

/// Run one campaign on `path`.  Engine runs use `jobs` threads and, when
/// `journal` is set, a fresh fsync'd journal in the work directory.
/// Injection spans are recorded under `parent` when the tracer is on.
RunRecord run_campaign(const Campaign& c, Path path, u32 jobs, bool journal,
                       const Env& env, Daemons& daemons, Tracer& tracer,
                       int parent);

/// The traced run's layer probes: plan building, fault-free replay per
/// arch, journal appends, and the fabric paths against the in-process
/// engine.  Appends probe campaign runs to `runs` and writes the
/// "samples"/"counts" members into `out`.
void run_layer_probes(const Env& env, Daemons& daemons, Tracer& tracer,
                      int root, std::vector<RunRecord>& runs, Json& out);

/// The campaign every workload's fabric probe runs (also the P4 campaign
/// of fabric-local).
kfi::inject::CampaignSpec fabric_probe_spec();

/// A campaign's pins.json name, e.g. "p4-stack-n24-s11".
std::string campaign_name(const kfi::inject::CampaignSpec& spec);

/// "p4" / "g4": the paper's names for the two modelled processors.
std::string arch_tag(kfi::isa::Arch arch);

/// Journal path prefix of one campaign run on `path`.
std::string journal_stem(const Env& env, const Campaign& c, Path path);

/// The local fabric the benchmark runs: two kfi_worker subprocesses with
/// one engine thread each and fsync'd shard journals.
kfi::fabric::FabricOptions fabric_options(const Env& env,
                                          const std::string& prefix);

}  // namespace kfibench

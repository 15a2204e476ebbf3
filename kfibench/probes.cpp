// The traced run's layer probes.  Each probe calls one layer's public
// functions from here, on objects the benchmark owns, so the layer split
// needs no instrumentation inside the simulator:
//   * plan:    kernel image codegen, workload calibration and profiling;
//   * replay:  the fault-free loop calibrate_workload runs (restore ->
//              Workload::next -> Machine::syscall -> Workload::check) on a
//              copy-on-write worker machine per arch, with the CPU and
//              memory counters read around it;
//   * fabric:  one plan re-planned as a worker does, then run in process,
//              on the local fabric and on the loopback daemons, spliced,
//              and its journal re-appended entry by entry.
// Times go out as per-repetition samples (run.py takes medians); counts
// are exact and run.py checks them against pins.json.
#include <filesystem>
#include <map>

#include "fabric/splice.hpp"
#include "fabric/wire.hpp"
#include "inject/journal.hpp"
#include "kernel/machine.hpp"
#include "kfibench.hpp"
#include "workload/profiler.hpp"
#include "workload/workload.hpp"

namespace kfibench {

using namespace kfi;

namespace {

using Samples = std::map<std::string, std::vector<double>>;
using Counts = std::map<std::string, double>;

const char* cpu_layer(isa::Arch arch) {
  return arch == isa::Arch::kCisca ? "cisca" : "riscf";
}

inject::CampaignSpec replay_spec(isa::Arch arch) {
  inject::CampaignSpec spec = fabric_probe_spec();
  spec.arch = arch;
  return spec;
}

/// Kernel image, calibration and profile, timed separately for both
/// arches; each repetition's sample is the sum over the arches.
void plan_probe(Tracer& tracer, int parent, Samples& samples) {
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    double image_s = 0.0, calibrate_s = 0.0, profile_s = 0.0;
    for (const isa::Arch arch : kArches) {
      const inject::CampaignSpec spec = replay_spec(arch);
      const std::string id = cpu_layer(arch);
      kir::ImagePtr image;
      {
        Scope s(tracer, "kir.image", id, parent);
        image = kernel::build_shared_kernel_image(arch,
                                                  spec.machine.spinlock_debug);
        image_s += s.stop();
      }
      kernel::Machine machine(arch, inject::campaign_machine_options(spec),
                              image);
      auto wl = workload::make_suite(spec.workload_scale);
      {
        Scope s(tracer, "inject.calibrate", id, parent);
        inject::calibrate_workload(machine, *wl, spec.seed);
        calibrate_s += s.stop();
      }
      {
        Scope s(tracer, "inject.profile", id, parent);
        workload::profile_hot_functions(machine, *wl, 0.95, spec.seed);
        profile_s += s.stop();
      }
    }
    samples["kir.image_ms"].push_back(image_s * 1e3);
    samples["inject.calibrate_ms"].push_back(calibrate_s * 1e3);
    samples["inject.profile_ms"].push_back(profile_s * 1e3);
  }
}

/// Instructions the CPU has retired: superblock instructions plus
/// single-step decode-cache lookups (block builds use plain decode(), so
/// they are not counted twice).
u64 insns(const isa::CpuCore& cpu) {
  const isa::DecodeCacheStats dc = cpu.decode_cache_stats();
  return cpu.superblock_stats().block_insns + dc.hits + dc.misses;
}

/// One fault-free replay machine: a worker-style machine booted from a
/// donor's snapshot, as the engine builds them.
struct Replay {
  isa::Arch arch;
  inject::CampaignSpec spec;
  kir::ImagePtr image;
  kernel::Machine donor;
  kernel::Machine machine;
  std::unique_ptr<workload::Workload> wl;

  explicit Replay(isa::Arch a)
      : arch(a),
        spec(replay_spec(a)),
        image(kernel::build_shared_kernel_image(a,
                                                spec.machine.spinlock_debug)),
        donor(a, inject::campaign_machine_options(spec), image),
        machine(a, inject::campaign_machine_options(spec), image,
                donor.boot_snapshot()),
        wl(workload::make_suite(spec.workload_scale)) {}
};

void replay_probe(Tracer& tracer, int parent, Samples& samples,
                  Counts& counts) {
  constexpr int kReps = 8;
  std::vector<std::unique_ptr<Replay>> replays;
  struct Start {
    isa::SuperblockStats sb;
    isa::DecodeCacheStats dc;
  };
  std::vector<Start> before;
  for (const isa::Arch arch : kArches) {
    replays.push_back(std::make_unique<Replay>(arch));
    isa::CpuCore& cpu = replays.back()->machine.cpu();
    before.push_back({cpu.superblock_stats(), cpu.decode_cache_stats()});
  }
  u64 syscalls = 0, reboot_pages = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    i64 reboot_ns = 0, syscall_ns = 0, glue_ns = 0;
    u64 calls = 0;
    for (auto& rp : replays) {
      kernel::Machine& m = rp->machine;
      const std::string id = std::string(cpu_layer(rp->arch)) + "#" +
                             std::to_string(rep);
      Scope replay(tracer, "bench.replay", id, parent);
      const i64 r0 = now_ns();
      m.restore(m.boot_snapshot());
      const i64 r1 = now_ns();
      tracer.add("kernel.reboot", id, replay.id(), r0, r1);
      reboot_ns += r1 - r0;
      reboot_pages += m.space().phys().last_restore_pages();
      rp->wl->reset(rp->spec.seed);
      const u64 insns0 = insns(m.cpu());
      i64 arch_syscall_ns = 0;
      for (;;) {
        const i64 t0 = now_ns();
        const auto req = rp->wl->next(m);
        const i64 t1 = now_ns();
        tracer.add("workload.next", id, replay.id(), t0, t1);
        glue_ns += t1 - t0;
        if (!req) break;
        const kernel::Event ev = m.syscall(req->nr, req->a0, req->a1, req->a2);
        const i64 t2 = now_ns();
        tracer.add("kernel.syscall", id, replay.id(), t1, t2);
        if (ev.kind != kernel::EventKind::kSyscallDone) {
          throw std::runtime_error("fault-free replay crashed");
        }
        const bool ok = rp->wl->check(m, ev.ret);
        const i64 t3 = now_ns();
        tracer.add("workload.check", id, replay.id(), t2, t3);
        if (!ok) throw std::runtime_error("fault-free replay failed a check");
        arch_syscall_ns += t2 - t1;
        glue_ns += t3 - t2;
        ++calls;
      }
      if (!rp->wl->final_check(m)) {
        throw std::runtime_error("fault-free replay failed final validation");
      }
      syscall_ns += arch_syscall_ns;
      samples[std::string(cpu_layer(rp->arch)) + ".ns_per_insn"].push_back(
          static_cast<double>(arch_syscall_ns) /
          static_cast<double>(insns(m.cpu()) - insns0));
    }
    syscalls += calls;
    const double n = static_cast<double>(calls);
    samples["kernel.reboot_us"].push_back(
        static_cast<double>(reboot_ns) * 1e-3 / 2.0);
    samples["kernel.syscall_us"].push_back(static_cast<double>(syscall_ns) *
                                           1e-3 / n);
    samples["workload.glue_us"].push_back(static_cast<double>(glue_ns) *
                                          1e-3 / n);
  }
  counts["kernel.syscalls"] = static_cast<double>(syscalls);
  counts["kernel.reboot_pages"] = static_cast<double>(reboot_pages);
  u64 private_pages = 0;
  for (size_t k = 0; k < replays.size(); ++k) {
    kernel::Machine& m = replays[k]->machine;
    const std::string layer = cpu_layer(replays[k]->arch);
    const isa::SuperblockStats sb = m.cpu().superblock_stats();
    const isa::DecodeCacheStats dc = m.cpu().decode_cache_stats();
    const u64 block_insns = sb.block_insns - before[k].sb.block_insns;
    const u64 steps = dc.hits + dc.misses - before[k].dc.hits -
                      before[k].dc.misses;
    const u64 dispatches = sb.dispatches - before[k].sb.dispatches;
    counts[layer + ".insns"] = static_cast<double>(block_insns + steps);
    counts[layer + ".block_builds"] =
        static_cast<double>(sb.misses - before[k].sb.misses);
    counts[layer + ".block_invalidations"] =
        static_cast<double>(sb.invalidations - before[k].sb.invalidations);
    counts[layer + ".step_fallbacks"] = static_cast<double>(steps);
    counts[layer + ".mean_block_len"] =
        dispatches == 0 ? 0.0
                        : static_cast<double>(block_insns) /
                              static_cast<double>(dispatches);
    private_pages =
        std::max<u64>(private_pages, m.space().phys().private_pages());
  }
  counts["mem.private_pages_per_worker"] = static_cast<double>(private_pages);
}

/// Re-plan as a fabric worker does, run the plan on every path, splice the
/// local fabric's shards, and re-append the in-process journal.
void fabric_probe(const Env& env, Daemons& daemons, Tracer& tracer,
                  int parent, std::vector<RunRecord>& runs, Samples& samples,
                  Counts& counts) {
  constexpr int kReps = 3;
  const inject::CampaignSpec spec = fabric_probe_spec();
  Campaign c{campaign_name(spec), spec, {}};
  for (int rep = 0; rep < kReps; ++rep) {
    Scope s(tracer, "fabric.replan", c.name, parent);
    const std::optional<inject::CampaignSpec> wire =
        fabric::deserialize_campaign_spec(fabric::serialize_campaign_spec(spec));
    if (!wire) throw std::runtime_error("spec blob did not round-trip");
    c.plan = inject::build_campaign_plan(*wire);
    samples["fabric.replan_ms"].push_back(s.stop() * 1e3);
  }

  for (int rep = 0; rep < kReps; ++rep) {
    RunRecord ref = run_campaign(c, Path::kEngine, 2, true, env, daemons,
                                 tracer, parent);
    RunRecord local = run_campaign(c, Path::kFabric, 2, true, env, daemons,
                                   tracer, parent);
    RunRecord hosts = run_campaign(c, Path::kHosts, 2, true, env, daemons,
                                   tracer, parent);
    samples["fabric.local_overhead_s"].push_back(local.wall_s - ref.wall_s);
    samples["fabric.remote_overhead_s"].push_back(hosts.wall_s - ref.wall_s);
    for (RunRecord* r : {&ref, &local, &hosts}) {
      r->phase = "probe";
      runs.push_back(std::move(*r));
    }
  }

  const fabric::FabricCoordinator coord(
      fabric_options(env, journal_stem(env, c, Path::kFabric)));
  const std::vector<std::string> shards =
      coord.journal_paths(static_cast<u32>(c.plan.targets.size()));
  u64 bytes = 0;
  for (const std::string& p : shards) bytes += std::filesystem::file_size(p);
  counts["fabric.journal_bytes"] = static_cast<double>(bytes);
  for (int rep = 0; rep < kReps; ++rep) {
    Scope s(tracer, "fabric.splice", c.name, parent);
    fabric::splice_journal_files(shards, env.work_dir + "/spliced.kfij");
    samples["fabric.splice_ms"].push_back(s.stop() * 1e3);
  }

  // Journal appends: the in-process run's entries, appended again to fresh
  // fsync'd journals, enough times for a p95 with ten samples beyond it.
  constexpr int kJournalPasses = 9;
  const inject::JournalFileData data =
      inject::read_journal_file(journal_stem(env, c, Path::kEngine) + ".kfij");
  u64 flushes = 0;
  std::vector<double>& append_us = samples["inject.journal_append_us"];
  for (int pass = 0; pass < kJournalPasses; ++pass) {
    inject::InjectionJournal j = inject::InjectionJournal::create(
        env.work_dir + "/append-probe.kfij", c.plan);
    for (const inject::JournalEntry& e : data.entries) {
      const i64 t0 = now_ns();
      j.append(e);
      const i64 t1 = now_ns();
      tracer.add("inject.journal_append",
                 c.name + "#" + std::to_string(e.index), parent, t0, t1);
      append_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    flushes += j.flushes();
  }
  counts["inject.journal_flushes"] = static_cast<double>(flushes);
}

}  // namespace

void run_layer_probes(const Env& env, Daemons& daemons, Tracer& tracer,
                      int root, std::vector<RunRecord>& runs, Json& out) {
  Samples samples;
  Counts counts;
  {
    Scope probes(tracer, "bench.probes", "", root);
    plan_probe(tracer, probes.id(), samples);
    replay_probe(tracer, probes.id(), samples, counts);
    fabric_probe(env, daemons, tracer, probes.id(), runs, samples, counts);
  }
  out.key("samples").begin_object();
  for (const auto& [name, values] : samples) out.key(name).num_array(values);
  out.end_object();
  out.key("counts").begin_object();
  for (const auto& [name, value] : counts) out.key(name).num(value);
  out.end_object();
}

}  // namespace kfibench

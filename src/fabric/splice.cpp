#include "fabric/splice.hpp"

#include <cstring>
#include <fstream>
#include <optional>

#include "errnoinj/errno_model.hpp"
#include "fabric/codec.hpp"
#include "inject/fault_model.hpp"
#include "inject/plan.hpp"

namespace kfi::fabric {

namespace {

constexpr u32 kJournalMagic = 0x4B46494A;  // "KFIJ" (journal.cpp's framing)
constexpr u32 kEntryMagic = 0x4B464945;    // "KFIE"

using codec::fnv1a;
using codec::put32;
using codec::put64;

/// FNV over every field of an entry that enters the result fingerprint
/// or the campaign merge.  Two entries for the same index must agree on
/// this digest (determinism guarantees records depend only on
/// (plan, index)); observational blocks (propagation) are deliberately
/// excluded so a traced and an untraced worker's records still splice.
u64 entry_core_digest(const inject::JournalEntry& e) {
  std::vector<u8> bytes;
  auto mix = [&bytes](u64 v) { put64(bytes, v); };
  const inject::InjectionRecord& r = e.record;
  mix(e.index);
  mix(static_cast<u64>(r.outcome));
  mix(r.activated ? 1 : 0);
  mix(r.activation_cycle);
  mix(r.latency_base_cycle);
  mix(r.cycles_to_crash);
  mix(r.crashed ? 1 : 0);
  mix(r.crash_report_received ? 1 : 0);
  mix(static_cast<u64>(r.crash.cause));
  mix(r.crash.pc);
  mix(r.syscalls_completed);
  if (r.cascade_valid) {
    mix(0xCA5CADEull);
    mix(r.cascade.forced);
    mix(r.cascade.deviating_ops);
    mix(r.cascade.cascade_length);
    mix(static_cast<u64>(r.cascade.containment));
  }
  mix(e.reboots);
  mix(e.datagrams_sent);
  mix(e.datagrams_dropped);
  mix(e.simulated_cycles);
  return fnv1a(bytes.data(), bytes.size());
}

bool is_quarantined(const inject::JournalEntry& e) {
  return e.record.outcome == inject::OutcomeCategory::kHarnessError;
}

/// Shared dedup core: fold `entries` into the per-index choice table.
void choose_entries(std::vector<std::optional<inject::JournalEntry>>& chosen,
                    std::vector<inject::JournalEntry>&& entries,
                    const std::string& path, SpliceStats& stats) {
  for (inject::JournalEntry& e : entries) {
    ++stats.entries;
    std::optional<inject::JournalEntry>& slot = chosen[e.index];
    if (!slot.has_value()) {
      slot = std::move(e);
      continue;
    }
    ++stats.duplicates;
    if (is_quarantined(*slot) && !is_quarantined(e)) {
      slot = std::move(e);  // a real record supersedes a harness error
      continue;
    }
    if (!is_quarantined(*slot) && !is_quarantined(e) &&
        entry_core_digest(*slot) != entry_core_digest(e)) {
      throw inject::JournalError(
          "shard journals disagree at index " + std::to_string(e.index) +
          " (" + path + "): the shard set mixes campaigns");
    }
  }
}

}  // namespace

inject::CampaignResult splice_journals(const inject::CampaignPlan& plan,
                                       const std::vector<std::string>& paths,
                                       SpliceStats* stats_out) {
  SpliceStats stats;
  const u32 total = static_cast<u32>(plan.targets.size());
  std::vector<std::optional<inject::JournalEntry>> chosen(total);

  const u64 want_plan = inject::plan_fingerprint(plan);
  const u64 want_model = inject::fault_model_fingerprint(plan.spec.model);
  const u64 want_errno =
      errnoinj::errno_model_fingerprint(plan.spec.errno_model);

  for (const std::string& path : paths) {
    inject::JournalFileData data = inject::read_journal_file(path);
    if (data.plan_fingerprint != want_plan) {
      throw inject::JournalError("shard journal " + path +
                                 " was written for a different campaign "
                                 "plan (fingerprint mismatch)");
    }
    if (data.version >= inject::kJournalVersionV3 &&
        data.fault_model_fingerprint != want_model) {
      throw inject::JournalError("shard journal " + path +
                                 " was written for a different fault model");
    }
    if (data.version >= inject::kJournalVersion &&
        data.errno_model_fingerprint != want_errno) {
      throw inject::JournalError("shard journal " + path +
                                 " was written for a different errno model");
    }
    if (data.total != total) {
      throw inject::JournalError(
          "shard journal " + path + " expects " + std::to_string(data.total) +
          " targets, plan has " + std::to_string(total));
    }
    ++stats.files;
    choose_entries(chosen, std::move(data.entries), path, stats);
  }

  inject::CampaignResult result;
  result.spec = plan.spec;
  result.nominal_cycles = plan.nominal_cycles;
  result.kernel_fraction = plan.kernel_fraction;
  result.hot_functions = plan.hot_functions;
  result.records.resize(total);
  result.done_mask.assign(total, 0);
  for (u32 i = 0; i < total; ++i) {
    if (!chosen[i].has_value()) {
      ++stats.missing;
      result.interrupted = true;
      continue;
    }
    const inject::JournalEntry& e = *chosen[i];
    result.records[i] = e.record;
    result.done_mask[i] = 1;
    result.reboots += e.reboots;
    result.datagrams_sent += e.datagrams_sent;
    result.datagrams_dropped += e.datagrams_dropped;
    result.throughput.simulated_cycles += e.simulated_cycles;
    ++stats.chosen;
    if (is_quarantined(e)) {
      ++stats.quarantined;
      ++result.quarantined;
    }
  }
  result.resumed_records = stats.chosen;
  result.fabric_spliced_duplicates = stats.duplicates;
  if (stats_out != nullptr) *stats_out = stats;
  return result;
}

SpliceStats splice_journal_files(const std::vector<std::string>& paths,
                                 const std::string& out_path) {
  if (paths.empty()) {
    throw inject::JournalError("splice needs at least one shard journal");
  }
  SpliceStats stats;
  std::optional<inject::JournalFileData> first;
  std::vector<std::optional<inject::JournalEntry>> chosen;
  for (const std::string& path : paths) {
    inject::JournalFileData data = inject::read_journal_file(path);
    if (!first.has_value()) {
      first = data;
      chosen.resize(data.total);
    } else {
      if (data.version != first->version ||
          data.plan_fingerprint != first->plan_fingerprint ||
          data.fault_model_fingerprint != first->fault_model_fingerprint ||
          data.errno_model_fingerprint != first->errno_model_fingerprint ||
          data.total != first->total) {
        throw inject::JournalError(
            "shard journal " + path +
            " does not match the first shard's header (version or "
            "fingerprint mismatch): the shard set mixes campaigns");
      }
    }
    ++stats.files;
    choose_entries(chosen, std::move(data.entries), path, stats);
  }

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw inject::JournalError("cannot create spliced journal at " +
                               out_path);
  }
  std::vector<u8> header;
  put32(header, kJournalMagic);
  put32(header, first->version);
  put64(header, first->plan_fingerprint);
  if (first->version >= inject::kJournalVersionV3) {
    put64(header, first->fault_model_fingerprint);
  }
  if (first->version >= inject::kJournalVersion) {
    put64(header, first->errno_model_fingerprint);
  }
  put32(header, first->total);
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<long>(header.size()));
  for (u32 i = 0; i < first->total; ++i) {
    if (!chosen[i].has_value()) {
      ++stats.missing;
      continue;
    }
    ++stats.chosen;
    if (is_quarantined(*chosen[i])) ++stats.quarantined;
    std::vector<u8> payload;
    inject::serialize_journal_entry(payload, *chosen[i], first->version);
    std::vector<u8> frame;
    frame.reserve(payload.size() + 20);
    put32(frame, kEntryMagic);
    put32(frame, i);
    put32(frame, static_cast<u32>(payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());
    put64(frame, fnv1a(payload.data(), payload.size()));
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<long>(frame.size()));
  }
  out.flush();
  if (!out) {
    throw inject::JournalError("write failed for spliced journal " +
                               out_path);
  }
  return stats;
}

}  // namespace kfi::fabric

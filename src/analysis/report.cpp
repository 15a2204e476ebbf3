#include "analysis/report.hpp"

#include <cstdio>
#include <sstream>

#include "common/table.hpp"

namespace kfi::analysis {

using inject::CampaignKind;
using inject::OutcomeCategory;

namespace {

std::string pct(double fraction, int decimals = 1) {
  return format_percent(fraction, decimals);
}

std::string pct_of_100(double percent) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", percent);
  return buf;
}

}  // namespace

std::string render_failure_table(
    isa::Arch arch,
    const std::vector<std::pair<CampaignKind, OutcomeTally>>& rows) {
  std::ostringstream os;
  os << "Activation and failure distribution — " << isa::arch_name(arch)
     << " (measured | paper)\n";
  // The quarantine column only appears when a supervisor actually
  // quarantined something; clean campaigns render the paper's exact shape.
  bool any_quarantined = false;
  for (const auto& [kind, tally] : rows) {
    if (tally.quarantined > 0) any_quarantined = true;
  }
  std::vector<std::string> headers = {
      "Campaign", "Injected", "Activated", "Not Manifested",
      "Fail Silence Violation", "Known Crash", "Hang/Unknown Crash"};
  if (any_quarantined) headers.push_back("Quarantined");
  AsciiTable table(headers);
  for (const auto& [kind, tally] : rows) {
    const PaperTableRow paper = paper_table_row(arch, kind);
    auto cell = [](double measured, double published) {
      return pct(measured) + " | " + pct_of_100(published);
    };
    std::string activated;
    if (!tally.activation_known) {
      activated = "N/A | N/A";
    } else {
      activated = cell(tally.activation_rate(), paper.activated_pct);
    }
    std::vector<std::string> row = {
        campaign_kind_name(kind),
        std::to_string(tally.injected) + " | " +
            std::to_string(paper.injected),
        activated,
        cell(tally.fraction(OutcomeCategory::kNotManifested),
             paper.not_manifested_pct),
        cell(tally.fraction(OutcomeCategory::kFailSilenceViolation),
             paper.fsv_pct),
        cell(tally.fraction(OutcomeCategory::kKnownCrash),
             paper.known_crash_pct),
        cell(tally.fraction(OutcomeCategory::kHangOrUnknownCrash),
             paper.hang_unknown_pct)};
    if (any_quarantined) {
      row.push_back(std::to_string(tally.quarantined) + " | -");
    }
    table.add_row(row);
  }
  os << table.render();
  return os.str();
}

std::string render_cause_comparison(isa::Arch arch, const std::string& title,
                                    const OutcomeTally& tally,
                                    const PaperDist& paper) {
  std::ostringstream os;
  os << title << " — " << isa::arch_name(arch) << " (known crashes: "
     << tally.count(OutcomeCategory::kKnownCrash) << ")\n";
  AsciiTable table({"Crash cause", "Measured", "Paper"});
  // Paper-listed causes first, in the paper's order.
  std::vector<std::string> listed;
  for (const auto& [name, percent] : paper) {
    listed.push_back(name);
    table.add_row({name, pct(tally.crash_causes.fraction(name)),
                   pct_of_100(percent)});
  }
  // Any measured cause the paper does not list.
  for (const auto& name : tally.crash_causes.keys()) {
    bool found = false;
    for (const auto& l : listed) {
      if (l == name) {
        found = true;
        break;
      }
    }
    if (!found) {
      table.add_row({name, pct(tally.crash_causes.fraction(name)), "-"});
    }
  }
  os << table.render();
  return os.str();
}

std::string render_latency_comparison(const std::string& title,
                                      CampaignKind kind,
                                      const OutcomeTally& cisca_tally,
                                      const OutcomeTally& riscf_tally) {
  std::ostringstream os;
  os << title << " — cycles-to-crash distribution (measured | paper)\n";
  AsciiTable table({"Bucket", "Pentium-like (cisca)", "PPC-like (riscf)"});
  const auto paper_p4 =
      paper_latency_distribution(isa::Arch::kCisca, kind);
  const auto paper_g4 =
      paper_latency_distribution(isa::Arch::kRiscf, kind);
  const auto& labels = latency_bucket_labels();
  for (size_t i = 0; i < labels.size(); ++i) {
    table.add_row({labels[i],
                   pct(cisca_tally.latency.fraction(i)) + " | " +
                       pct_of_100(paper_p4[i]),
                   pct(riscf_tally.latency.fraction(i)) + " | " +
                       pct_of_100(paper_g4[i])});
  }
  os << table.render();
  return os.str();
}

std::string render_opclass_breakdown(
    isa::Arch arch,
    const std::vector<std::pair<isa::OpClass, OutcomeTally>>& rows) {
  std::ostringstream os;
  os << "Outcome by instruction class — " << isa::arch_name(arch) << "\n";
  AsciiTable table({"Class", "Injected", "Activated", "Not Manifested",
                    "Fail Silence Violation", "Known Crash",
                    "Hang/Unknown Crash"});
  for (const auto& [cls, tally] : rows) {
    table.add_row({
        isa::opclass_name(cls),
        std::to_string(tally.injected),
        tally.activation_known ? pct(tally.activation_rate())
                               : std::string("N/A"),
        pct(tally.fraction(OutcomeCategory::kNotManifested)),
        pct(tally.fraction(OutcomeCategory::kFailSilenceViolation)),
        pct(tally.fraction(OutcomeCategory::kKnownCrash)),
        pct(tally.fraction(OutcomeCategory::kHangOrUnknownCrash)),
    });
  }
  os << table.render();
  return os.str();
}

std::string render_profile(const std::vector<workload::HotFunction>& hot) {
  std::ostringstream os;
  os << "Kernel usage profile (functions covering >=95% of entries)\n";
  AsciiTable table({"Function", "Entries", "Share", "Cumulative"});
  for (const auto& fn : hot) {
    table.add_row({fn.name, std::to_string(fn.entries), pct(fn.share),
                   pct(fn.cumulative)});
  }
  os << table.render();
  return os.str();
}

std::string summarize_campaign(const inject::CampaignResult& result) {
  // On an interrupted run, tally only the indices that actually carry a
  // record so the partial totals line up with what the journal holds.
  const OutcomeTally t =
      result.interrupted
          ? tally_records(inject::completed_records(result))
          : tally_records(result.records);
  std::ostringstream os;
  os << isa::arch_name(result.spec.arch) << " "
     << campaign_kind_name(result.spec.kind);
  // Non-default fault models change what a row means; say so in the log
  // line (the default stays byte-identical to the pre-FaultModel output).
  if (result.spec.kind == CampaignKind::kErrno) {
    os << " [" << result.spec.errno_model.name() << "]";
  } else if (!result.spec.model.is_legacy()) {
    os << " [" << result.spec.model.name() << "]";
  }
  os << ": injected=" << t.injected
     << " activated="
     << (t.activation_known ? std::to_string(t.activated) : std::string("N/A"))
     << " manifested=" << pct(t.manifestation_rate())
     << " crashes=" << t.count(OutcomeCategory::kKnownCrash)
     << " hangs/unknown=" << t.count(OutcomeCategory::kHangOrUnknownCrash)
     << " fsv=" << t.count(OutcomeCategory::kFailSilenceViolation)
     << " reboots=" << result.reboots << " datagrams_lost="
     << result.datagrams_dropped << "/" << result.datagrams_sent;
  // Supervisor segment: only printed when the fault-tolerance machinery
  // had something to report, so plain campaign summaries are unchanged.
  if (result.interrupted || result.quarantined > 0 ||
      result.resumed_records > 0 || result.journal_flushes > 0 ||
      result.harness_retries > 0 || result.retry_backoff_waits > 0) {
    os << " | supervisor:";
    if (result.interrupted) {
      os << " INTERRUPTED (" << result.executed() << "/"
         << result.records.size() << " done)";
    }
    os << " quarantined=" << result.quarantined << " stalls="
       << result.stalls << " retries=" << result.harness_retries
       << " resumed=" << result.resumed_records << " journal_flushes="
       << result.journal_flushes;
    if (result.retry_backoff_waits > 0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " backoff=%llu(%.2fs)",
                    static_cast<unsigned long long>(
                        result.retry_backoff_waits),
                    result.retry_backoff_seconds);
      os << buf << " [";
      bool first = true;
      for (size_t w = 0; w < result.worker_backoff_waits.size(); ++w) {
        if (result.worker_backoff_waits[w] == 0) continue;
        if (!first) os << ",";
        os << "w" << w << ":" << result.worker_backoff_waits[w];
        first = false;
      }
      os << "]";
    }
  }
  // Fabric segment: multi-process campaigns report their harness churn
  // here — worker deaths, shard re-dispatches, and restart backoff are
  // operational events, deliberately kept out of the paper denominators
  // above (a killed worker's injections simply re-run elsewhere).
  if (result.fabric_workers > 0) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  " | fabric: workers=%u deaths=%llu redispatched=%llu "
                  "backoff=%llu(%.2fs) spliced_dups=%llu",
                  result.fabric_workers,
                  static_cast<unsigned long long>(
                      result.fabric_worker_deaths),
                  static_cast<unsigned long long>(
                      result.fabric_redispatches),
                  static_cast<unsigned long long>(
                      result.fabric_backoff_waits),
                  result.fabric_backoff_seconds,
                  static_cast<unsigned long long>(
                      result.fabric_spliced_duplicates));
    os << buf;
  }
  // Per-host segment: the multi-host coordinator's supervisor ledger —
  // re-dispatches, lease revocations, reconnect backoff — one entry per
  // daemon endpoint.  Operational like the fabric segment above: none of
  // it enters the paper denominators.
  if (!result.fabric_hosts.empty()) {
    os << " | hosts:";
    for (const inject::FabricHostStats& h : result.fabric_hosts) {
      char buf[192];
      std::snprintf(
          buf, sizeof(buf),
          " %s{dispatches=%llu deaths=%llu lease_revoked=%llu "
          "backoff=%llu(%.2fs) records=%llu}",
          h.host.c_str(), static_cast<unsigned long long>(h.dispatches),
          static_cast<unsigned long long>(h.deaths),
          static_cast<unsigned long long>(h.lease_revocations),
          static_cast<unsigned long long>(h.backoff_waits),
          h.backoff_seconds, static_cast<unsigned long long>(h.records));
      os << buf;
    }
  }
  const inject::CampaignThroughput& tp = result.throughput;
  if (tp.jobs > 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  " | jobs=%u wall=%.2fs (plan=%.2fs run=%.2fs) %.1f inj/s",
                  tp.jobs, tp.wall_seconds, tp.plan_seconds, tp.run_seconds,
                  tp.injections_per_second(result.records.size()));
    os << buf;
  }
  return os.str();
}

}  // namespace kfi::analysis

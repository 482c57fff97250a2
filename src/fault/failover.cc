#include "src/fault/failover.h"

#include <algorithm>

#include "src/common/status.h"

namespace mcrdl::fault {

std::string ResilienceReport::to_string() const {
  std::ostringstream out;
  out << "resilience report:\n"
      << "  operations succeeded : " << succeeded << "\n"
      << "  issue attempts       : " << attempted << "\n"
      << "  retries (transient)  : " << retried << "\n"
      << "  rerouted (failover)  : " << rerouted << "\n"
      << "  failed permanently   : " << failed << "\n"
      << "  breakers tripped     : " << breakers_tripped << "\n"
      << "  backoff virtual time : " << backoff_time_us << " us\n";
  // Elastic-recovery block only when a rank was actually lost, so transient
  // and outage reports keep the exact format they always had.
  if (ranks_lost > 0 || epochs > 0 || recovered > 0) {
    out << "  ranks lost           : " << ranks_lost << "\n"
        << "  recovery epochs      : " << epochs << "\n"
        << "  recovered ops        : " << recovered << "\n"
        << "  stale-epoch rejects  : " << stale_rejections << "\n";
  }
  // Grow-back block only when capacity actually came back (or a checkpoint
  // was restored), so shrink-only reports keep their exact format.
  if (ranks_rejoined > 0 || grow_events > 0 || checkpoint_restores > 0) {
    out << "  ranks rejoined       : " << ranks_rejoined << "\n"
        << "  grow events          : " << grow_events << "\n"
        << "  checkpoint restores  : " << checkpoint_restores << "\n";
  }
  if (!by_backend.empty()) {
    std::size_t width = 0;
    for (const auto& [name, counters] : by_backend) width = std::max(width, name.size());
    out << "  per-backend:\n";
    for (const auto& [name, counters] : by_backend) {
      out << "    " << name << std::string(width - name.size(), ' ') << " : failed "
          << counters.failed << ", rerouted away " << counters.rerouted;
      if (counters.grow_drained > 0) out << ", grow drained " << counters.grow_drained;
      out << "\n";
    }
  }
  return out.str();
}

FailoverRouter::FailoverRouter(FaultInjector* injector, RetryPolicy retry, BreakerConfig breaker,
                               bool failover_enabled)
    : injector_(injector), retry_(retry), breaker_(breaker), failover_(failover_enabled) {}

bool FailoverRouter::healthy(const std::string& backend, int rank,
                             const BreakerScope& scope) const {
  return breaker_.healthy(backend, rank, scope);
}

std::string FailoverRouter::select(const std::string& preferred,
                                   const std::vector<std::string>& order, int rank,
                                   const BreakerScope& scope) const {
  if (healthy(preferred, rank, scope)) return preferred;
  if (!failover_) {
    throw BackendUnavailable("backend '" + preferred +
                             "' is out of service and failover is disabled");
  }
  for (const std::string& candidate : order) {
    if (candidate != preferred && healthy(candidate, rank, scope)) return candidate;
  }
  throw BackendUnavailable("no healthy backend available (preferred '" + preferred + "')");
}

std::string FailoverRouter::next_healthy(const std::string& failed,
                                         const std::vector<std::string>& order, int rank,
                                         const BreakerScope& scope) const {
  if (!failover_) {
    throw BackendUnavailable("backend '" + failed + "' failed and failover is disabled");
  }
  // Prefer backends after the failed one in the order; wrap to earlier
  // entries only as a last resort (they were skipped for a reason, but a
  // reason that may have been health that has since not changed — still
  // better than failing the op outright).
  auto it = std::find(order.begin(), order.end(), failed);
  const std::size_t start = it == order.end() ? 0 : (it - order.begin()) + 1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::string& candidate = order[(start + i) % order.size()];
    if (candidate != failed && healthy(candidate, rank, scope)) return candidate;
  }
  throw BackendUnavailable("no healthy backend to fail over to (failed '" + failed + "')");
}

void FailoverRouter::record_success(const std::string& backend, int rank,
                                    const BreakerScope& scope) {
  breaker_.record_success(backend, rank, scope);
}

bool FailoverRouter::record_failure(const std::string& backend, int rank,
                                    const BreakerScope& scope) {
  const bool tripped = breaker_.record_failure(backend, rank, scope);
  // Every rank trips its own breaker (health is per-rank so routing stays
  // sequence-aligned), but the report counts each backend's loss once —
  // re-trips after a failed half-open probe included.
  if (tripped) {
    std::lock_guard<std::mutex> lock(report_mu_);
    if (tripped_backends_.insert(backend).second) ++report_.breakers_tripped;
  }
  return tripped;
}

void FailoverRouter::note_attempt() {
  std::lock_guard<std::mutex> lock(report_mu_);
  ++report_.attempted;
}

void FailoverRouter::note_success() {
  std::lock_guard<std::mutex> lock(report_mu_);
  ++report_.succeeded;
}

void FailoverRouter::note_retry(SimTime backoff_us) {
  std::lock_guard<std::mutex> lock(report_mu_);
  ++report_.retried;
  report_.backoff_time_us += backoff_us;
}

void FailoverRouter::note_reroute(const std::string& from) {
  std::lock_guard<std::mutex> lock(report_mu_);
  ++report_.rerouted;
  ++report_.by_backend[from].rerouted;
}

void FailoverRouter::note_failure(const std::string& backend) {
  std::lock_guard<std::mutex> lock(report_mu_);
  ++report_.failed;
  ++report_.by_backend[backend].failed;
}

void FailoverRouter::update_report(const std::function<void(ResilienceReport&)>& fn) {
  std::lock_guard<std::mutex> lock(report_mu_);
  fn(report_);
}

void FailoverRouter::age_breaker(const std::string& backend, int rank,
                                 const BreakerScope& scope) {
  breaker_.note_skipped(backend, rank, scope);
}

}  // namespace mcrdl::fault

// Counters the benchmark reads from the runtime's own public surfaces: the
// CommLogger's records and the cluster metrics registry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/mcr_dl.h"

namespace perfbench {

// Aggregates of CommRecords over the counted rounds.
struct CommTally {
  std::vector<double> op_us;  // end - start of every record
  std::uint64_t records = 0;
  std::uint64_t fused = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t retries = 0;    // attempts beyond the first
  std::uint64_t composite = 0;  // completed as a composite algorithm ("hier:…", "rsag…")
  mcrdl::SimTime comm_us_rank0 = 0.0;  // union of rank 0's op intervals
  std::map<std::string, mcrdl::SimTime> comm_us_rank0_by_backend;

  // Adds the logger's current records; the caller clears the logger after.
  void add(const mcrdl::CommLogger& logger);
};

// Records logged over ranks [0, world).
std::uint64_t logged_ops(const mcrdl::CommLogger& logger, int world);
// True when every rank logged the same collective count and bytes (the
// moe-256 gate); otherwise says which rank differs.
bool ranks_agree(const mcrdl::CommLogger& logger, int world, std::string* why);

// comm_ops / comm_bytes counters of the cluster registry, per backend.
struct BackendCounters {
  std::map<std::string, double> ops;
  std::map<std::string, double> bytes;
  double issues() const;
  static BackendCounters read(mcrdl::ClusterContext& cluster);
  BackendCounters operator-(const BackendCounters& o) const;
  BackendCounters& operator+=(const BackendCounters& o);
};

// Fills the backends.* and core.* counter metrics shared by the runtime
// workloads. `steps` is the number of closed-loop iterations counted, `calls`
// the public calls counted, `elapsed_us_rank0` rank 0's virtual time in them.
void backend_layer_metrics(std::map<std::string, Metric>& out, const CommTally& tally,
                           const BackendCounters& counters, double steps, double calls,
                           double elapsed_us_rank0);

// Lassen with its GPUs' achieved throughput and its NIC bandwidth drawn from
// the seed within +-0.5% of nominal, as run-to-run hardware variation. It
// keeps every virtual time seed-dependent, so no reported time reads the
// same on every run.
mcrdl::net::SystemConfig seeded_lassen(int nodes, std::uint64_t seed);

// Zeros for every per-layer metric a workload leaves idle (except
// failed_share, which measure() fills unless the workload did).
void zero_layer_metrics(std::map<std::string, Metric>& out);

}  // namespace perfbench

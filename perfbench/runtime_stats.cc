#include "perfbench/runtime_stats.h"

#include "perfbench/workload.h"
#include "src/coll/spec.h"
#include "src/common/rng.h"

namespace perfbench {

void CommTally::add(const mcrdl::CommLogger& logger) {
  for (const auto& rec : logger.records()) {
    op_us.push_back(rec.end - rec.start);
    ++records;
    fused += rec.fused ? 1 : 0;
    rerouted += rec.rerouted ? 1 : 0;
    retries += static_cast<std::uint64_t>(rec.attempts > 1 ? rec.attempts - 1 : 0);
    composite += mcrdl::coll::parse(rec.backend).has_value() ? 1 : 0;
  }
  comm_us_rank0 += logger.comm_time(0);
  for (const auto& [b, t] : logger.time_by_backend(0)) comm_us_rank0_by_backend[b] += t;
}

std::uint64_t logged_ops(const mcrdl::CommLogger& logger, int world) {
  std::uint64_t n = 0;
  for (int r = 0; r < world; ++r) n += static_cast<std::uint64_t>(logger.op_count(r));
  return n;
}

bool ranks_agree(const mcrdl::CommLogger& logger, int world, std::string* why) {
  const int count0 = logger.op_count(0);
  const std::size_t bytes0 = logger.bytes_moved(0);
  for (int r = 1; r < world; ++r) {
    const int count = logger.op_count(r);
    const std::size_t bytes = logger.bytes_moved(r);
    if (count != count0 || bytes != bytes0) {
      *why = "rank " + std::to_string(r) + " logged " + std::to_string(count) + " ops / " +
             std::to_string(bytes) + " B, rank 0 " + std::to_string(count0) + " / " +
             std::to_string(bytes0);
      return false;
    }
  }
  return count0 > 0;
}

double BackendCounters::issues() const {
  double n = 0.0;
  for (const auto& [b, v] : ops) n += v;
  return n;
}

BackendCounters BackendCounters::read(mcrdl::ClusterContext& cluster) {
  static const std::vector<mcrdl::OpType> kOps = {
      mcrdl::OpType::AllReduce,     mcrdl::OpType::Broadcast,     mcrdl::OpType::Reduce,
      mcrdl::OpType::AllGather,     mcrdl::OpType::AllGatherV,    mcrdl::OpType::Gather,
      mcrdl::OpType::GatherV,       mcrdl::OpType::Scatter,       mcrdl::OpType::ScatterV,
      mcrdl::OpType::ReduceScatter, mcrdl::OpType::AllToAllSingle, mcrdl::OpType::AllToAll,
      mcrdl::OpType::AllToAllV,     mcrdl::OpType::Barrier,       mcrdl::OpType::Send,
      mcrdl::OpType::Recv};
  BackendCounters c;
  const auto& m = cluster.metrics();
  for (const auto& b : kBackends) {
    double ops = 0.0;
    for (mcrdl::OpType op : kOps) {
      ops += static_cast<double>(
          m.counter_value("comm_ops", {{"backend", b}, {"op", mcrdl::op_name(op)}}));
    }
    c.ops[b] = ops;
    c.bytes[b] = static_cast<double>(m.counter_value("comm_bytes", {{"backend", b}}));
  }
  return c;
}

BackendCounters BackendCounters::operator-(const BackendCounters& o) const {
  BackendCounters d = *this;
  for (auto& [b, v] : d.ops) v -= o.ops.count(b) ? o.ops.at(b) : 0.0;
  for (auto& [b, v] : d.bytes) v -= o.bytes.count(b) ? o.bytes.at(b) : 0.0;
  return d;
}

BackendCounters& BackendCounters::operator+=(const BackendCounters& o) {
  for (const auto& [b, v] : o.ops) ops[b] += v;
  for (const auto& [b, v] : o.bytes) bytes[b] += v;
  return *this;
}

void backend_layer_metrics(std::map<std::string, Metric>& out, const CommTally& tally,
                           const BackendCounters& counters, double steps, double calls,
                           double elapsed_us_rank0) {
  auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  out["backends.comm_us_per_step"] = {per(tally.comm_us_rank0, steps), "us"};
  out["backends.comm_fraction"] = {per(tally.comm_us_rank0, elapsed_us_rank0), "ratio"};
  for (const auto& b : kBackends) {
    auto it = tally.comm_us_rank0_by_backend.find(b);
    const double t = it == tally.comm_us_rank0_by_backend.end() ? 0.0 : it->second;
    out["backends.comm_us_per_step." + b] = {per(t, steps), "us"};
    out["backends.bytes." + b] = {counters.bytes.count(b) ? counters.bytes.at(b) : 0.0, "B"};
    out["backends.ops." + b] = {counters.ops.count(b) ? counters.ops.at(b) : 0.0, "count"};
  }
  const double records = static_cast<double>(tally.records);
  out["core.issues_per_call"] = {per(counters.issues(), calls), "ratio"};
  out["core.fused_share"] = {per(static_cast<double>(tally.fused), records), "ratio"};
  out["fault.retries_per_op"] = {per(static_cast<double>(tally.retries), records), "ratio"};
  out["fault.reroute_share"] = {per(static_cast<double>(tally.rerouted), records), "ratio"};
  out["coll.composite_share"] = {per(static_cast<double>(tally.composite), records), "ratio"};
}

mcrdl::net::SystemConfig seeded_lassen(int nodes, std::uint64_t seed) {
  mcrdl::net::SystemConfig sys = mcrdl::net::SystemConfig::lassen(nodes);
  mcrdl::Rng rng = mcrdl::Rng(seed).split(0x67707573ull);
  sys.gpu_tflops *= 1.0 + 0.01 * (rng.next_double() - 0.5);
  sys.nic_bandwidth_gbps *= 1.0 + 0.01 * (rng.next_double() - 0.5);
  return sys;
}

void zero_layer_metrics(std::map<std::string, Metric>& out) {
  // failed_share defaults to measure()'s count of failed ops.
  for (const auto& [name, unit] : kPerLayerMetrics) {
    if (name != "failed_share") out.emplace(name, Metric{0.0, unit});
  }
}

}  // namespace perfbench

// Table I's MCR-DL column, verified against the implementation: every one of
// the 15 Listing-1 operations runs through the Api on every registered
// backend (natively where the library supports it, emulated otherwise), and
// every result equals a host reference computed from the rank-distinct
// inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/mcr_dl.h"

namespace mcrdl {
namespace {

class FeatureMatrixTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FeatureMatrixTest, EveryListingOneOpMatchesTheHostReference) {
  const std::string backend = GetParam();
  ClusterContext cluster(net::SystemConfig::lassen(1));
  McrDl mcr(&cluster);
  mcr.init(available_backend_names());
  const int n = cluster.world_size();

  std::mutex mu;
  std::vector<std::string> mismatches;
  std::vector<SimTime> arrived(static_cast<std::size_t>(n)), left(static_cast<std::size_t>(n));
  const auto expect = [&](int rank, const char* op, const Tensor& got,
                          const std::vector<double>& want) {
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < want.size(); ++i) {
      const double g = got.get(static_cast<std::int64_t>(i));
      if (g != want[i]) {
        mismatches.push_back(std::string(op) + " rank " + std::to_string(rank) + " [" +
                             std::to_string(i) + "] = " + std::to_string(g) + ", want " +
                             std::to_string(want[i]));
      }
    }
  };
  // x[i] = f(i) for i < len, the host reference of one result.
  const auto ref = [](int len, auto f) {
    std::vector<double> v;
    for (int i = 0; i < len; ++i) v.push_back(f(i));
    return v;
  };

  cluster.run_spmd([&](int rank) {
    Api api = mcr.on(rank);
    sim::Device* dev = cluster.device(rank);
    const auto f32 = [&](std::vector<double> values) {
      Tensor t = Tensor::zeros({static_cast<std::int64_t>(values.size())}, DType::F32, dev);
      for (std::size_t i = 0; i < values.size(); ++i) {
        t.set(static_cast<std::int64_t>(i), values[i]);
      }
      return t;
    };
    const auto zeros = [&](int len) { return Tensor::zeros({len}, DType::F32, dev); };
    // Rank r's all-to-all input sends 10 * r + j to peer j.
    const std::vector<double> a2a_in = ref(n, [&](int j) { return 10.0 * rank + j; });
    const std::vector<double> a2a_out = ref(n, [&](int j) { return 10.0 * j + rank; });
    const std::vector<int> counts(static_cast<std::size_t>(n), 1);
    const std::vector<int> displs = [&] {
      std::vector<int> d;
      for (int r = 0; r < n; ++r) d.push_back(r);
      return d;
    }();
    const double rank_sum = n * (n + 1) / 2.0;  // sum of rank + 1

    Tensor ar = f32({rank + 1.0, 2.0 * (rank + 1)});
    api.all_reduce(backend, ar);
    Tensor bc = f32({rank + 1.0, rank + 2.0});
    api.broadcast(backend, bc, 0);
    Tensor rd = f32({rank + 1.0, 2.0 * (rank + 1)});
    api.reduce(backend, rd, 0);
    Tensor ag = zeros(2 * n);
    api.all_gather(backend, ag, f32({1.0 * rank, 100.0 + rank}));
    Tensor rs = zeros(1);
    api.reduce_scatter(backend, rs, f32(ref(n, [&](int i) { return i + 10.0 * rank; })));
    Tensor a2a = zeros(n);
    api.all_to_all_single(backend, a2a, f32(a2a_in));
    Tensor ga = rank == 0 ? zeros(2 * n) : Tensor();
    api.gather(backend, ga, f32({1.0 * rank, 100.0 + rank}), 0);
    Tensor sc = zeros(1);
    api.scatter(backend, sc, rank == 0 ? f32(ref(n, [](int i) { return 5.0 * i; })) : Tensor(), 0);
    Tensor agv = zeros(n);
    api.all_gatherv(backend, agv, f32({rank + 0.5}), counts, displs);
    Tensor gav = rank == 0 ? zeros(n) : Tensor();
    api.gatherv(backend, gav, f32({rank + 0.25}), 0, counts, displs);
    Tensor scv = zeros(1);
    api.scatterv(backend, scv, rank == 0 ? f32(ref(n, [](int i) { return 7.0 * i; })) : Tensor(),
                 0, counts, displs);
    Tensor a2av = zeros(n);
    api.all_to_allv(backend, a2av, f32(a2a_in), counts, displs, counts, displs);
    // Barrier: ranks arrive 10 us apart; nobody may get past it (and its
    // stream drain) before the last arrival.
    api.synchronize();
    cluster.scheduler().sleep_for(10.0 * rank);
    arrived[static_cast<std::size_t>(rank)] = cluster.scheduler().now();
    api.barrier(backend);
    api.synchronize();
    left[static_cast<std::size_t>(rank)] = cluster.scheduler().now();
    Tensor p2p = rank == 0 ? f32({3.0, 1.0, 4.0}) : zeros(3);
    if (rank == 0) api.send(backend, p2p, 1);
    if (rank == 1) api.recv(backend, p2p, 0);
    api.synchronize();

    expect(rank, "all_reduce", ar, {rank_sum, 2.0 * rank_sum});
    expect(rank, "broadcast", bc, {1.0, 2.0});
    if (rank == 0) expect(rank, "reduce", rd, {rank_sum, 2.0 * rank_sum});
    // Rank r contributes {r, 100 + r} at offset 2r.
    const std::vector<double> gathered =
        ref(2 * n, [](int i) { return i % 2 == 0 ? i / 2 : 100.0 + i / 2; });
    expect(rank, "all_gather", ag, gathered);
    expect(rank, "reduce_scatter", rs, {n * rank + 10.0 * (n * (n - 1) / 2)});
    expect(rank, "all_to_all_single", a2a, a2a_out);
    if (rank == 0) expect(rank, "gather", ga, gathered);
    expect(rank, "scatter", sc, {5.0 * rank});
    expect(rank, "all_gatherv", agv, ref(n, [](int i) { return i + 0.5; }));
    if (rank == 0) expect(rank, "gatherv", gav, ref(n, [](int i) { return i + 0.25; }));
    expect(rank, "scatterv", scv, {7.0 * rank});
    expect(rank, "all_to_allv", a2av, a2a_out);
    if (rank == 0) expect(rank, "send", p2p, {3.0, 1.0, 4.0});
    if (rank == 1) expect(rank, "recv", p2p, {3.0, 1.0, 4.0});
  });

  EXPECT_TRUE(mismatches.empty()) << backend << ": " << mismatches.size()
                                  << " mismatches, first: " << mismatches.front();
  const SimTime last_arrival = *std::max_element(arrived.begin(), arrived.end());
  for (int r = 0; r < n; ++r) {
    EXPECT_GE(left[static_cast<std::size_t>(r)], last_arrival) << backend << " barrier, rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FeatureMatrixTest,
                         ::testing::ValuesIn(available_backend_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace mcrdl

// OpRequest — the single descriptor for every operation in the MCR-DL API.
//
// The core facade (src/core/context.h) constructs one OpRequest per Listing-1
// call and feeds it to the OpPipeline (src/core/op_pipeline.h); the pipeline's
// terminal stage hands it to Comm::issue, which maps it onto the backend's
// native entry points (building the rendezvous-level OpDesc from it). Having
// one descriptor instead of N per-op signatures is what lets optimisation
// layers — tuning, fusion, compression, fault routing, logging, emulation —
// be written once as pipeline stages instead of once per operation.
//
// Field usage by operation family (unused fields stay default-initialised):
//   all_reduce / broadcast / reduce / send / recv   -> tensor (in-place)
//   *gather* / *scatter* / reduce_scatter / a2a     -> output + input
//   all_to_all (list form)                          -> outputs + inputs
//   rooted collectives                              -> root (group-rank)
//   send / recv                                     -> peer (group-rank)
//   v-collectives                                   -> *_counts / *_displs
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/comm_types.h"
#include "src/tensor/tensor.h"

namespace mcrdl {

struct OpRequest {
  OpType op = OpType::Barrier;
  // Requested backend string, exactly as the user passed it ("auto" routes
  // collectives through the tuning table; p2p ops require a concrete name).
  std::string backend;
  bool async_op = false;

  Tensor tensor;       // in-place payload
  Tensor output;
  Tensor input;
  TensorList outputs;  // all_to_all list form
  TensorList inputs;
  int root = 0;        // group-rank root for rooted collectives
  int peer = -1;       // send destination / recv source (group-rank)
  ReduceOp rop = ReduceOp::Sum;
  std::vector<int> send_counts, send_displs;
  std::vector<int> recv_counts, recv_displs;
  // Recovery epoch the request was issued under (stamped by the pipeline's
  // `recover` stage). After an elastic shrink the issue stage rejects
  // requests stamped with an older epoch, so stragglers from before the
  // shrink are bounced back for replay instead of deadlocking the new
  // communicators. Stays 0 for the whole run unless a rank is lost.
  std::uint64_t epoch = 0;
  // True for a sub-operation posted by a composite collective (src/coll/):
  // the pipeline skips per-call overhead, fusion/compression admission and
  // the tuner for nested requests (the parent composite owns those), while
  // metrics, traces and fault routing still see them individually.
  bool nested = false;

  // The payload size used for tuning lookups, cost attribution and logging
  // (per-rank bytes, PyTorch convention — matches what each Comm entry point
  // reports in its OpDesc).
  std::size_t payload_bytes() const;
};

}  // namespace mcrdl

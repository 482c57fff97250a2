#include "src/backends/op_request.h"

namespace mcrdl {

std::size_t OpRequest::payload_bytes() const {
  switch (op) {
    case OpType::AllReduce:
    case OpType::Broadcast:
    case OpType::Reduce:
    case OpType::Send:
    case OpType::Recv:
      return tensor.bytes();
    case OpType::AllGather:
    case OpType::AllGatherV:
    case OpType::Gather:
    case OpType::GatherV:
    case OpType::ReduceScatter:
    case OpType::AllToAllSingle:
    case OpType::AllToAllV:
      return input.bytes();
    case OpType::Scatter:
    case OpType::ScatterV:
      return output.bytes();
    case OpType::AllToAll:
      return total_bytes(inputs);
    case OpType::Barrier:
      return 0;
  }
  return 0;
}

}  // namespace mcrdl

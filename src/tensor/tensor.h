// MCR-DL's tensor type — the unit every communication operation moves.
//
// Tensors carry a dtype, a shape, and a device placement, and come in two
// storage modes:
//   * Materialised — a real host buffer stands in for device memory, and the
//     simulated collectives perform genuine data movement and reduction math
//     on it (this is what the correctness tests verify).
//   * Phantom — shape/dtype metadata only. Paper-scale workloads (a 4-billion
//     parameter MoE) are *timed* through the same code paths without
//     allocating paper-scale buffers; data-touching calls on a phantom
//     tensor are no-ops for bulk operations and errors for element access.
//
// Views (1-D slices sharing storage) support fusion slice-back and
// reduce-scatter outputs. Element accessors convert through double, which is
// exact for every supported dtype's value range used in tests.
//
// Bulk operations (fill, reductions, scale, allclose, to_vector and the
// arange/random_uniform factories) switch on the dtype once per call and
// then run a typed loop over raw storage; every element still goes through
// double and is narrowed back exactly as set() would narrow it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/net/comm_types.h"
#include "src/tensor/dtype.h"

namespace mcrdl::sim {
class Device;
}

namespace mcrdl {

class Tensor {
 public:
  // An empty (undefined) tensor; most APIs reject it.
  Tensor() = default;

  // --- factories -----------------------------------------------------------
  // Zero-filled (calloc: fresh pages from the OS are not cleared again).
  static Tensor zeros(std::vector<std::int64_t> shape, DType dtype, sim::Device* device);
  // Uninitialised storage, for scratch the caller writes in full before
  // anything reads it (clone(), composite working copies).
  static Tensor empty(std::vector<std::int64_t> shape, DType dtype, sim::Device* device);
  static Tensor full(std::vector<std::int64_t> shape, DType dtype, double value,
                     sim::Device* device);
  // [0, 1, 2, ...); handy for alltoall/gather correctness checks.
  static Tensor arange(std::int64_t n, DType dtype, sim::Device* device);
  static Tensor random_uniform(std::vector<std::int64_t> shape, DType dtype, sim::Device* device,
                               Rng& rng, double lo = 0.0, double hi = 1.0);
  // Metadata-only tensor for paper-scale timing runs.
  static Tensor phantom(std::vector<std::int64_t> shape, DType dtype, sim::Device* device);

  // --- metadata -------------------------------------------------------------
  bool defined() const { return numel_ >= 0; }
  bool materialized() const { return storage_ != nullptr; }
  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t numel() const { return numel_ < 0 ? 0 : numel_; }
  std::size_t bytes() const { return static_cast<std::size_t>(numel()) * dtype_size(dtype_); }
  DType dtype() const { return dtype_; }
  sim::Device* device() const { return device_; }

  // --- element access (materialised tensors only) ---------------------------
  double get(std::int64_t i) const;
  void set(std::int64_t i, double v);
  std::vector<double> to_vector() const;

  // --- bulk operations -------------------------------------------------------
  // 1-D view over [offset, offset+count) elements, sharing storage.
  Tensor view(std::int64_t offset_elems, std::int64_t count) const;
  // Deep copy (phantom clones stay phantom): empty() storage, then one
  // memcpy.
  Tensor clone() const;
  // Elementwise copy; shapes may differ but numel and dtype must match.
  // No-op if either side is phantom.
  void copy_from(const Tensor& src);
  void fill(double v);
  // this[i] = this[i] OP other[i]; Avg accumulates as Sum (callers divide
  // with scale() at the end, as the backends do). No-op if either side is
  // phantom. A thin caller of reduce_n(): `other` may be `*this` or a view
  // of the same storage; one that overlaps `this` at a different offset is
  // read as it was before the call.
  void reduce_inplace(const Tensor& other, ReduceOp op);
  // this[i] = this[i] * factor, through reduce_n()'s scale step.
  void scale(double factor);

  bool allclose(const Tensor& other, double atol = 1e-6, double rtol = 1e-5) const;

  // Raw byte access for the compression codec and fusion packing.
  std::byte* raw_data();
  const std::byte* raw_data() const;

  std::string describe() const;

 private:
  // One malloc/calloc'd buffer; the zero-fill is chosen per factory.
  struct Storage {
    Storage(std::size_t bytes, bool zeroed);
    ~Storage();
    Storage(const Storage&) = delete;
    Storage& operator=(const Storage&) = delete;
    std::byte* data;
  };

  Tensor(std::shared_ptr<Storage> storage, std::int64_t offset_elems,
         std::vector<std::int64_t> shape, DType dtype, sim::Device* device);
  static Tensor allocate(std::vector<std::int64_t> shape, DType dtype, sim::Device* device,
                         bool zeroed);

  void require_materialized(const char* what) const;

  std::shared_ptr<Storage> storage_;  // null => phantom
  std::int64_t offset_elems_ = 0;
  std::int64_t numel_ = -1;  // -1 => undefined tensor
  std::vector<std::int64_t> shape_;
  DType dtype_ = DType::F32;
  sim::Device* device_ = nullptr;
};

using TensorList = std::vector<Tensor>;

// One output of reduce_n(): `dst` receives elements
// [offset, offset + dst.numel()) of the reduction.
struct ReduceTarget {
  Tensor dst;
  std::int64_t offset = 0;
};

// The one bulk reduction kernel: AllReduce, Reduce and ReduceScatter in the
// collective engine, reduce_inplace() and scale() all run through it.
//
// Walks the reduction in cache-sized blocks. Each block copies the first
// input's bytes into a block-local accumulator, folds every further input
// into it in list order (element through double, combined, narrowed back to
// the dtype after every step, so the result is bit-identical to a chain of
// pairwise reduce_inplace calls), multiplies by `scale` when one is given
// (Avg divides by the group size this way), and writes the block to every
// target that covers it. Avg folds as Sum.
//
// Aliasing: an input that overlaps a target at a different offset is copied
// once before the first block, so every input is read as it was before the
// call; an input at the same offset as a target (in-place AllReduce) is read
// block by block before that block is written. Targets that overlap each
// other at different offsets are written whole, in list order (the later
// target wins), as one block.
//
// Every input and target must be materialised with the same dtype; inputs
// must share one numel.
void reduce_n(std::span<const Tensor* const> inputs, ReduceOp op, std::optional<double> scale,
              std::span<const ReduceTarget> targets);

// Total payload bytes of a tensor list (the fusion and alltoall paths).
std::size_t total_bytes(const TensorList& tensors);

}  // namespace mcrdl

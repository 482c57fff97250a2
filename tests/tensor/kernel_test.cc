// Bit-identity of the typed bulk kernels against the per-element formula
// they replaced. The reference below reads each element as double, combines
// with the same ReduceOp arithmetic and narrows exactly as Tensor::set does
// (float then half/bfloat16 for F16/BF16, llround for the integer dtypes),
// one element at a time. Every dtype x ReduceOp must match it byte for byte,
// on inputs that hit the narrowing corners: half/bfloat16 double rounding,
// llround ties, NaN and signed zeros under Min/Max (where operand order picks
// the result), infinities and integer wrap-around.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/tensor.h"

namespace mcrdl {
namespace {

// --- the per-element reference ------------------------------------------------

namespace ref {

double read(const std::byte* base, DType dtype, std::int64_t i) {
  switch (dtype) {
    case DType::F16: {
      std::uint16_t v;
      std::memcpy(&v, base + i * 2, 2);
      return half_to_float(v);
    }
    case DType::BF16: {
      std::uint16_t v;
      std::memcpy(&v, base + i * 2, 2);
      return bfloat16_to_float(v);
    }
    case DType::F32: {
      float v;
      std::memcpy(&v, base + i * 4, 4);
      return v;
    }
    case DType::F64: {
      double v;
      std::memcpy(&v, base + i * 8, 8);
      return v;
    }
    case DType::I32: {
      std::int32_t v;
      std::memcpy(&v, base + i * 4, 4);
      return static_cast<double>(v);
    }
    case DType::I64: {
      std::int64_t v;
      std::memcpy(&v, base + i * 8, 8);
      return static_cast<double>(v);
    }
    case DType::U8: {
      std::uint8_t v;
      std::memcpy(&v, base + i, 1);
      return static_cast<double>(v);
    }
  }
  return 0.0;
}

void write(std::byte* base, DType dtype, std::int64_t i, double value) {
  switch (dtype) {
    case DType::F16: {
      std::uint16_t v = float_to_half(static_cast<float>(value));
      std::memcpy(base + i * 2, &v, 2);
      return;
    }
    case DType::BF16: {
      std::uint16_t v = float_to_bfloat16(static_cast<float>(value));
      std::memcpy(base + i * 2, &v, 2);
      return;
    }
    case DType::F32: {
      float v = static_cast<float>(value);
      std::memcpy(base + i * 4, &v, 4);
      return;
    }
    case DType::F64:
      std::memcpy(base + i * 8, &value, 8);
      return;
    case DType::I32: {
      std::int32_t v = static_cast<std::int32_t>(std::llround(value));
      std::memcpy(base + i * 4, &v, 4);
      return;
    }
    case DType::I64: {
      std::int64_t v = static_cast<std::int64_t>(std::llround(value));
      std::memcpy(base + i * 8, &v, 8);
      return;
    }
    case DType::U8: {
      std::uint8_t v = static_cast<std::uint8_t>(std::llround(value));
      std::memcpy(base + i, &v, 1);
      return;
    }
  }
}

double apply(double a, double b, ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum:
    case ReduceOp::Avg:
      return a + b;
    case ReduceOp::Prod:
      return a * b;
    case ReduceOp::Min:
      return std::min(a, b);
    case ReduceOp::Max:
      return std::max(a, b);
  }
  return a;
}

// dst[i] = dst[i] OP src[i], one element at a time (src read from `src`,
// which the caller keeps separate from dst).
void reduce(std::vector<std::byte>& dst, const std::vector<std::byte>& src, DType dtype,
            std::int64_t n, ReduceOp op) {
  for (std::int64_t i = 0; i < n; ++i) {
    write(dst.data(), dtype, i, apply(read(dst.data(), dtype, i), read(src.data(), dtype, i), op));
  }
}

void scale(std::vector<std::byte>& dst, DType dtype, std::int64_t n, double factor) {
  for (std::int64_t i = 0; i < n; ++i) {
    write(dst.data(), dtype, i, read(dst.data(), dtype, i) * factor);
  }
}

}  // namespace ref

// --- inputs ---------------------------------------------------------------------

constexpr DType kDtypes[] = {DType::F16, DType::BF16, DType::F32, DType::F64,
                             DType::I32, DType::I64,  DType::U8};
constexpr ReduceOp kOps[] = {ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max,
                             ReduceOp::Avg};

// Scale factors: exact and inexact, llround ties (x.5 after halving), and two
// factors whose double product lands just above a half/bfloat16 tie but
// rounds onto the tie in float — the second rounding then goes to even.
const double kScales[] = {0.5,   0.25, 1.0 / 3.0, 0.1, -1.5, 1.0 + 0x1p-11 + 0x1p-30,
                          1.0 + 0x1p-8 + 0x1p-30};

std::vector<double> specials(DType dtype) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (dtype) {
    case DType::F16:
    case DType::BF16:
    case DType::F32:
    case DType::F64:
      return {0.0, -0.0, 1.0, -1.0, inf, -inf, nan, 0.5, -2.5, 3.0, 65504.0, 6.1e-5, 1e-7, 1e30};
    case DType::I32:
      return {0, 1, -1, 2, -3, 5, -5, 127, 255, 2147483647.0, -2147483648.0, 1e6, -46341};
    case DType::I64:
      return {0, 1, -1, 2, -3, 5, -5, 0x1p53 + 2, -0x1p53, 0x1p62, -0x1p62, 3037000500.0, 7};
    case DType::U8:
      return {0, 1, 2, 3, 5, 7, 100, 127, 128, 200, 255};
  }
  return {};
}

double random_value(DType dtype, Rng& rng) {
  switch (dtype) {
    case DType::F16:
    case DType::BF16:
    case DType::F32:
    case DType::F64:
      return rng.uniform(-1000.0, 1000.0) *
             std::ldexp(1.0, static_cast<int>(rng.next_below(41)) - 20);
    case DType::I32:
      return static_cast<double>(static_cast<std::int32_t>(rng.next_u64()));
    case DType::I64:
      return static_cast<double>(static_cast<std::int64_t>(rng.next_u64() >> 1) - (1LL << 61));
    case DType::U8:
      return static_cast<double>(rng.next_below(256));
  }
  return 0.0;
}

// Operand `k` of a test: every specials x specials pair (operands 0 and 1
// cross-multiply; further operands rotate), then seeded random values —
// enough that every dtype spans several kernel blocks and ends mid-block.
std::vector<double> operand(DType dtype, int k) {
  const std::vector<double> s = specials(dtype);
  const std::size_t m = s.size();
  std::vector<double> out;
  for (std::size_t i = 0; i < m * m; ++i) {
    out.push_back(k == 0 ? s[i / m] : s[(i + (k - 1) * (i / m + 1)) % m]);
  }
  Rng rng = Rng(1234).split(static_cast<std::uint64_t>(k) * 97 + static_cast<std::uint64_t>(dtype));
  for (int i = 0; i < 40011; ++i) out.push_back(random_value(dtype, rng));
  return out;
}

// Bytes written through the reference narrowing.
std::vector<std::byte> encode(DType dtype, const std::vector<double>& values) {
  std::vector<std::byte> bytes(values.size() * dtype_size(dtype));
  for (std::size_t i = 0; i < values.size(); ++i) {
    ref::write(bytes.data(), dtype, static_cast<std::int64_t>(i), values[i]);
  }
  return bytes;
}

Tensor tensor_of(DType dtype, const std::vector<std::byte>& bytes) {
  Tensor t = Tensor::empty({static_cast<std::int64_t>(bytes.size() / dtype_size(dtype))}, dtype,
                           nullptr);
  std::memcpy(t.raw_data(), bytes.data(), bytes.size());
  return t;
}

std::vector<std::byte> bytes_of(const Tensor& t) {
  std::vector<std::byte> out(t.bytes());
  std::memcpy(out.data(), t.raw_data(), t.bytes());
  return out;
}

// First element whose bytes differ, or -1. Two NaNs count as equal: when
// both operands of + or * are NaN, IEEE 754 leaves open which payload (and
// sign) the result carries, and the compiler may commute the operands, so
// neither the reference nor the kernel pins those bits (the fold reaches
// this case as inf + -inf followed by another NaN). Min and Max select an
// operand, and a swapped operand order still shows: it turns a NaN result
// into a number or back.
std::int64_t first_diff(const std::vector<std::byte>& a, const std::vector<std::byte>& b,
                        DType dtype) {
  if (a.size() != b.size()) return 0;
  const std::size_t sz = dtype_size(dtype);
  for (std::size_t i = 0; i < a.size() / sz; ++i) {
    if (std::memcmp(a.data() + i * sz, b.data() + i * sz, sz) == 0) continue;
    const auto at = static_cast<std::int64_t>(i);
    if (std::isnan(ref::read(a.data(), dtype, at)) && std::isnan(ref::read(b.data(), dtype, at))) {
      continue;
    }
    return at;
  }
  return -1;
}

std::string label(DType dtype, ReduceOp op) {
  return std::string(dtype_name(dtype)) + "/" + reduce_op_name(op);
}

// --- pairwise -------------------------------------------------------------------

TEST(TensorKernels, ReduceInplaceMatchesPerElementReference) {
  for (DType dt : kDtypes) {
    const std::vector<std::byte> a = encode(dt, operand(dt, 0));
    const std::vector<std::byte> b = encode(dt, operand(dt, 1));
    const auto n = static_cast<std::int64_t>(a.size() / dtype_size(dt));
    for (ReduceOp op : kOps) {
      std::vector<std::byte> want = a;
      ref::reduce(want, b, dt, n, op);
      Tensor got = tensor_of(dt, a);
      got.reduce_inplace(tensor_of(dt, b), op);
      EXPECT_EQ(first_diff(bytes_of(got), want, dt), -1) << label(dt, op);
    }
  }
}

TEST(TensorKernels, ScaleMatchesPerElementReference) {
  for (DType dt : kDtypes) {
    const std::vector<std::byte> a = encode(dt, operand(dt, 0));
    const auto n = static_cast<std::int64_t>(a.size() / dtype_size(dt));
    for (double f : kScales) {
      std::vector<std::byte> want = a;
      ref::scale(want, dt, n, f);
      Tensor got = tensor_of(dt, a);
      got.scale(f);
      EXPECT_EQ(first_diff(bytes_of(got), want, dt), -1) << dtype_name(dt) << " x " << f;
    }
  }
}

TEST(TensorKernels, AvgIsSumThenScale) {
  // The backends' Avg: fold as Sum, then scale by 1/size — here two operands
  // halved, so odd integer sums land on llround ties.
  for (DType dt : kDtypes) {
    const std::vector<std::byte> a = encode(dt, operand(dt, 0));
    const std::vector<std::byte> b = encode(dt, operand(dt, 1));
    const auto n = static_cast<std::int64_t>(a.size() / dtype_size(dt));
    std::vector<std::byte> want = a;
    ref::reduce(want, b, dt, n, ReduceOp::Avg);
    ref::scale(want, dt, n, 0.5);
    Tensor got = tensor_of(dt, a);
    got.reduce_inplace(tensor_of(dt, b), ReduceOp::Avg);
    got.scale(0.5);
    EXPECT_EQ(first_diff(bytes_of(got), want, dt), -1) << dtype_name(dt);
  }
}

TEST(TensorKernels, NarrowingCornersBehaveAsDocumented) {
  // Spot checks that the inputs above really reach the corners.
  Tensor h = Tensor::full({1}, DType::F16, 1.0, nullptr);
  h.scale(1.0 + 0x1p-11 + 0x1p-30);  // float rounds onto the half tie; ties-to-even
  EXPECT_EQ(h.get(0), 1.0);
  Tensor b = Tensor::full({1}, DType::BF16, 1.0, nullptr);
  b.scale(1.0 + 0x1p-8 + 0x1p-30);
  EXPECT_EQ(b.get(0), 1.0);
  Tensor i = Tensor::full({2}, DType::I32, 5.0, nullptr);
  i.set(1, -5.0);
  i.scale(0.5);  // llround: ties away from zero
  EXPECT_EQ(i.get(0), 3.0);
  EXPECT_EQ(i.get(1), -3.0);
  Tensor mn = Tensor::full({2}, DType::F32, std::nan(""), nullptr);
  mn.set(1, 1.0);
  Tensor other = Tensor::full({2}, DType::F32, 1.0, nullptr);
  other.set(1, std::nan(""));
  mn.reduce_inplace(other, ReduceOp::Min);  // std::min keeps the left operand on NaN
  EXPECT_TRUE(std::isnan(mn.get(0)));
  EXPECT_EQ(mn.get(1), 1.0);
  Tensor z = Tensor::full({1}, DType::F64, -0.0, nullptr);
  z.reduce_inplace(Tensor::full({1}, DType::F64, 0.0, nullptr), ReduceOp::Max);
  EXPECT_TRUE(std::signbit(z.get(0)));  // -0 == +0, so max keeps the left one
}

// --- N-ary ------------------------------------------------------------------------

TEST(TensorKernels, ReduceNMatchesAChainOfPairwiseReductions) {
  constexpr int kInputs = 5;
  for (DType dt : kDtypes) {
    std::vector<std::vector<std::byte>> ins;
    for (int k = 0; k < kInputs; ++k) ins.push_back(encode(dt, operand(dt, k)));
    const auto n = static_cast<std::int64_t>(ins[0].size() / dtype_size(dt));
    for (ReduceOp op : kOps) {
      std::vector<std::byte> want = ins[0];
      for (int k = 1; k < kInputs; ++k) {
        ref::reduce(want, ins[static_cast<std::size_t>(k)], dt, n, op);
      }
      if (op == ReduceOp::Avg) ref::scale(want, dt, n, 1.0 / kInputs);

      std::vector<Tensor> tensors;
      for (const auto& bytes : ins) tensors.push_back(tensor_of(dt, bytes));
      std::vector<const Tensor*> inputs;
      for (const Tensor& t : tensors) inputs.push_back(&t);
      // Three targets: the whole result, and a split of it into two ranges
      // (the ReduceScatter shape), all in one pass.
      Tensor whole = Tensor::empty({n}, dt, nullptr);
      Tensor head = Tensor::empty({n / 3}, dt, nullptr);
      Tensor tail = Tensor::empty({n - n / 3}, dt, nullptr);
      const std::vector<ReduceTarget> targets = {{whole, 0}, {head, 0}, {tail, n / 3}};
      reduce_n(inputs, op,
               op == ReduceOp::Avg ? std::optional<double>(1.0 / kInputs) : std::nullopt,
               targets);
      const std::vector<std::byte> got = bytes_of(whole);
      EXPECT_EQ(first_diff(got, want, dt), -1) << label(dt, op);
      std::vector<std::byte> split = bytes_of(head);
      const std::vector<std::byte> t = bytes_of(tail);
      split.insert(split.end(), t.begin(), t.end());
      EXPECT_EQ(first_diff(split, want, dt), -1) << label(dt, op) << " split";
      // Inputs are untouched.
      for (int k = 0; k < kInputs; ++k) {
        EXPECT_EQ(first_diff(bytes_of(tensors[static_cast<std::size_t>(k)]),
                             ins[static_cast<std::size_t>(k)], dt),
                  -1);
      }
    }
  }
}

// --- aliasing ---------------------------------------------------------------------

TEST(TensorKernels, ReduceInplaceWithItself) {
  for (DType dt : kDtypes) {
    const std::vector<std::byte> a = encode(dt, operand(dt, 0));
    const auto n = static_cast<std::int64_t>(a.size() / dtype_size(dt));
    for (ReduceOp op : kOps) {
      std::vector<std::byte> want = a;
      ref::reduce(want, a, dt, n, op);
      Tensor got = tensor_of(dt, a);
      got.reduce_inplace(got, op);
      EXPECT_EQ(first_diff(bytes_of(got), want, dt), -1) << label(dt, op);
    }
  }
}

TEST(TensorKernels, ViewsAtNonZeroOffsets) {
  // Both operands are views of one storage, at odd element offsets and far
  // enough apart not to overlap; the bytes around them must not move.
  for (DType dt : kDtypes) {
    const std::vector<std::byte> a = encode(dt, operand(dt, 0));
    const std::vector<std::byte> b = encode(dt, operand(dt, 1));
    const auto n = static_cast<std::int64_t>(a.size() / dtype_size(dt));
    for (ReduceOp op : kOps) {
      Tensor base = Tensor::full({2 * n + 10}, dt, 7.0, nullptr);
      Tensor va = base.view(3, n);
      Tensor vb = base.view(n + 7, n);
      std::memcpy(va.raw_data(), a.data(), a.size());
      std::memcpy(vb.raw_data(), b.data(), b.size());
      std::vector<std::byte> want = a;
      ref::reduce(want, b, dt, n, op);
      va.reduce_inplace(vb, op);
      EXPECT_EQ(first_diff(bytes_of(va), want, dt), -1) << label(dt, op);
      EXPECT_EQ(first_diff(bytes_of(vb), b, dt), -1) << label(dt, op);
      for (std::int64_t i : std::vector<std::int64_t>{0, 1, 2, n + 3, n + 4, n + 5, n + 6,
                                                     2 * n + 7, 2 * n + 9}) {
        EXPECT_EQ(base.get(i), 7.0) << label(dt, op) << " element " << i;
      }
    }
  }
}

TEST(TensorKernels, OverlappingViewReadsOperandAsBeforeTheCall) {
  // `other` overlaps `this` one element further on: the kernel copies it
  // first, so every this[i] combines with the pre-call other[i].
  for (DType dt : kDtypes) {
    const std::vector<std::byte> a = encode(dt, operand(dt, 0));
    const auto n = static_cast<std::int64_t>(a.size() / dtype_size(dt)) - 1;
    for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Max}) {
      Tensor base = tensor_of(dt, a);
      Tensor dst = base.view(1, n);
      Tensor src = base.view(0, n);
      std::vector<std::byte> want = bytes_of(dst);
      ref::reduce(want, bytes_of(src), dt, n, op);
      dst.reduce_inplace(src, op);
      EXPECT_EQ(first_diff(bytes_of(dst), want, dt), -1) << label(dt, op);
    }
  }
}

// --- the other bulk paths ---------------------------------------------------------

TEST(TensorKernels, FillArangeRandomAndToVectorMatchReference) {
  for (DType dt : kDtypes) {
    constexpr std::int64_t kN = 300;
    for (double v : specials(dt)) {
      std::vector<std::byte> want(kN * dtype_size(dt));
      for (std::int64_t i = 0; i < kN; ++i) ref::write(want.data(), dt, i, v);
      EXPECT_EQ(first_diff(bytes_of(Tensor::full({kN}, dt, v, nullptr)), want, dt), -1)
          << dtype_name(dt) << " fill " << v;
    }
    std::vector<std::byte> want(kN * dtype_size(dt));
    for (std::int64_t i = 0; i < kN; ++i) ref::write(want.data(), dt, i, static_cast<double>(i));
    EXPECT_EQ(first_diff(bytes_of(Tensor::arange(kN, dt, nullptr)), want, dt), -1)
        << dtype_name(dt) << " arange";

    Rng r1(42), r2(42);
    for (std::int64_t i = 0; i < kN; ++i) ref::write(want.data(), dt, i, r1.uniform(-300.0, 300.0));
    const Tensor rnd = Tensor::random_uniform({kN}, dt, nullptr, r2, -300.0, 300.0);
    EXPECT_EQ(first_diff(bytes_of(rnd), want, dt), -1) << dtype_name(dt) << " random_uniform";

    const std::vector<double> values = rnd.to_vector();
    for (std::int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(values[static_cast<std::size_t>(i)], ref::read(want.data(), dt, i));
    }
  }
}

TEST(TensorKernels, AllcloseAcrossDtypes) {
  const Tensor f32 = Tensor::arange(64, DType::F32, nullptr);
  const Tensor f16 = Tensor::arange(64, DType::F16, nullptr);
  const Tensor i64 = Tensor::arange(64, DType::I64, nullptr);
  EXPECT_TRUE(f32.allclose(f16));
  EXPECT_TRUE(i64.allclose(f32));
  Tensor off = Tensor::arange(64, DType::BF16, nullptr);
  off.set(63, 60.0);
  EXPECT_FALSE(f32.allclose(off));
}

TEST(TensorKernels, EmptyAndZerosAllocate) {
  Tensor e = Tensor::empty({5, 3}, DType::F64, nullptr);
  EXPECT_TRUE(e.materialized());
  EXPECT_EQ(e.bytes(), 120u);
  Tensor z = Tensor::zeros({0}, DType::F32, nullptr);
  EXPECT_TRUE(z.materialized());
  EXPECT_EQ(z.numel(), 0);
  z.scale(2.0);  // an empty reduction writes nothing
  Tensor big = Tensor::zeros({1 << 20}, DType::F32, nullptr);
  const std::vector<double> v = big.to_vector();
  EXPECT_EQ(std::count(v.begin(), v.end(), 0.0), 1 << 20);
}

}  // namespace
}  // namespace mcrdl

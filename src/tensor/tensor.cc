#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>

namespace mcrdl {

namespace {

std::int64_t shape_numel(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    MCRDL_REQUIRE(d >= 0, "negative dimension in tensor shape");
    n *= d;
  }
  return n;
}

// Per-dtype element codec: storage type, widening to double and the
// narrowing every write uses (round-to-nearest float then 16-bit for
// F16/BF16, llround for the integer dtypes).
template <DType D>
struct Codec;
template <>
struct Codec<DType::F16> {
  using T = std::uint16_t;
  static double load(T v) { return half_to_float(v); }
  static T store(double x) { return float_to_half(static_cast<float>(x)); }
};
template <>
struct Codec<DType::BF16> {
  using T = std::uint16_t;
  static double load(T v) { return bfloat16_to_float(v); }
  static T store(double x) { return float_to_bfloat16(static_cast<float>(x)); }
};
template <>
struct Codec<DType::F32> {
  using T = float;
  static double load(T v) { return v; }
  static T store(double x) { return static_cast<float>(x); }
};
template <>
struct Codec<DType::F64> {
  using T = double;
  static double load(T v) { return v; }
  static T store(double x) { return x; }
};
template <typename Int>
struct IntCodec {
  using T = Int;
  static double load(T v) { return static_cast<double>(v); }
  static T store(double x) { return static_cast<T>(std::llround(x)); }
};
template <>
struct Codec<DType::I32> : IntCodec<std::int32_t> {};
template <>
struct Codec<DType::I64> : IntCodec<std::int64_t> {};
template <>
struct Codec<DType::U8> : IntCodec<std::uint8_t> {};

// The one dtype switch: calls fn(Codec<dtype>{}).
template <typename Fn>
decltype(auto) with_codec(DType dtype, Fn&& fn) {
  switch (dtype) {
    case DType::F16: return fn(Codec<DType::F16>{});
    case DType::BF16: return fn(Codec<DType::BF16>{});
    case DType::F32: return fn(Codec<DType::F32>{});
    case DType::F64: return fn(Codec<DType::F64>{});
    case DType::I32: return fn(Codec<DType::I32>{});
    case DType::I64: return fn(Codec<DType::I64>{});
    case DType::U8: return fn(Codec<DType::U8>{});
  }
  throw InvalidArgument("unknown tensor dtype");
}

template <typename C>
typename C::T* typed(std::byte* p) {
  return reinterpret_cast<typename C::T*>(p);
}
template <typename C>
const typename C::T* typed(const std::byte* p) {
  return reinterpret_cast<const typename C::T*>(p);
}

template <ReduceOp Op>
double combine(double a, double b) {
  if constexpr (Op == ReduceOp::Prod) {
    return a * b;
  } else if constexpr (Op == ReduceOp::Min) {
    return std::min(a, b);
  } else if constexpr (Op == ReduceOp::Max) {
    return std::max(a, b);
  } else {
    return a + b;  // Sum, and Avg (the caller scales at the end)
  }
}

// Accumulator block: small enough that it stays in L1 while every input's
// matching block streams through it.
constexpr std::size_t kBlockBytes = 16u << 10;

struct Dest {
  std::byte* base;
  std::int64_t offset;  // first reduction element this destination receives
  std::int64_t count;
};

// reduce_n()'s typed loop over reduction elements [lo, hi).
template <typename C, ReduceOp Op>
void fold_blocks(const std::vector<const std::byte*>& srcs, const std::vector<Dest>& dests,
                 std::int64_t lo, std::int64_t hi, bool one_block,
                 const std::optional<double>& scale) {
  using T = typename C::T;
  const std::int64_t block =
      one_block ? hi - lo : static_cast<std::int64_t>(kBlockBytes / sizeof(T));
  std::unique_ptr<T[]> acc(new T[static_cast<std::size_t>(std::min(block, hi - lo))]);
  T* __restrict a = acc.get();
  for (std::int64_t b = lo; b < hi; b += block) {
    const std::int64_t len = std::min(block, hi - b);
    std::memcpy(a, srcs[0] + b * sizeof(T), static_cast<std::size_t>(len) * sizeof(T));
    for (std::size_t k = 1; k < srcs.size(); ++k) {
      const T* __restrict src = typed<C>(srcs[k]) + b;
      for (std::int64_t i = 0; i < len; ++i) {
        a[i] = C::store(combine<Op>(C::load(a[i]), C::load(src[i])));
      }
    }
    if (scale) {
      const double f = *scale;
      for (std::int64_t i = 0; i < len; ++i) a[i] = C::store(C::load(a[i]) * f);
    }
    for (const Dest& d : dests) {
      const std::int64_t from = std::max(b, d.offset);
      const std::int64_t to = std::min(b + len, d.offset + d.count);
      if (from >= to) continue;
      std::memcpy(d.base + (from - d.offset) * static_cast<std::int64_t>(sizeof(T)), a + (from - b),
                  static_cast<std::size_t>(to - from) * sizeof(T));
    }
  }
}

// Byte range [lo, hi) of a buffer plus its origin: the address reduction
// element 0 would have in it. Two overlapping ranges with equal origins put
// every element at the same address (in-place), so reading one block before
// writing it is safe; different origins are a genuine overlap.
struct Extent {
  std::uintptr_t lo, hi, origin;
  bool overlaps(const Extent& o) const { return lo < o.hi && o.lo < hi; }
  bool conflicts(const Extent& o) const { return overlaps(o) && origin != o.origin; }
};

}  // namespace

Tensor::Tensor(std::shared_ptr<Storage> storage, std::int64_t offset_elems,
               std::vector<std::int64_t> shape, DType dtype, sim::Device* device)
    : storage_(std::move(storage)),
      offset_elems_(offset_elems),
      numel_(shape_numel(shape)),
      shape_(std::move(shape)),
      dtype_(dtype),
      device_(device) {}

Tensor::Storage::Storage(std::size_t bytes, bool zeroed)
    : data(static_cast<std::byte*>(zeroed ? std::calloc(std::max<std::size_t>(bytes, 1), 1)
                                          : std::malloc(std::max<std::size_t>(bytes, 1)))) {
  if (data == nullptr) throw std::bad_alloc();
}

Tensor::Storage::~Storage() { std::free(data); }

Tensor Tensor::allocate(std::vector<std::int64_t> shape, DType dtype, sim::Device* device,
                        bool zeroed) {
  const auto bytes = static_cast<std::size_t>(shape_numel(shape)) * dtype_size(dtype);
  return Tensor(std::make_shared<Storage>(bytes, zeroed), 0, std::move(shape), dtype, device);
}

Tensor Tensor::zeros(std::vector<std::int64_t> shape, DType dtype, sim::Device* device) {
  return allocate(std::move(shape), dtype, device, /*zeroed=*/true);
}

Tensor Tensor::empty(std::vector<std::int64_t> shape, DType dtype, sim::Device* device) {
  return allocate(std::move(shape), dtype, device, /*zeroed=*/false);
}

Tensor Tensor::full(std::vector<std::int64_t> shape, DType dtype, double value,
                    sim::Device* device) {
  Tensor t = empty(std::move(shape), dtype, device);
  t.fill(value);
  return t;
}

Tensor Tensor::arange(std::int64_t n, DType dtype, sim::Device* device) {
  MCRDL_REQUIRE(n >= 0, "arange length must be non-negative");
  Tensor t = empty({n}, dtype, device);
  with_codec(dtype, [&](auto c) {
    using C = decltype(c);
    auto* p = typed<C>(t.raw_data());
    for (std::int64_t i = 0; i < n; ++i) p[i] = C::store(static_cast<double>(i));
  });
  return t;
}

Tensor Tensor::random_uniform(std::vector<std::int64_t> shape, DType dtype, sim::Device* device,
                              Rng& rng, double lo, double hi) {
  Tensor t = empty(std::move(shape), dtype, device);
  with_codec(dtype, [&](auto c) {
    using C = decltype(c);
    auto* p = typed<C>(t.raw_data());
    for (std::int64_t i = 0; i < t.numel(); ++i) p[i] = C::store(rng.uniform(lo, hi));
  });
  return t;
}

Tensor Tensor::phantom(std::vector<std::int64_t> shape, DType dtype, sim::Device* device) {
  return Tensor(nullptr, 0, std::move(shape), dtype, device);
}

void Tensor::require_materialized(const char* what) const {
  MCRDL_REQUIRE(defined(), "operation on undefined tensor");
  if (!materialized()) {
    throw InvalidArgument(std::string(what) + " requires a materialized tensor (this one is phantom)");
  }
}

double Tensor::get(std::int64_t i) const {
  require_materialized("get()");
  MCRDL_REQUIRE(i >= 0 && i < numel_, "tensor index out of range");
  return with_codec(dtype_, [&](auto c) {
    using C = decltype(c);
    return C::load(typed<C>(raw_data())[i]);
  });
}

void Tensor::set(std::int64_t i, double v) {
  require_materialized("set()");
  MCRDL_REQUIRE(i >= 0 && i < numel_, "tensor index out of range");
  with_codec(dtype_, [&](auto c) {
    using C = decltype(c);
    typed<C>(raw_data())[i] = C::store(v);
  });
}

std::vector<double> Tensor::to_vector() const {
  require_materialized("to_vector()");
  std::vector<double> out(static_cast<std::size_t>(numel_));
  with_codec(dtype_, [&](auto c) {
    using C = decltype(c);
    const auto* p = typed<C>(raw_data());
    for (std::int64_t i = 0; i < numel_; ++i) out[static_cast<std::size_t>(i)] = C::load(p[i]);
  });
  return out;
}

Tensor Tensor::view(std::int64_t offset_elems, std::int64_t count) const {
  MCRDL_REQUIRE(defined(), "view of undefined tensor");
  MCRDL_REQUIRE(offset_elems >= 0 && count >= 0 && offset_elems + count <= numel_,
                "view range out of bounds");
  if (!materialized()) return phantom({count}, dtype_, device_);
  return Tensor(storage_, offset_elems_ + offset_elems, {count}, dtype_, device_);
}

Tensor Tensor::clone() const {
  MCRDL_REQUIRE(defined(), "clone of undefined tensor");
  if (!materialized()) return phantom(shape_, dtype_, device_);
  Tensor out = empty(shape_, dtype_, device_);
  std::memcpy(out.raw_data(), raw_data(), bytes());
  return out;
}

void Tensor::copy_from(const Tensor& src) {
  MCRDL_REQUIRE(defined() && src.defined(), "copy_from with undefined tensor");
  MCRDL_REQUIRE(numel() == src.numel(), "copy_from numel mismatch");
  MCRDL_REQUIRE(dtype_ == src.dtype_, "copy_from dtype mismatch");
  if (!materialized() || !src.materialized()) return;
  std::memmove(raw_data(), src.raw_data(), bytes());
}

void Tensor::fill(double v) {
  if (!materialized()) return;
  with_codec(dtype_, [&](auto c) {
    using C = decltype(c);
    auto* p = typed<C>(raw_data());
    std::fill(p, p + numel_, C::store(v));
  });
}

void Tensor::reduce_inplace(const Tensor& other, ReduceOp op) {
  MCRDL_REQUIRE(defined() && other.defined(), "reduce_inplace with undefined tensor");
  MCRDL_REQUIRE(numel() == other.numel(), "reduce_inplace numel mismatch");
  MCRDL_REQUIRE(dtype_ == other.dtype_, "reduce_inplace dtype mismatch");
  if (!materialized() || !other.materialized()) return;
  const Tensor* inputs[] = {this, &other};
  const ReduceTarget target{*this, 0};
  reduce_n(inputs, op, std::nullopt, {&target, 1});
}

void Tensor::scale(double factor) {
  if (!materialized()) return;
  const Tensor* inputs[] = {this};
  const ReduceTarget target{*this, 0};
  reduce_n(inputs, ReduceOp::Sum, factor, {&target, 1});
}

bool Tensor::allclose(const Tensor& other, double atol, double rtol) const {
  require_materialized("allclose()");
  other.require_materialized("allclose()");
  if (numel() != other.numel()) return false;
  return with_codec(dtype_, [&](auto ca) {
    using A = decltype(ca);
    return with_codec(other.dtype_, [&](auto cb) {
      using B = decltype(cb);
      const auto* pa = typed<A>(raw_data());
      const auto* pb = typed<B>(other.raw_data());
      for (std::int64_t i = 0; i < numel_; ++i) {
        const double a = A::load(pa[i]);
        const double b = B::load(pb[i]);
        if (std::abs(a - b) > atol + rtol * std::abs(b)) return false;
      }
      return true;
    });
  });
}

std::byte* Tensor::raw_data() {
  require_materialized("raw_data()");
  return storage_->data + offset_elems_ * dtype_size(dtype_);
}

const std::byte* Tensor::raw_data() const {
  require_materialized("raw_data()");
  return storage_->data + offset_elems_ * dtype_size(dtype_);
}

std::string Tensor::describe() const {
  std::ostringstream out;
  out << "Tensor(";
  if (!defined()) {
    out << "undefined)";
    return out.str();
  }
  out << dtype_name(dtype_) << ", [";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) out << ",";
    out << shape_[i];
  }
  out << "]";
  if (!materialized()) out << ", phantom";
  out << ")";
  return out.str();
}

void reduce_n(std::span<const Tensor* const> inputs, ReduceOp op, std::optional<double> scale,
              std::span<const ReduceTarget> targets) {
  MCRDL_REQUIRE(!inputs.empty(), "reduce_n needs at least one input");
  const Tensor& first = *inputs[0];
  const std::int64_t n = first.numel();
  const DType dtype = first.dtype();
  const std::uintptr_t elem = dtype_size(dtype);
  const auto extent = [elem](const Tensor& t, std::int64_t offset) {
    const auto lo = reinterpret_cast<std::uintptr_t>(t.raw_data());
    return Extent{lo, lo + t.bytes(), lo - static_cast<std::uintptr_t>(offset) * elem};
  };

  std::vector<Dest> dests;
  std::vector<Extent> dest_extents;
  dests.reserve(targets.size());
  dest_extents.reserve(targets.size());
  std::int64_t lo = n, hi = 0;
  for (const ReduceTarget& t : targets) {
    MCRDL_REQUIRE(t.dst.dtype() == dtype, "reduce target dtype mismatch");
    MCRDL_REQUIRE(t.offset >= 0 && t.offset + t.dst.numel() <= n,
                  "reduce target range out of bounds");
    Tensor dst = t.dst;  // a non-const handle on the same storage, for writing
    dests.push_back({dst.raw_data(), t.offset, t.dst.numel()});
    dest_extents.push_back(extent(t.dst, t.offset));
    lo = std::min(lo, t.offset);
    hi = std::max(hi, t.offset + t.dst.numel());
  }
  if (lo >= hi) return;

  // Snapshot every input that a target overlaps at another offset, so no
  // block's writes can reach a later block's reads.
  std::vector<Tensor> snapshots;
  std::vector<const std::byte*> srcs;
  srcs.reserve(inputs.size());
  for (const Tensor* in : inputs) {
    MCRDL_REQUIRE(in->numel() == n, "reduce input numel mismatch");
    MCRDL_REQUIRE(in->dtype() == dtype, "reduce input dtype mismatch");
    const Extent e = extent(*in, 0);
    const bool aliased = std::any_of(dest_extents.begin(), dest_extents.end(),
                                     [&](const Extent& d) { return e.conflicts(d); });
    if (aliased) snapshots.push_back(in->clone());
    srcs.push_back(aliased ? snapshots.back().raw_data() : in->raw_data());
  }
  bool one_block = false;
  for (std::size_t i = 0; i < dest_extents.size() && !one_block; ++i) {
    for (std::size_t j = i + 1; j < dest_extents.size() && !one_block; ++j) {
      one_block = dest_extents[i].conflicts(dest_extents[j]);
    }
  }

  with_codec(dtype, [&](auto c) {
    using C = decltype(c);
    switch (op) {
      case ReduceOp::Sum:
      case ReduceOp::Avg:
        return fold_blocks<C, ReduceOp::Sum>(srcs, dests, lo, hi, one_block, scale);
      case ReduceOp::Prod:
        return fold_blocks<C, ReduceOp::Prod>(srcs, dests, lo, hi, one_block, scale);
      case ReduceOp::Min:
        return fold_blocks<C, ReduceOp::Min>(srcs, dests, lo, hi, one_block, scale);
      case ReduceOp::Max:
        return fold_blocks<C, ReduceOp::Max>(srcs, dests, lo, hi, one_block, scale);
    }
  });
}

std::size_t total_bytes(const TensorList& tensors) {
  std::size_t sum = 0;
  for (const Tensor& t : tensors) sum += t.bytes();
  return sum;
}

}  // namespace mcrdl

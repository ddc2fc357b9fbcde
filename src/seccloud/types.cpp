#include "seccloud/types.h"

#include <algorithm>
#include <stdexcept>

#include "hash/framing.h"

namespace seccloud::core {
using framing::put_le;

DataBlock DataBlock::from_value(std::uint64_t index, std::uint64_t value) {
  DataBlock b;
  b.index = index;
  put_le(b.payload, value);
  return b;
}

std::uint64_t DataBlock::value() const noexcept {
  std::uint64_t v = 0;
  const std::size_t n = std::min<std::size_t>(payload.size(), 8);
  for (std::size_t i = 0; i < n; ++i) v |= std::uint64_t{payload[i]} << (i * 8);
  return v;
}

const char* to_string(FuncKind kind) noexcept {
  switch (kind) {
    case FuncKind::kSum: return "sum";
    case FuncKind::kAverage: return "average";
    case FuncKind::kMax: return "max";
    case FuncKind::kMin: return "min";
    case FuncKind::kDotSelf: return "dot-self";
    case FuncKind::kPolyEval: return "poly-eval";
  }
  return "unknown";
}

std::uint64_t evaluate(FuncKind kind, std::span<const std::uint64_t> values) {
  if (values.empty()) throw std::invalid_argument("evaluate: empty operand list");
  switch (kind) {
    case FuncKind::kSum: {
      std::uint64_t acc = 0;
      for (const auto v : values) acc += v;  // wraps mod 2^64 by design
      return acc;
    }
    case FuncKind::kAverage: {
      // Exact floor of the mean over the wrap-free 128-bit sum.
      unsigned __int128 acc = 0;
      for (const auto v : values) acc += v;
      return static_cast<std::uint64_t>(acc / values.size());
    }
    case FuncKind::kMax:
      return *std::max_element(values.begin(), values.end());
    case FuncKind::kMin:
      return *std::min_element(values.begin(), values.end());
    case FuncKind::kDotSelf: {
      std::uint64_t acc = 0;
      for (const auto v : values) acc += v * v;
      return acc;
    }
    case FuncKind::kPolyEval: {
      // Horner with base B = 1099511628211 (FNV prime), mod 2^64.
      constexpr std::uint64_t kBase = 1099511628211ULL;
      std::uint64_t acc = 0;
      for (const auto v : values) acc = acc * kBase + v;
      return acc;
    }
  }
  throw std::invalid_argument("evaluate: unknown function kind");
}

Bytes result_leaf_bytes(const ComputeRequest& request, std::uint64_t result) {
  Bytes out;
  out.reserve(17 + 8 * request.positions.size());
  put_le(out, result);
  out.push_back(static_cast<std::uint8_t>(request.kind));
  put_le<std::uint64_t>(out, request.positions.size());
  for (const auto pos : request.positions) put_le<std::uint64_t>(out, pos);
  return out;
}

Bytes Warrant::body_bytes() const {
  Bytes out;
  out.reserve(delegator_id.size() + delegatee_id.size() + 10);
  put_le<std::uint64_t>(out, expiry_epoch);
  put_le<std::uint64_t>(out, delegator_id.size());
  out.insert(out.end(), delegator_id.begin(), delegator_id.end());
  put_le<std::uint64_t>(out, delegatee_id.size());
  out.insert(out.end(), delegatee_id.begin(), delegatee_id.end());
  return out;
}

}  // namespace seccloud::core

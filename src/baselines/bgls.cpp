#include "baselines/bgls.h"

#include <set>
#include <vector>

namespace seccloud::baselines {
namespace {

Point hash_message(const PairingGroup& group, std::span<const std::uint8_t> message) {
  return group.hash_to_g1("seccloud.baseline.bgls", message);
}

}  // namespace

BglsKeyPair bgls_generate(const PairingGroup& group, num::RandomSource& rng) {
  const BigUint x = group.random_scalar(rng);
  return {x, group.mul(x, group.generator())};
}

Point bgls_sign(const PairingGroup& group, const BglsKeyPair& key,
                std::span<const std::uint8_t> message) {
  return group.mul(key.x, hash_message(group, message));
}

bool bgls_verify(const PairingGroup& group, const Point& public_key,
                 std::span<const std::uint8_t> message, const Point& signature) {
  return group.pair(signature, group.generator()) ==
         group.pair(hash_message(group, message), public_key);
}

Point bgls_aggregate(const PairingGroup& group, std::span<const Point> signatures) {
  return group.multi_mul(ec::MsmTable{group.curve(), {}}, {}, signatures);
}

bool bgls_aggregate_verify(const PairingGroup& group, std::span<const BglsItem> items,
                           const Point& aggregate) {
  std::set<std::vector<std::uint8_t>> seen;
  for (const auto& item : items) {
    if (!seen.emplace(item.message.begin(), item.message.end()).second) {
      return false;  // duplicate message: outside the BGLS security model
    }
  }
  pairing::Gt rhs = group.gt_one();
  std::vector<std::pair<Point, Point>> pairs;
  pairs.reserve(items.size());
  for (const auto& item : items) {
    pairs.emplace_back(hash_message(group, item.message), item.public_key);
  }
  rhs = group.pair_product(pairs);
  return group.pair(aggregate, group.generator()) == rhs;
}

}  // namespace seccloud::baselines

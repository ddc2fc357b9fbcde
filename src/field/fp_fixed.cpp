#include "field/fp_fixed.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace seccloud::field::fixed {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// −p⁻¹ mod 2^64 by Newton iteration (p odd): each step doubles the number
/// of correct low bits; five steps reach 64 from the 3 bits x = p provides.
u64 neg_inv64(u64 p) {
  u64 x = p;  // correct mod 2^3 for odd p
  for (int i = 0; i < 5; ++i) x *= 2 - p * x;
  return ~x + 1;  // −p⁻¹
}

/// The `len` ≤ 8 big-endian bytes at `p` as a word. A whole word is one
/// byte-swapped load.
u64 load_be(const std::uint8_t* p, std::size_t len) {
  u64 word = 0;
  if (len == 8) {
    std::memcpy(&word, p, 8);
    if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
    return word;
  }
  for (std::size_t j = 0; j < len; ++j) word = (word << 8) | p[j];
  return word;
}

/// The low `len` ≤ 8 bytes of `word`, big-endian, at `p`.
void store_be(u64 word, std::uint8_t* p, std::size_t len) {
  if (len == 8) {
    if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
    std::memcpy(p, &word, 8);
    return;
  }
  for (std::size_t j = len; j-- > 0; word >>= 8) p[j] = static_cast<std::uint8_t>(word);
}

/// Mask-selected conditional subtraction: out = t − p if t ≥ p else t, where
/// t has N+1 limbs with t[N] ∈ {0, 1} and t < 2p. Constant shape.
template <std::size_t N>
inline void csub(const u64* t, const u64* p, u64* out) {
  u64 d[N];
  u64 borrow = 0;
  for (std::size_t j = 0; j < N; ++j) {
    const u128 diff = static_cast<u128>(t[j]) - p[j] - borrow;
    d[j] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1u;
  }
  // Subtract iff the top limb overflowed or the low limbs did not borrow.
  const u64 need = t[N] | (borrow ^ 1u);
  const u64 mask = 0 - static_cast<u64>(need != 0);
  for (std::size_t j = 0; j < N; ++j) {
    out[j] = (d[j] & mask) | (t[j] & ~mask);
  }
}

/// CIOS Montgomery multiplication (Koç–Acar–Kaliski): interleaves the
/// schoolbook product with the reduction so the scratch stays at N+2 limbs.
template <std::size_t N>
void cios_mul(const u64* a, const u64* b, const u64* p, u64 n0, u64* out) {
  u64 t[N + 2] = {};
  for (std::size_t i = 0; i < N; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < N; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[N]) + carry;
    t[N] = static_cast<u64>(cur);
    t[N + 1] = static_cast<u64>(cur >> 64);

    const u64 m = t[0] * n0;
    cur = static_cast<u128>(m) * p[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < N; ++j) {
      cur = static_cast<u128>(m) * p[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    cur = static_cast<u128>(t[N]) + carry;
    t[N - 1] = static_cast<u64>(cur);
    t[N] = t[N + 1] + static_cast<u64>(cur >> 64);
  }
  csub<N>(t, p, out);
}

/// Specialized squaring: off-diagonal partial products are computed once and
/// doubled (half the 64×64 multiplies of the general product), then the
/// 2N-limb square is Montgomery-reduced column by column (SOS).
template <std::size_t N>
void mont_sqr_kernel(const u64* a, const u64* p, u64 n0, u64* out) {
  u64 t[2 * N + 1] = {};

  // Off-diagonal products a_i·a_j (i < j).
  for (std::size_t i = 0; i < N; ++i) {
    u64 carry = 0;
    for (std::size_t j = i + 1; j < N; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    t[i + N] = carry;  // first write to this limb (see loop bounds)
  }

  // Double them (shift left one bit across 2N limbs)...
  u64 shift_carry = 0;
  for (std::size_t j = 0; j < 2 * N; ++j) {
    const u64 next = t[j] >> 63;
    t[j] = (t[j] << 1) | shift_carry;
    shift_carry = next;
  }
  t[2 * N] = shift_carry;

  // ...and add the diagonal a_i².
  u64 carry = 0;
  for (std::size_t i = 0; i < N; ++i) {
    u128 cur = static_cast<u128>(a[i]) * a[i] + t[2 * i] + carry;
    t[2 * i] = static_cast<u64>(cur);
    cur = (cur >> 64) + t[2 * i + 1];
    t[2 * i + 1] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  t[2 * N] += carry;

  // Montgomery reduction of the full square, one column per iteration.
  for (std::size_t i = 0; i < N; ++i) {
    const u64 m = t[i] * n0;
    u64 red_carry = 0;
    for (std::size_t j = 0; j < N; ++j) {
      const u128 cur = static_cast<u128>(m) * p[j] + t[i + j] + red_carry;
      t[i + j] = static_cast<u64>(cur);
      red_carry = static_cast<u64>(cur >> 64);
    }
    // Propagate the column carry through the remaining limbs (full-length
    // sweep; the carry dies after a limb or two but the shape stays fixed).
    u64 c = red_carry;
    for (std::size_t j = i + N; j < 2 * N + 1; ++j) {
      const u128 cur = static_cast<u128>(t[j]) + c;
      t[j] = static_cast<u64>(cur);
      c = static_cast<u64>(cur >> 64);
    }
  }
  csub<N>(t + N, p, out);
}

// AddressSanitizer plus -fno-omit-frame-pointer leaves gcc too few registers
// for the kernel's operand constraints ("impossible constraints"), so ASan
// builds use the bit-identical portable kernel instead.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_ADDRESS__)
#define SECCLOUD_X86_ADX 1

/// Hand-scheduled CIOS for the full 8-limb (512-bit) width using MULX with
/// dual ADCX/ADOX carry chains — roughly 2× the portable u128 kernel, which
/// bottlenecks on a single serialized carry chain. Selected at context
/// construction only when the CPU reports ADX+BMI2; bit-identical to
/// cios_mul<8> (the differential suite exercises both).
__attribute__((target("adx,bmi2"))) void cios_mul_asm8(const u64* a, const u64* b,
                                                       const u64* p, u64 n0, u64* out) {
  u64 t[9];
  u64* tp = t;
  u64 t8s = 0, t9s = 0, ctr = 8;
  const u64* bp = b;
  // Register roles: r8–r15 = t0..t7; t8/t9 live in stack slots and only join
  // at row ends; rax/rbx = mulx lo/hi scratch; rdx = b[i], then m.
  asm volatile(
      "xorl %%r8d, %%r8d\n\t"
      "xorl %%r9d, %%r9d\n\t"
      "xorl %%r10d, %%r10d\n\t"
      "xorl %%r11d, %%r11d\n\t"
      "xorl %%r12d, %%r12d\n\t"
      "xorl %%r13d, %%r13d\n\t"
      "xorl %%r14d, %%r14d\n\t"
      "xorl %%r15d, %%r15d\n\t"
      "1:\n\t"
      "movq (%[b]), %%rdx\n\t"
      "xorl %%eax, %%eax\n\t"  // clear CF and OF
      // ---- t += a * b[i]: lows on the ADCX chain, highs on the ADOX chain.
      "mulxq 0(%[a]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r8\n\t"
      "adoxq %%rbx, %%r9\n\t"
      "mulxq 8(%[a]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r9\n\t"
      "adoxq %%rbx, %%r10\n\t"
      "mulxq 16(%[a]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r10\n\t"
      "adoxq %%rbx, %%r11\n\t"
      "mulxq 24(%[a]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r11\n\t"
      "adoxq %%rbx, %%r12\n\t"
      "mulxq 32(%[a]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r12\n\t"
      "adoxq %%rbx, %%r13\n\t"
      "mulxq 40(%[a]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r13\n\t"
      "adoxq %%rbx, %%r14\n\t"
      "mulxq 48(%[a]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r14\n\t"
      "adoxq %%rbx, %%r15\n\t"
      "mulxq 56(%[a]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r15\n\t"  // CF pending into t8
      "movq %[t8s], %%rax\n\t"
      "adoxq %%rbx, %%rax\n\t"  // t8 += hi7 + OF; OF pending
      "movl $0, %%ebx\n\t"
      "adcxq %%rbx, %%rax\n\t"  // t8 += CF; CF pending
      "adoxq %%rbx, %%rbx\n\t"  // rbx = OF
      "adcq  $0, %%rbx\n\t"     // rbx += CF
      "movq %%rax, %[t8s]\n\t"
      "movq %%rbx, %[t9s]\n\t"
      // ---- reduction: m = t0·n0; t += m·p; t >>= 64.
      "movq %%r8, %%rdx\n\t"
      "imulq %[n0], %%rdx\n\t"
      "xorl %%eax, %%eax\n\t"
      "mulxq 0(%[p]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r8\n\t"  // t0 += lo → 0 by choice of m
      "adoxq %%rbx, %%r9\n\t"
      "mulxq 8(%[p]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r9\n\t"
      "adoxq %%rbx, %%r10\n\t"
      "mulxq 16(%[p]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r10\n\t"
      "adoxq %%rbx, %%r11\n\t"
      "mulxq 24(%[p]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r11\n\t"
      "adoxq %%rbx, %%r12\n\t"
      "mulxq 32(%[p]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r12\n\t"
      "adoxq %%rbx, %%r13\n\t"
      "mulxq 40(%[p]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r13\n\t"
      "adoxq %%rbx, %%r14\n\t"
      "mulxq 48(%[p]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r14\n\t"
      "adoxq %%rbx, %%r15\n\t"
      "mulxq 56(%[p]), %%rax, %%rbx\n\t"
      "adcxq %%rax, %%r15\n\t"  // CF pending into t8
      "movq %[t8s], %%rax\n\t"
      "adoxq %%rbx, %%rax\n\t"  // t8 += hi7 + OF; OF pending
      "movl $0, %%ebx\n\t"
      "adcxq %%rbx, %%rax\n\t"  // t8 += CF; CF pending
      "adoxq %%rbx, %%rbx\n\t"  // rbx = OF
      "adcq  $0, %%rbx\n\t"     // rbx += CF
      "addq %[t9s], %%rbx\n\t"  // carries out of t8 join t9
      // ---- shift down one limb: (t0..t8) ← (t1..t7, t8, t9).
      "movq %%r9, %%r8\n\t"
      "movq %%r10, %%r9\n\t"
      "movq %%r11, %%r10\n\t"
      "movq %%r12, %%r11\n\t"
      "movq %%r13, %%r12\n\t"
      "movq %%r14, %%r13\n\t"
      "movq %%r15, %%r14\n\t"
      "movq %%rax, %%r15\n\t"
      "movq %%rbx, %[t8s]\n\t"
      "movq $0, %[t9s]\n\t"
      "addq $8, %[b]\n\t"
      "decq %[ctr]\n\t"
      "jnz 1b\n\t"
      "movq %[tp], %%rdx\n\t"
      "movq %%r8, 0(%%rdx)\n\t"
      "movq %%r9, 8(%%rdx)\n\t"
      "movq %%r10, 16(%%rdx)\n\t"
      "movq %%r11, 24(%%rdx)\n\t"
      "movq %%r12, 32(%%rdx)\n\t"
      "movq %%r13, 40(%%rdx)\n\t"
      "movq %%r14, 48(%%rdx)\n\t"
      "movq %%r15, 56(%%rdx)\n\t"
      "movq %[t8s], %%rax\n\t"
      "movq %%rax, 64(%%rdx)\n\t"
      : [b] "+r"(bp), [ctr] "+m"(ctr), [t8s] "+m"(t8s), [t9s] "+m"(t9s)
      : [a] "r"(a), [p] "r"(p), [n0] "m"(n0), [tp] "m"(tp)
      : "rax", "rbx", "rdx", "r8", "r9", "r10", "r11", "r12", "r13", "r14",
        "r15", "cc", "memory");
  csub<8>(t, p, out);
}

void sqr_asm8(const u64* a, const u64* p, u64 n0, u64* out) {
  cios_mul_asm8(a, a, p, n0, out);
}
#endif  // x86-64 ADX kernel

template <std::size_t... Ns>
constexpr std::array<void (*)(const u64*, const u64*, const u64*, u64, u64*),
                     sizeof...(Ns)>
make_mul_table(std::index_sequence<Ns...>) {
  return {&cios_mul<Ns + 1>...};
}

template <std::size_t... Ns>
constexpr std::array<void (*)(const u64*, const u64*, u64, u64*), sizeof...(Ns)>
make_sqr_table(std::index_sequence<Ns...>) {
  return {&mont_sqr_kernel<Ns + 1>...};
}

constexpr auto kMulKernels = make_mul_table(std::make_index_sequence<kMaxLimbs>{});
constexpr auto kSqrKernels = make_sqr_table(std::make_index_sequence<kMaxLimbs>{});

}  // namespace

bool MontCtx::fits(const num::BigUint& p) noexcept {
  return p.is_odd() && p.limb_count() <= kMaxLimbs && p >= num::BigUint{3};
}

MontCtx::MontCtx(const num::BigUint& p) : p_big_(p) {
  if (!fits(p)) {
    throw std::invalid_argument(
        "MontCtx: modulus must be odd, >= 3, and at most 8 limbs wide");
  }
  n_ = p.limb_count();
  for (std::size_t i = 0; i < n_; ++i) p_[i] = p.limb(i);
  n0_ = neg_inv64(p_[0]);
  mul_kernel_ = kMulKernels[n_ - 1];
  sqr_kernel_ = kSqrKernels[n_ - 1];
#if defined(SECCLOUD_X86_ADX)
  // Full-width moduli on ADX-capable CPUs get the hand-scheduled kernel;
  // squaring goes through it too (the dual-chain multiply beats the portable
  // SOS squaring by a wide margin at this width).
  if (n_ == 8 && __builtin_cpu_supports("adx") && __builtin_cpu_supports("bmi2")) {
    mul_kernel_ = &cios_mul_asm8;
    sqr_kernel_ = &sqr_asm8;
  }
#endif

  // R = 2^(64n); the Montgomery constants come from the authoritative
  // BigUint division path.
  const num::BigUint r = (num::BigUint{1} << (64 * n_)) % p;
  const num::BigUint r2 = (num::BigUint{1} << (128 * n_)) % p;
  r1_ = load(r);
  r2_ = load(r2);
  one_.w[0] = 1;
}

Fe MontCtx::load(const num::BigUint& x) const noexcept {
  Fe out;
  for (std::size_t i = 0; i < n_; ++i) out.w[i] = x.limb(i);
  return out;
}

num::BigUint MontCtx::to_biguint(const Fe& x) const {
  return num::BigUint::from_limbs(
      std::vector<u64>(x.w.begin(), x.w.begin() + static_cast<std::ptrdiff_t>(n_)));
}

Fe MontCtx::pow_mont(const Fe& x, const num::BigUint& e) const {
  if (e.is_zero()) return r1_;

  // 4-bit fixed windows; 64 is a multiple of 4, so windows never straddle
  // limbs. Table of x̃^0..x̃^15.
  Fe table[16];
  table[0] = r1_;
  table[1] = x;
  for (std::size_t i = 2; i < 16; ++i) table[i] = mont_mul(table[i - 1], x);

  const std::size_t windows = (e.bit_length() + 3) / 4;
  const auto digit = [&](std::size_t wi) -> u64 {
    return (e.limb(wi / 16) >> ((wi % 16) * 4)) & 0xF;
  };

  Fe acc = table[digit(windows - 1)];  // top window is nonzero by bit_length
  for (std::size_t wi = windows - 1; wi-- > 0;) {
    acc = mont_sqr(acc);
    acc = mont_sqr(acc);
    acc = mont_sqr(acc);
    acc = mont_sqr(acc);
    const u64 d = digit(wi);
    if (d != 0) acc = mont_mul(acc, table[d]);
  }
  return acc;
}

namespace {

// Limb helpers for the binary extended Euclid below. All operate on the full
// kMaxLimbs width (upper limbs are zero for narrower moduli).

inline bool limbs_is_zero(const u64* a) {
  u64 acc = 0;
  for (std::size_t i = 0; i < kMaxLimbs; ++i) acc |= a[i];
  return acc == 0;
}

inline bool limbs_is_one(const u64* a) {
  u64 acc = a[0] ^ 1u;
  for (std::size_t i = 1; i < kMaxLimbs; ++i) acc |= a[i];
  return acc == 0;
}

/// a >= b as full-width unsigned integers.
inline bool limbs_ge(const u64* a, const u64* b) {
  for (std::size_t i = kMaxLimbs; i-- > 0;) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

/// a -= b (caller guarantees a >= b).
inline void limbs_sub(u64* a, const u64* b) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < kMaxLimbs; ++i) {
    const u128 diff = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1u;
  }
}

/// a >>= 1, shifting in `top` as the new most-significant bit.
inline void limbs_shr1(u64* a, u64 top) {
  for (std::size_t i = 0; i + 1 < kMaxLimbs; ++i) {
    a[i] = (a[i] >> 1) | (a[i + 1] << 63);
  }
  a[kMaxLimbs - 1] = (a[kMaxLimbs - 1] >> 1) | (top << 63);
}

/// Halve a mod p for odd p: a/2 if even, (a+p)/2 otherwise. The sum may
/// carry out of kMaxLimbs limbs; the carry re-enters through the shift.
inline void limbs_halve_mod(u64* a, const u64* p) {
  u64 carry = 0;
  if (a[0] & 1u) {
    for (std::size_t i = 0; i < kMaxLimbs; ++i) {
      const u128 cur = static_cast<u128>(a[i]) + p[i] + carry;
      a[i] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
  }
  limbs_shr1(a, carry);
}

/// a = (a - b) mod p (both already reduced).
inline void limbs_submod(u64* a, const u64* b, const u64* p) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < kMaxLimbs; ++i) {
    const u128 diff = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1u;
  }
  if (borrow) {
    u64 carry = 0;
    for (std::size_t i = 0; i < kMaxLimbs; ++i) {
      const u128 cur = static_cast<u128>(a[i]) + p[i] + carry;
      a[i] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
  }
}

}  // namespace

std::optional<Fe> MontCtx::inv_mont(const Fe& x) const {
  // Binary extended Euclid (HAC 14.61) on the canonical value: 3–5× cheaper
  // than the previous Fermat ladder (which cost a full ~n·64-bit windowed
  // exponentiation, ~70 µs at 512 bits, per inversion). from_mont/to_mont
  // re-anchor the Montgomery domain: inv(a)·R = to_mont(binary_inv(from_mont(x))).
  const Fe a = from_mont(x);
  if (is_zero(a)) return std::nullopt;

  u64 u[kMaxLimbs];
  u64 v[kMaxLimbs];
  u64 x1[kMaxLimbs] = {1};
  u64 x2[kMaxLimbs] = {};
  for (std::size_t i = 0; i < kMaxLimbs; ++i) {
    u[i] = a.w[i];
    v[i] = p_.data()[i];
  }

  while (!limbs_is_one(u) && !limbs_is_one(v)) {
    // gcd(a, p) > 1: u and v converge on the gcd and one side hits zero.
    if (limbs_is_zero(u) || limbs_is_zero(v)) return std::nullopt;
    while (!(u[0] & 1u)) {
      limbs_shr1(u, 0);
      limbs_halve_mod(x1, p_.data());
    }
    while (!(v[0] & 1u)) {
      limbs_shr1(v, 0);
      limbs_halve_mod(x2, p_.data());
    }
    if (limbs_ge(u, v)) {
      limbs_sub(u, v);
      limbs_submod(x1, x2, p_.data());
    } else {
      limbs_sub(v, u);
      limbs_submod(x2, x1, p_.data());
    }
  }

  Fe inv;
  const u64* r = limbs_is_one(u) ? x1 : x2;
  for (std::size_t i = 0; i < kMaxLimbs; ++i) inv.w[i] = r[i];
  return to_mont(inv);
}

std::vector<Fe> MontCtx::inv_batch_mont(std::span<const Fe> xs) const {
  if (xs.empty()) return {};
  std::vector<Fe> prefix(xs.size());
  prefix[0] = xs[0];
  if (is_zero(xs[0])) throw std::domain_error("inv_batch_mont: zero element");
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (is_zero(xs[i])) throw std::domain_error("inv_batch_mont: zero element");
    prefix[i] = mont_mul(prefix[i - 1], xs[i]);
  }
  auto running = inv_mont(prefix.back());
  if (!running) throw std::domain_error("inv_batch_mont: product not invertible");
  std::vector<Fe> out(xs.size());
  for (std::size_t i = xs.size(); i-- > 1;) {
    out[i] = mont_mul(*running, prefix[i - 1]);
    running = mont_mul(*running, xs[i]);
  }
  out[0] = *running;
  return out;
}

// Big-endian strings map to limbs eight bytes at a time from the end; only
// the leading word may be shorter.
std::optional<Fe> MontCtx::from_bytes(std::span<const std::uint8_t> be) const noexcept {
  Fe out;
  std::size_t end = be.size();
  for (std::size_t i = 0; end > 0; ++i) {
    const std::size_t len = std::min<std::size_t>(end, 8);
    end -= len;
    const u64 word = load_be(be.data() + end, len);
    if (i < n_) {
      out.w[i] = word;
    } else if (word != 0) {
      return std::nullopt;
    }
  }
  if (limbs_ge(out.w.data(), p_.data())) return std::nullopt;
  return out;
}

void MontCtx::to_bytes(const Fe& x, std::span<std::uint8_t> out) const noexcept {
  std::size_t end = out.size();
  for (std::size_t i = 0; end > 0; ++i) {
    const std::size_t len = std::min<std::size_t>(end, 8);
    end -= len;
    store_be(i < kMaxLimbs ? x.w[i] : 0, out.data() + end, len);
  }
}

}  // namespace seccloud::field::fixed

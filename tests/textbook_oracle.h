// Textbook reference arithmetic for the differential suite: plain BigUint
// with `%` and num::inv_mod, affine point formulas, double-and-add, and an
// affine Miller loop followed by a square-and-multiply final exponentiation.
// It shares no arithmetic and no value type with src/field, src/ec or
// src/pairing: its points and F_{p²} elements are BigUint pairs of its own,
// and tests compare them with production values through the canonical
// import/export (ec::Curve::point/coordinates, Fp2Field::element/coordinates).
//
// The Miller loop follows the production edge policy (y = 0 → O, T = P →
// tangent, T = −P → O without a line). Its lines differ from the production
// Jacobian lines by F_p* factors, which the final exponentiation removes, so
// only GT values are comparable — raw Miller values are not.
#pragma once

#include <optional>
#include <utility>

#include "bigint/biguint.h"
#include "bigint/modular.h"

namespace seccloud::oracle {

using num::BigUint;

/// Affine point with canonical coordinates; the point at infinity is
/// {infinity = true}.
struct Point {
  BigUint x;
  BigUint y;
  bool infinity = true;

  static Point at_infinity() { return {}; }
  static Point affine(BigUint px, BigUint py) { return {std::move(px), std::move(py), false}; }

  bool operator==(const Point&) const = default;
};

/// a + b·i in F_{p²} with canonical components.
struct Fp2 {
  BigUint a;
  BigUint b;

  bool operator==(const Fp2&) const = default;
};

/// F_p by definition.
struct Fp {
  BigUint p;

  BigUint add(const BigUint& a, const BigUint& b) const { return (a + b) % p; }
  BigUint sub(const BigUint& a, const BigUint& b) const { return (a % p + p - b % p) % p; }
  BigUint neg(const BigUint& a) const { return (p - a % p) % p; }
  BigUint mul(const BigUint& a, const BigUint& b) const { return (a * b) % p; }
  BigUint pow(const BigUint& a, const BigUint& e) const {
    BigUint r = BigUint{1} % p;
    for (std::size_t i = e.bit_length(); i-- > 0;) {
      r = mul(r, r);
      if (e.bit(i)) r = mul(r, a);
    }
    return r;
  }
  std::optional<BigUint> inv(const BigUint& a) const { return num::inv_mod(a % p, p); }
  BigUint div(const BigUint& a, const BigUint& b) const { return mul(a, *inv(b)); }
  /// Euler's criterion (0 counts as a square).
  bool is_square(const BigUint& a) const {
    return (a % p).is_zero() || pow(a, (p - BigUint{1}) >> 1) == BigUint{1};
  }

  Fp2 mul2(const Fp2& x, const Fp2& y) const {
    return {sub(mul(x.a, y.a), mul(x.b, y.b)), add(mul(x.a, y.b), mul(x.b, y.a))};
  }
  Fp2 pow2(const Fp2& x, const BigUint& e) const {
    Fp2 r{BigUint{1}, BigUint{}};
    for (std::size_t i = e.bit_length(); i-- > 0;) {
      r = mul2(r, r);
      if (e.bit(i)) r = mul2(r, x);
    }
    return r;
  }
};

/// Affine y² = x³ + a·x + b over F_p, plus the modified Tate pairing of a
/// given order on y² = x³ + x with distortion map φ(x, y) = (−x, i·y).
struct Curve {
  Fp f;
  BigUint a;

  Point reduced(const Point& pt) const {
    return pt.infinity ? Point::at_infinity() : Point::affine(pt.x % f.p, pt.y % f.p);
  }

  /// Slope of the tangent at T (y ≠ 0).
  BigUint tangent_slope(const Point& t) const {
    const BigUint three_x2_plus_a = f.add(f.mul(BigUint{3}, f.mul(t.x, t.x)), a);
    return f.div(three_x2_plus_a, f.add(t.y, t.y));
  }

  /// T + U for the line through T with slope λ.
  Point along(const Point& t, const Point& u, const BigUint& lambda) const {
    const BigUint x3 = f.sub(f.sub(f.mul(lambda, lambda), t.x), u.x);
    return Point::affine(x3, f.sub(f.mul(lambda, f.sub(t.x, x3)), t.y));
  }

  Point dbl(const Point& pt) const {
    const Point t = reduced(pt);
    if (t.infinity || t.y.is_zero()) return Point::at_infinity();
    return along(t, t, tangent_slope(t));
  }

  Point add(const Point& lhs, const Point& rhs) const {
    const Point t = reduced(lhs);
    const Point u = reduced(rhs);
    if (t.infinity) return u;
    if (u.infinity) return t;
    if (t.x == u.x) return t.y == u.y ? dbl(t) : Point::at_infinity();
    return along(t, u, f.div(f.sub(u.y, t.y), f.sub(u.x, t.x)));
  }

  Point mul(const BigUint& k, const Point& pt) const {
    Point acc = Point::at_infinity();
    for (std::size_t i = k.bit_length(); i-- > 0;) {
      acc = dbl(acc);
      if (k.bit(i)) acc = add(acc, pt);
    }
    return acc;
  }

  /// f_{n,P}(φ(Q)) with affine lines y − y_T − λ(x − x_T); vertical lines
  /// lie in F_p and are skipped.
  Fp2 miller(const BigUint& n, const Point& p_in, const Point& q_in) const {
    const Point p = reduced(p_in);
    const BigUint xq = f.neg(q_in.x);
    const BigUint yq = q_in.y % f.p;
    Fp2 acc{BigUint{1}, BigUint{}};
    Point t = p;
    const auto line = [&](const BigUint& lambda) {
      acc = f.mul2(acc, Fp2{f.sub(f.neg(t.y), f.mul(lambda, f.sub(xq, t.x))), yq});
    };
    const auto tangent = [&] {
      if (t.y.is_zero()) {
        t = Point::at_infinity();
        return;
      }
      line(tangent_slope(t));
      t = dbl(t);
    };
    for (std::size_t i = n.bit_length() - 1; i-- > 0;) {
      acc = f.mul2(acc, acc);
      if (!t.infinity) tangent();
      if (!n.bit(i)) continue;
      if (t.infinity) {
        t = p;
      } else if (t.x == p.x) {
        if (t.y == p.y) {
          tangent();
        } else {
          t = Point::at_infinity();
        }
      } else {
        line(f.div(f.sub(p.y, t.y), f.sub(p.x, t.x)));
        t = add(t, p);
      }
    }
    return acc;
  }

  /// ê(P, Q) = f_{n,P}(φ(Q))^((p² − 1)/n); ê(O, ·) = ê(·, O) = 1.
  Fp2 pair(const BigUint& n, const Point& p_in, const Point& q_in) const {
    if (p_in.infinity || q_in.infinity) return {BigUint{1}, BigUint{}};
    return f.pow2(miller(n, p_in, q_in), (f.p * f.p - BigUint{1}) / n);
  }
};

}  // namespace seccloud::oracle

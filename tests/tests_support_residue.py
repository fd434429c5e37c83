"""Constructors of randomized (f, omega) pairs for the residue-theorem suite,
and the two sides of the residue identity.

Both families produce a rational function with divisor supported at
explicitly computed Qp-points together with its exact values at the cusps,
so both sides of the residue identity are computable independently.
"""

from fractions import Fraction

from affine_chabauty.integration import residue_log_sum
from affine_chabauty.numberfield import NFElement
from affine_chabauty.padics import (
    PadicNumber,
    hensel_lift_root,
    horner,
    sqrt as padic_sqrt,
)
from tests_support import reference_log


def residue_theorem_check(I, divisor, cusp_values: dict, omega):
    """(lhs, rhs) of the residue identity for div(f) and omega on the
    integrator I.

    divisor: [(point, multiplicity)] supported in Y;
    cusp_values: cusp id -> f(Q) as an element of k(Q) (nonzero).
    """
    lhs = I.divisor_integral(omega, divisor)
    terms = []
    for cusp in I.curve.cusps:
        val = cusp_values[cusp.id]
        if not isinstance(val, NFElement):
            val = cusp.nfield(val)
        terms.append((cusp, I.problem.logs(cusp, val), 1))
    return lhs, residue_log_sum(I.p, omega, terms, I.problem.embeddings)


# -- polynomials over PadicNumber coefficients (dense lists, ascending) -------


def ptrim(a):
    n = len(a)
    while n > 0 and a[n - 1].is_exact_zero():
        n -= 1
    return a[:n]


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return out


def pscale(a, c):
    return [x * c for x in a]


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [PadicNumber.exact_zero(p)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_exact_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_exact_zero():
                out[i + j] = out[i + j] + x * y
    return out


def pdivmod(a, b, p):
    """Division with remainder; the divisor's leading coefficient must be a unit."""
    b = ptrim(list(b))
    lead = b[-1]
    inv = lead.inverse()
    rem = list(a)
    if len(rem) < len(b):
        return [], rem
    q = [PadicNumber.exact_zero(p)] * (len(rem) - len(b) + 1)
    for i in range(len(rem) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * inv
        if c.is_exact_zero() or c.is_zero():
            q[i] = c if not c.is_exact_zero() else PadicNumber.exact_zero(p)
            continue
        q[i] = c
        for j, y in enumerate(b):
            rem[i + j] = rem[i + j] - c * y
    return q, rem[: len(b) - 1]


def _sqrt_hint(u, p):
    r = u % p
    return next(h for h in range(1, p) if h * h % p == r)


def lagrange(pts, p, M):
    out = []
    for i, (xi, yi) in enumerate(pts):
        num = [PadicNumber.from_int(1, p, M)]
        den = PadicNumber.from_int(1, p, M)
        for j, (xj, _) in enumerate(pts):
            if i == j:
                continue
            num = pmul(num, [PadicNumber.from_int(-xj, p, M),
                             PadicNumber.from_int(1, p, M)], p)
            den = den * (xi - xj)
        out = padd(out, pscale(num, yi * den.inverse()))
    return out


def strong_even_pair(I, rng, omega=None):
    """f = (y - h)/(y + h) on the even fixture curve, h interpolated so the
    divisor splits over Q7; returns (lhs, rhs) of the residue identity."""
    p = I.p
    m = I.main_model()
    curve = I.curve
    while True:
        xs = rng.sample(range(-30, 30), 4)
        if len({x % p for x in xs}) < 4:
            continue
        pts = []
        ok = True
        for x in xs:
            v = PadicNumber.from_rational(curve.rhs(Fraction(x)), p, m.M)
            if v.is_zero() or v.v != 0 or pow(v.u % p, (p - 1) // 2, p) != 1:
                ok = False
                break
            hint = _sqrt_hint(v.u, p)
            if rng.random() < 0.5:
                hint = p - hint
            pts.append((x, padic_sqrt(v, sign_hint=hint)))
        if not ok:
            continue
        h = lagrange(pts, p, m.M)
        if len(h) < 4:
            continue
        c = h[-1]
        if c.is_zero() or (c - 1).is_zero() or (c + 1).is_zero():
            continue
        H = pmul(h, h, p)
        fpad = [PadicNumber.from_rational(cc, p, m.M) for cc in curve.f]
        size = max(len(H), len(fpad))
        H = [(H[k] if k < len(H) else PadicNumber.exact_zero(p))
             - (fpad[k] if k < len(fpad) else PadicNumber.exact_zero(p))
             for k in range(size)]
        quad = H
        for x, _ in pts:
            quad, _rem = pdivmod(quad, [PadicNumber.from_int(-x, p, m.M),
                                        PadicNumber.from_int(1, p, m.M)], p)
        q0, q1, q2 = quad[0], quad[1], quad[2]
        if q2.is_zero() or q2.v != 0:
            continue
        disc = q1 * q1 - 4 * q0 * q2
        if disc.is_zero() or disc.v != 0 or pow(disc.u % p, (p - 1) // 2, p) != 1:
            continue
        root = padic_sqrt(disc, sign_hint=_sqrt_hint(disc.u, p))
        x5 = (-q1 + root) / (2 * q2)
        x6 = (-q1 - root) / (2 * q2)
        if x5.v < 0 or x6.v < 0 or (x5 - x6).is_zero():
            continue
        extra = []
        bad = False
        for xv in (x5, x6):
            yv = horner(h, xv, PadicNumber.exact_zero(p))
            if yv.is_zero() or yv.v != 0:
                bad = True
                break
            extra.append((xv, yv))
        if bad:
            continue
        divisor = []
        for x, y in pts:
            xv = PadicNumber.from_rational(x, p, m.M)
            divisor.append(((xv, y), 1))
            divisor.append(((xv, -y), -1))
        for xv, yv in extra:
            divisor.append(((xv, yv), 1))
            divisor.append(((xv, -yv), -1))
        omega = omega or curve.differential(
            [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)),
             Fraction(rng.randint(1, 3))])
        lhs = I.divisor_integral(omega, divisor)
        kappa_p = (1 - c) / (1 + c)
        kappa_m = (-1 - c) / (-1 + c)
        rplus = curve.residue_at_cusp(2, curve.cusps[0]).as_rational() * omega.coeffs[2]
        rminus = curve.residue_at_cusp(2, curve.cusps[1]).as_rational() * omega.coeffs[2]
        rhs = reference_log(kappa_p) * rplus + reference_log(kappa_m) * rminus
        return lhs, rhs


def strong_super_pair(I, rng, omega=None):
    """f = (u - a1)/(u - a2) on the superelliptic fixture; the cusp values
    involve both the rational and the quadratic cusp."""
    curve = I.curve
    p = I.p
    a = curve.a
    hi = 40
    pairs = []
    attempts = 0
    while len(pairs) < 2 and attempts < 500:
        attempts += 1
        aval = rng.randint(-25, 25)
        if aval % p in (1, 2, 4) or aval in (0, 1):
            continue
        disc = Fraction(a * a) + 4 * (Fraction(aval) ** 3 - 1)
        dv = PadicNumber.from_rational(disc, p, hi)
        if dv.is_zero() or dv.v != 0 or pow(dv.u % p, (p - 1) // 2, p) != 1:
            continue
        root = padic_sqrt(dv, sign_hint=_sqrt_hint(dv.u, p))
        v1 = (-a + root) / 2
        v2 = (-a - root) / 2
        if v1.is_zero() or v2.is_zero():
            continue
        pairs.append((aval, v1, v2))
    if len(pairs) < 2:
        raise RuntimeError("could not sample a function")
    (a1, v11, v12), (a2, v21, v22) = pairs

    def to_xy(u, v):
        return (v.inverse(), u * v.inverse())

    divisor = [(to_xy(PadicNumber.from_int(a1, p, hi), v11), 1),
               (to_xy(PadicNumber.from_int(a1, p, hi), v12), 1),
               (to_xy(PadicNumber.from_int(a2, p, hi), v21), -1),
               (to_xy(PadicNumber.from_int(a2, p, hi), v22), -1)]
    omega = omega or curve.differential(
        [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3)),
         Fraction(rng.randint(-3, 3))])
    lhs = I.divisor_integral(omega, divisor)
    q1, q2 = curve.cusps
    f_q1 = q1.nfield(Fraction(1 - a1, 1 - a2))
    zeta = q2.nfield.gen()
    f_q2 = (zeta - a1) * (zeta - a2).inv()
    rhs = PadicNumber.exact_zero(p)
    for cusp, val in ((q1, f_q1), (q2, f_q2)):
        for phi in I.problem.embeddings(cusp):
            r = omega.embedded_residue(cusp, phi)
            if r.is_zero():
                continue
            rhs = rhs + r * reference_log(phi(val))
    return lhs, rhs


def line_divisors(I, Q, rng, count=2):
    """Divisors of f = (y - lam x - b1)/(y - lam x - b2) on y^3 = g(x) through
    the affine point Q, for count slopes lam with lam^3 != 1 mod p.

    The line y = lam x + b1 passes through Q; b2 is an integer for which
    y = lam x + b2 meets the curve in three points over Zp.  lam^3 != 1 keeps
    both lines off the points at infinity, so f = 1 at every cusp.  Returns
    [(point, multiplicity)] lists of the five points besides Q.
    """
    p, hi = I.p, 40
    g = [PadicNumber.from_int(c, p, hi) for c in I.curve.g]
    xq, yq = Q
    out, slopes = [], set()
    while len(out) < count:
        lam = rng.randint(-9, 9)
        if (lam ** 3 - 1) % p == 0 or lam in slopes:
            continue
        # (lam x + b)^3 - g(x) for the line through Q, divided by x - x(Q)
        b1 = yq - xq * lam
        c = [b1 ** 3 - g[0], b1 * b1 * (3 * lam) - g[1], b1 * (3 * lam * lam) - g[2],
             PadicNumber.from_int(lam ** 3, p, hi) - g[3]]
        q2 = c[3]
        q1 = c[2] + xq * q2
        q0 = c[1] + xq * q1
        disc = q1 * q1 - q2 * q0 * 4
        if disc.is_zero() or disc.v != 0 or pow(disc.u % p, (p - 1) // 2, p) != 1:
            continue
        root = padic_sqrt(disc, sign_hint=_sqrt_hint(disc.u, p))
        xs = [(-q1 + root) / (q2 * 2), (-q1 - root) / (q2 * 2)]
        if any(x.v < 0 or (x - xq).is_zero() for x in xs):
            continue
        b2 = rng.randint(-30, 30)
        cubic = [b2 ** 3 - I.curve.g[0], 3 * lam * b2 * b2 - I.curve.g[1],
                 3 * lam * lam * b2 - I.curve.g[2], lam ** 3 - I.curve.g[3]]
        roots = [r for r in range(p) if sum(a * r ** k for k, a in enumerate(cubic)) % p == 0]
        if len(roots) != 3:
            continue
        lifted = [PadicNumber.from_int(hensel_lift_root(cubic, r, p, hi), p, hi) for r in roots]
        slopes.add(lam)
        out.append([((x, x * lam + b1), 1) for x in xs]
                   + [((x, x * lam + b2), -1) for x in lifted])
    return out

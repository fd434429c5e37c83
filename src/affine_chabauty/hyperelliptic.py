"""Frobenius-lift machinery and Coleman integration on the charts y^n = g(x).

Works with y^n = g(x) over Zp, g squarefree mod p with unit leading
coefficient, n | deg g and p = 1 mod n (good reduction; n = 2 is the
hyperelliptic case).  The Frobenius action is computed on the
Monsky-Washnitzer basis x^i dx/y^b, i = 0..deg g - 2 and b = 1..n-1: the
lift commutes with y -> zeta y, so each eigenspace b is reduced on its own
(Gaudry-Gurel, ASIACRYPT 2001; Minzlaff, Math. Comput. Sci. 2010).

The reduction keeps, per basis element, the exact-form bookkeeping needed
to evaluate the associated dagger function at integration endpoints, so a
Coleman integral between non-ramified points costs only a small linear
solve once the cohomology computation is cached.  Endpoints on a ramified
(Weierstrass) disc go through the automorphism (x, y) -> (x, zeta y) of
order n, which fixes the ramification points.

The model is also the one residue-disc layer of its chart: teichmueller_point
centers a disc, disc_series parametrizes it and expands the basis on it, once
per disc, and tiny_basis_integrals integrates there.  integration.py reads
every disc center, expansion and tiny integral from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from operator import mul

from .curves import _inverse_mod_p, reduction_defect
from .errors import BadReduction, DifferentDiscs, EndpointRestriction, PrecisionExceeded
from .linalg import padic_det, padic_solve
from .padics import (PadicNumber, _horner_mod, _normal, _taylor_shift, _vp, hensel_lift_root,
                     horner, nth_root, teichmuller)
from .series import _ZERO, IntSeries, Subordination, antiderivative
from .series import sqrt_series  # noqa: F401  (perfbench/spans.py traces this binding)


class Point:
    __slots__ = ("x", "y")

    def __init__(self, x: PadicNumber, y: PadicNumber):
        self.x, self.y = x, y

    def __iter__(self):
        return iter((self.x, self.y))

    def __repr__(self):
        return f"({self.x}, {self.y})"


def _point_key(pt) -> tuple:
    """An endpoint (x, y) of rationals or PadicNumbers, each coordinate as its Fraction
    (an int or Fraction as it is) or its (v, u, N): equal keys are identical endpoints."""
    return tuple((c.v, c.u, c.N) if isinstance(c, PadicNumber)
                 else c if type(c) is Fraction or type(c) is int else Fraction(c) for c in pt)


class FrobeniusData:
    __slots__ = ("matrix", "dagger", "trunc_prec", "headroom", "a_p", "point_count")

    def __init__(self,
                 matrix: list,     # rows: image of omega_i in the basis
                 dagger: list,     # per i: (pole_parts [(m, poly)], y_parts [(s, coeff)]), ints
                 trunc_prec: int,  # precision cap coming from the series truncation
                 headroom: int,    # L: a dagger int c is c / p^L to absolute precision trunc_prec
                 a_p: int, point_count: int):
        self.matrix, self.dagger, self.trunc_prec = matrix, dagger, trunc_prec
        self.headroom, self.a_p, self.point_count = headroom, a_p, point_count


class HyperellipticModel:
    """y^n = f(x) over Zp with good reduction; Coleman integration backend.

    basis lists the Monsky-Washnitzer basis x^i dx/y^b as (i, b), eigenspace
    by eigenspace; for n = 2 it is x^i dx/y, i = 0..2g."""

    def __init__(self, f_coeffs, p: int, prec: int, n: int = 2):
        """The chart at working precision prec: K = prec + 6 terms of the Frobenius
        series, tp = K - 4 provable digits, Kedlaya's headroom L and one
        precision M = tp + 2L for f, zeta, points, disc centers and disc series
        (see _compute_frobenius for L).  M is what each consumer needs:

        * dagger_eval reads points at tp + S digits, and S <= L;
        * the reduction needs f and the Bezout cofactor of f' mod p^(tp + 2L);
        * a tiny integral loses at most floor(log_p(2 prec)) <= L digits to the
          divisions of the antiderivative and b <= n - 1 <= L digits to the p^-b
          scale of a Weierstrass disc (n <= 3, L >= 2), so of M it keeps tp
          (the series order 2 prec bounds it on its own).
        """
        self.p = p
        self.prec = prec
        self.n = n
        self.f_rational = [Fraction(c) for c in f_coeffs]
        deg = len(f_coeffs) - 1
        while deg >= 0 and self.f_rational[deg] == 0:
            deg -= 1
        if deg % n or (n - 1) * (deg - 2) < 2:
            raise ValueError(f"need genus >= 1 and {n} | deg f, got degree {deg}")
        why = reduction_defect(self.f_rational[: deg + 1], n, p)
        if why:
            raise BadReduction(why)
        self.deg = deg
        self.g = (n - 1) * (deg - 2) // 2
        self.basis = [(i, b) for b in range(1, n) for i in range(deg - 1)]
        self.dim = len(self.basis)
        self.K = prec + 6
        self.tp = self.K - 4  # the K-term series truncation caps provable digits
        # the pole orders of the reduction run to top = pK + (p - 1)b/n, b <= n - 1
        top = p * self.K + (p - 1) * (n - 1) // n
        self.L = sum(max(_vp(k, p) for k in range(1, bound + 1))
                     for bound in (n * top + n - 1, n * p * (deg - 1) + (2 * n - 1) * deg))
        self.M = self.tp + 2 * self.L
        self.f = [PadicNumber.from_rational(c, p, self.M) for c in self.f_rational[: deg + 1]]
        # zeta, a primitive n-th root of unity: the Teichmueller lift of one mod p
        order_n = next(r for r in range(2, p) if pow(r, n, p) == 1
                       and all(pow(r, k, p) != 1 for k in range(1, n)))
        self.zeta = teichmuller(PadicNumber.from_int(order_n, p, self.M))
        self._frob: FrobeniusData | None = None
        self._discs: dict = {}
        self._centers: dict = {}
        self._dagger: tuple | None = None
        self._x_classes: dict = {}
        self._solve_frob = None

    # -- point utilities -------------------------------------------------------

    def curve_rhs(self, x: PadicNumber) -> PadicNumber:
        return horner(self.f, x, PadicNumber.exact_zero(self.p))

    def point(self, x, y) -> Point:
        xp = x if isinstance(x, PadicNumber) else PadicNumber.from_rational(x, self.p, self.M)
        yp = y if isinstance(y, PadicNumber) else PadicNumber.from_rational(y, self.p, self.M)
        if not (yp ** self.n - self.curve_rhs(xp)).is_zero():
            raise ValueError(f"({x}, {y}) is not on the curve")
        return Point(xp, yp)

    def is_weierstrass_disc(self, pt: Point) -> bool:
        return pt.y.is_zero() or pt.y.v >= 1

    def _disc_key(self, pt: Point) -> tuple[int, int]:
        """(x mod p, y mod p) of pt: its residue disc, with y mod p = 0 on a
        Weierstrass disc."""
        if pt.x.v < 0:
            raise EndpointRestriction("point lies in an infinite disc")
        return pt.x.residue(1), pt.y.residue(1)

    def teichmueller_point(self, pt: Point) -> Point:
        """The Frobenius-fixed center of pt's disc at precision M, once per disc: on a
        Weierstrass disc (y = 0 mod p) the root of f over x mod p with y = 0, otherwise
        the Teichmueller lift of x mod p and the n-th root of f there over y mod p."""
        key = xbar, ybar = self._disc_key(pt)
        if key not in self._centers:
            zero = PadicNumber.exact_zero(self.p)
            if self.is_weierstrass_disc(pt):
                x0 = hensel_lift_root([c.residue(self.M) for c in self.f], xbar, self.p, self.M)
                self._centers[key] = Point(PadicNumber.from_int(x0, self.p, self.M), zero)
            else:
                xt = zero if xbar == 0 else teichmuller(PadicNumber.from_int(xbar, self.p, self.M))
                self._centers[key] = Point(xt, nth_root(self.curve_rhs(xt), self.n, ybar))
        return self._centers[key]

    # -- local expansions --------------------------------------------------------

    def disc_series(self, pt: Point):
        """(x(t), y(t)) to order 2 prec and the series of each basis monomial
        x^i dx/y^b on pt's disc, centered at teichmueller_point(pt), as IntSeries,
        built once per disc by one int kernel mod p^M in the scaled parameter s = p t.

        Affine discs: x = x0 + s, G = f(x0 + s), z = G^(-1/n) by Newton (dividing
        only by the unit n), y = G z^(n-1), x^i dx/y^b = p (x0 + s)^i z^b.
        Weierstrass discs: y = s and x = x0 + E(w) solves f(x) = w = s^n by Newton;
        x^i dx/y^b = p x'(s) x^i / s^b.  An s-coefficient C_k exact mod p^M makes
        the t-coefficient p^k C_k exact mod p^(M + k); each keeps the smaller N that
        PadicNumber arithmetic on x = x0 + p t, p known mod p^M, gives it: N_0 = M
        and N_k = M + k - 1 in x(t) and y(t), N_k = M + k in x^i dx/y^b, plus
        v_p(k + b + 1) (the index of x') in x^0 dx/y^b on a Weierstrass disc.  With
        x0 = 0 and p | f_1, y_1 = p f_1 / (n y0^(n-1)) has M + 1 and coefficient
        i + 1 of x^i dx/y^b M + i + 2.  Exact zeros lie off the n-periodic support of
        a Weierstrass series and below t^i in x^i dx/y^b when x0 = 0; a computed
        zero elsewhere is O(p^N).
        """
        key = self._disc_key(pt)
        if key not in self._discs:
            self._discs[key] = _local_parametrization(self.f, self.n, self.teichmueller_point(pt),
                                                      self.M, 2 * self.prec, self.basis)
        return self._discs[key]

    # -- Frobenius data ------------------------------------------------------------

    def frobenius_data(self) -> FrobeniusData:
        if self._frob is None:
            self._frob = self._compute_frobenius()
        return self._frob

    def _compute_frobenius(self) -> FrobeniusData:
        """Frobenius on the basis and the exact parts of its reduction: Kedlaya's
        algorithm on ints mod p^N, one eigenspace b at a time.

        The lift x -> x^p, y -> y^p (1 + E)^(1/n), E = (f(x^p) - f^p)/f^p, gives
        phi(x^i dx/y^b) = sum_j r_j x^(p i + p - 1) dx / y^(b + n(top - j)), with
        top = pK + (p - 1)b/n and r_j integral.  _reduce divides by b + n(m - 1),
        m <= top, and by n s + (n - b) deg, s < p(deg - 1) + deg.  An exact part dh
        that removes a pole of order k of h divides by k, and max v_p(k), k <= B, is
        floor(log_p B).  So Kedlaya's precision lemmas for A(x) dx/y^(2m+1) and for
        x^s dx/y ("Counting points on hyperelliptic curves using Monsky-Washnitzer
        cohomology", 2001, section 4; for even degree Harrison, "An extension of
        Kedlaya's algorithm for hyperelliptic curves", J. Symb. Comput. 2012; for
        y^n = f Gaudry-Gurel 2001, section 4, and Minzlaff 2010) bound the
        denominators of the whole reduction of an integral form by p^L:
        L = floor(log_p(n top + b)) for the pole steps plus
        floor(log_p(n p (deg - 1) + (2n - 1) deg)) for the degree steps, at b = n - 1.
        _reduce scales the digits by p^(L+1), p^L and the p of phi, so its divisions
        are exact on ints.  A reduction mod p^N adds p^(N-L) times an integral form, which the rest
        multiplies by at most p^-L: N = tp + 2L, the model's M, keeps tp digits
        (L = 3 and N = 24 at p = 23, prec 16, where summing every v_p gave 46).

        The numerator num = sum_k c_k u^k f^(p(K-k)), u = f(x^p) - f^p, is needed
        only mod p^m, m = N - L - 1.  u is 0 mod p and each c_k = binomial(-b/n, k)
        is a p-adic integer independent of K, so u^k vanishes mod p^m for k >= m:
        with K' = min(K, m - 1), num = f^(p(K - K')) num' mod p^m, num' the
        numerator at K' terms.  Its f-adic digits are p(K - K') zeros, then those
        of num', so the reduction starts at pole level pK' + (p - 1)b/n and the
        levels above it, all zero, are skipped (K - K' = 3 at p = 23, prec 12).

        The digits of num' form a valuation triangle: term k is 0 mod p^k and fills
        digits p(K' - k) .. pK', so digit block i (digits p i .. p i + p - 1) is 0 mod
        p^(K' - i) (20 - i at p = 23, prec 12, for i <= 7, where p | c_k).  So
        _numerator_digits splits the terms at h = ceil((K' + 1)/2): the first h are
        f^(p(K'-h+1)) A_0, A_0 = sum_(k<h) c_k u^k f^(p(h-1-k)) mod p^m, of half the
        degree; the rest are p^h A_1, A_1 = U^h sum_(k>=h) c_k u^(k-h) f^(p(K'-k)),
        U = u/p, needed only mod p^(m-h).  Radix conversion is linear, and exact over
        Z/p^j as f has a unit leading coefficient: the digits of num' mod p^m are
        those of A_0 moved up p(K' - h + 1) places plus p^h times those of A_1.

        Both layers are shifted by x^(p - 1) before their conversion: the digits are
        those of x^(p - 1) num', and _reduce takes each next basis element's from
        the one before times x^p, one linear map on its digit columns mod p^m by the
        digits of x^(p + k), k < deg, with no carry (_shifted_digits).
        """
        p, K, d, n = self.p, self.K, self.deg, self.n
        tp, L, N = self.tp, self.L, self.M
        # S = (1 + E)^(-b/n) = num / f^(pK);  p num = sum_j r_j f^j, so
        # p S / y^(pb) = sum_j r_j / y^(b + n(top - j)).  _reduce takes p^L r_j mod
        # p^N, which needs num only mod p^m, m = N - L - 1.
        m = N - L - 1
        Kp = min(K, m - 1)  # K': the terms k >= m vanish mod p^m
        fm = [c.residue(m) for c in self.f]
        fint, t_bez = [c.residue(N) for c in self.f], self._bezout()
        zero = PadicNumber.exact_zero(p)
        shifts = [p * i + p - 1 for i in range(d - 1)]
        # one tower of f^(2^k) mod p^m for every numerator times x^(p - 1), and for x^(p + k)
        nums, tower = _numerator_digits(fm, p, Kp, m, [Fraction(-b, n) for b in range(1, n)],
                                        p + d, shifts[0])
        matrix, dagger = [], []
        for b, num in enumerate(nums, 1):
            # phi(x^i dx/y^b) = p x^(p i + p - 1) S dx/y^(pb); the digits of x^(p - 1) num'
            # start at level pK' + (p - 1)b/n, and _reduce scales them by p^(N-m) = p^(L+1)
            for col, poles, ys in self._reduce(num, shifts, p * Kp + (p - 1) * b // n,
                                               fint, t_bez, N, L, tp, b, (p ** m, tower)):
                # Frobenius keeps each eigenspace: exact zeros outside block b
                matrix.append([zero] * (b - 1) * (d - 1) + col + [zero] * (n - 1 - b) * (d - 1))
                dagger.append((poles, ys))
        a_p, count = self._verify(matrix)
        return FrobeniusData(matrix=matrix, dagger=dagger, trunc_prec=tp, headroom=L,
                             a_p=a_p, point_count=count)

    def _reduce(self, digits, shifts, top, f, t, M, L, cap, b=1, tower=None):
        """Reduce  p^(M-m) x^(s - shifts[0]) sum_j digits[j] dx / (p^L y^(b + n(top - j)))  to
        the basis x^i dx/y^b for each shift s in shifts, recording the exact parts: digits
        are the f-adic digits mod p^m of x^(shifts[0]) times a numerator, and tower, (p^m,
        _f_adic_tower of f mod p^m), converts the step between shifts (by default m = M).
        Integer polynomials mod p^M; f is the model's, t the cofactor of f' from _bezout.
        A stored int c stands for c / p^L: dividing by b + n(m - 1) or n s + (n - b) deg
        divides by its p-part exactly or raises PrecisionExceeded.  Per shift the outputs
        are c / p^L to absolute precision cap, M >= cap + 2L: the column as PadicNumbers,
        the exact parts as the ints c mod p^(cap + L)."""
        p, d, n = self.p, self.deg, self.n
        mod, keep = p ** M, p ** (cap + L)
        fprime = [k * c % mod for k, c in enumerate(f)][1:]
        lead_inv = pow(f[-1], -1, mod)
        # per x^k, k < deg: B = x^k t mod f and the exact quotient (x^k - B f') / f
        maps = []
        for k in range(d):
            B = _int_divmod_f(_int_pmul([0] * k + [1], t, mod), f, mod)[1]
            Q, rem = _int_divmod_f(_int_sub([0] * k + [1], _int_pmul(B, fprime, mod), mod), f, mod)
            if any(rem):
                raise PrecisionExceeded("f does not divide P - B f' to the working precision")
            maps.append([(B + [0] * d)[:d], (Q + [0] * d)[:d]])
        Bcols, Qcols = (list(zip(*cols)) for cols in zip(*maps))  # R -> B and R -> Q
        # per level m: k = b + n(m - 1) and n/k mod p^M, or None where p | k
        steps = [(m, k, n * pow(k, -1, mod) if k % p else None)
                 for m, k in ((m, b + n * (m - 1)) for m in range(top, 0, -1))]

        def out(c):
            return PadicNumber(p, *_normal(c, -L, cap, p))

        def divide(cs, k):  # n cs / k, exactly on the stored ints
            a = _vp(k, p)
            cs = [c % mod for c in cs]
            if any(c % p ** a for c in cs):
                raise PrecisionExceeded(f"dividing by {k} needs more than p^{L} of headroom")
            inv = n * pow(k // p ** a, -1, mod)
            return [c // p ** a * inv % mod for c in cs]

        frac = (n - b) * pow(n, -1, mod) % mod
        results = []
        modm, tower = tower or (mod, None)
        scale = mod // modm
        for Dm in _shifted_digits(digits, shifts, [c % modm for c in f], modm, tower):
            D = [[c * scale for c in r] for r in Dm]
            poles = []   # (m, poly): exact part  poly(x) / y^(b + n(m-1))
            yparts = []  # (s, coeff): exact part  coeff * x^s * y^(n-b)
            C = []  # what the steps above m left in degree < deg
            for m, k, inv in steps:
                # level m holds (H f + R) dx/y^(b+nm), and H f dx/y^(b+nm) is H dx/y^(b+n(m-1));
                # with R = B f' + Q f, B = R t mod f, k = b + n(m-1), R dx/y^(b+nm) =
                # (Q + n B'/k) dx/y^k - d(n B / (k y^k))
                R = _int_padd(D[top - m] if top - m < len(D) else [], C, mod)
                B = [sum(map(mul, R, col)) for col in Bcols]
                B = [c * inv % mod for c in B] if inv else divide(B, k)
                C = [sum(map(mul, R, col)) for col in Qcols]
                for k in range(1, d):
                    C[k - 1] += k * B[k]
                C = [c % mod for c in C]
                if any(R):
                    poles.append((m, [-c % keep for c in B]))
            P = []
            for r in reversed(D[top:]):
                P = _int_padd(_int_pmul(P, f, mod), r, mod)
            P = _int_padd(P, C, mod)
            while len(P) > d - 1:
                c = P.pop()
                if not c:  # zero class
                    continue
                s = len(P) - d + 1
                # d(x^s y^(n-b)) = (s x^(s-1) f + ((n-b)/n) x^s f') dx/y^b cancels the top
                # term lam * x^(s+d-1)
                lam = divide([c * lead_inv], n * s + (n - b) * d)[0]
                if s:
                    P[s - 1] -= lam * s * f[0]
                for k in range(d - 1):
                    P[s + k] -= lam * (s * f[k + 1] + frac * fprime[k])
                P = [c % mod for c in P]
                yparts.append((s, lam % keep))
            results.append(([out(c) for c in P] + [out(0)] * (d - 1 - len(P)), poles, yparts))
        return results

    def _bezout(self) -> list:
        """t with t f' = 1 mod f, deg t < deg f, as ints mod p^M (disc f is a unit):
        f'^-1 mod (f, p) by the extended Euclid, lifted by Newton's t <- t (2 - f' t) mod f."""
        mod = self.p ** self.M
        f = [c.residue(self.M) for c in self.f]
        fprime = [k * c % mod for k, c in enumerate(f)][1:]
        t = _inverse_mod_p(fprime, f, self.p)
        for _ in range(self.M.bit_length()):  # after k steps t is right mod p^(2^k)
            err = _int_divmod_f(_int_pmul(fprime, t, mod), f, mod)[1]
            t = _int_divmod_f(_int_pmul(t, _int_sub([2], err, mod), mod), f, mod)[1]
        return t

    def _verify(self, matrix):
        p = self.p
        tr = sum((matrix[i][i] for i in range(1, self.dim)), matrix[0][0])
        count, at_infinity = self._point_count_fp()
        # the log classes see the n points at infinity: Frobenius acts on their
        # degree-zero combinations by p times its permutation of the points
        a_p = p + 1 - count
        expected_tr = a_p + p * (at_infinity - 1)
        if tr.compare(expected_tr) == "distinct":
            raise PrecisionExceeded(
                f"Frobenius trace {tr} does not match the point count {count}")
        if a_p * a_p > 4 * self.g * self.g * p:
            raise BadReduction("point count violates the Weil bound")
        # det = p^g (the L-part) times p^(n-1) and the sign of Frobenius on the points at
        # infinity's degree-zero combinations: 1 if it fixes them, else (-1)^(n-1), an
        # n-cycle's (n <= 3)
        det = padic_det([row[:] for row in matrix])
        sign = 1 if at_infinity == self.n else (-1) ** (self.n - 1)
        if det.is_zero() or det.compare(sign * p ** (self.g + self.n - 1)) == "distinct":
            raise PrecisionExceeded(
                f"det(Frobenius) {det} != {sign} p^{self.g + self.n - 1}")
        return a_p, count

    def _point_count_fp(self) -> tuple[int, int]:
        """#C(F_p) of the smooth model and how many of its n points at infinity
        are F_p-rational: all n if lc(f) is an n-th power mod p, else none."""
        p, n = self.p, self.n
        fbar = [c.residue(1) for c in self.f]
        count = 0
        for x in range(p):
            fx = _horner_mod(fbar, x, p)
            if fx == 0:
                count += 1
            elif pow(fx, (p - 1) // n, p) == 1:
                count += n
        at_infinity = n if pow(fbar[-1], (p - 1) // n, p) == 1 else 0
        return count + at_infinity, at_infinity

    # -- integration ---------------------------------------------------------------

    def _packed_dagger(self) -> tuple:
        """(scales, packed, width, yparts), once per model, from the ints c / p^L of
        FrobeniusData.dagger.  The dagger function of basis element i = x^j dx/y^b is
        y^(n-b) F_i(x, 1/y^n), F_i = sum_m B_m(x) z^m + sum_s lam_s x^s, and p^S F_i, S =
        scales[i] the least that clears every denominator, is an int known to trunc_prec + S
        digits.  packed[m - 1] holds every element's B_m in width-byte slots, element by
        element and x-degree by x-degree, up to the last level with a nonzero B_m (the top
        levels are zero mod p^(trunc_prec + L)); yparts[i] lists element i's lam_s by s."""
        if self._dagger is None:
            frob = self.frobenius_data()
            p, L, d = self.p, frob.headroom, self.deg
            rows, scales, yparts = {}, [], []
            for i, (poles, ys) in enumerate(frob.dagger):
                for m, B in poles:
                    if any(B):
                        rows.setdefault(m, [0] * d * self.dim)[i * d:(i + 1) * d] = B
                g = gcd(p ** L, *(c for _, B in poles for c in B), *(lam for _, lam in ys))
                scales.append(L - _vp(g, p))
                yparts.append([0] * (1 + max((s for s, _ in ys), default=-1)))
                for s, lam in ys:
                    yparts[-1][s] = lam
            top = max(rows, default=0)
            width = _slot_width(p ** (frob.trunc_prec + L), top)
            packed = [_pack(rows.get(m, ()), width) for m in range(1, top + 1)]
            self._dagger = scales, packed, width, yparts
        return self._dagger

    def dagger_eval(self, i: int, pt: Point) -> PadicNumber:
        """Value at pt of the recorded dagger function for basis element i, on ints mod
        p^(N + S), N the provable precision.  The points (x, zeta^k y) share z = 1/y^n: on
        the first touch of their x-class, keyed on x's (v, u, N), e = min(trunc_prec +
        max S, x.N, y.N) >= each N + S and the int y^n mod p^e, one dot product of the
        powers of z mod p^e with _packed_dagger's levels gives p^(L - S) times every
        coefficient of every element's F(x, z), and one Horner pass in x mod p^(e + L - S)
        per element finishes it.  F mod p^(N + S), a ring map's image, is read from it."""
        if pt.y.is_zero() or pt.y.v != 0:
            raise EndpointRestriction("dagger functions diverge on Weierstrass discs")
        scales, packed, width, yparts = self._packed_dagger()
        frob, p, d = self.frobenius_data(), self.p, self.deg
        e = min(frob.trunc_prec + max(scales), pt.x.N, pt.y.N)
        R = p ** e
        yn = pow(pt.y.residue(e), self.n, R)
        key = pt.x.v, pt.x.u, pt.x.N, e, yn
        if key not in self._x_classes:
            zs = [pow(yn, -1, R)]
            for _ in range(len(packed) - 1):
                zs.append(zs[-1] * zs[0] % R)
            dot, x, Fs = sum(map(mul, packed, zs)), pt.x.residue(e), []
            for k, (S, ys) in enumerate(zip(scales, yparts)):
                mod = p ** (e + frob.headroom - S)
                F = _horner_mod(_unpack(dot, len(scales) * d, width, mod, k * d, k * d + d), x, mod)
                Fs.append((F + _horner_mod(ys, x, mod)) % mod // p ** (frob.headroom - S))
            self._x_classes[key] = Fs
        S = scales[i]
        N = min(frob.trunc_prec, pt.x.N - S, pt.y.N - S)
        R = p ** (N + S)
        A = pow(pt.y.residue(N + S), self.n - self.basis[i][1], R) * self._x_classes[key][i] % R
        return PadicNumber(p, *_normal(A, -S, N, p))

    def tiny_basis_integrals(self, P: Point, Q: Point) -> list[PadicNumber]:
        """Integrals of the basis between two points of one residue disc.

        Between identical endpoints (equal (v, u, N) in x and y) each integral is
        exactly 0, and no series is integrated.  That exact zero is sound: the
        integral from a point to itself is 0.  It is also the common case: the
        callers integrate only from a point to its own Teichmueller point, and
        teichmueller_point is idempotent, so a disc center is its own, and so is
        a point at precision M whose x is 0 or a root of unity (the fixtures'
        points have x in {0, +-1}).  basis_integrals caps every sum at
        trunc_prec anyway.
        """
        if self._disc_key(P) != self._disc_key(Q):
            raise DifferentDiscs("tiny integral endpoints lie in the discs over "
                                 f"{self._disc_key(P)} and {self._disc_key(Q)}")
        if _point_key(P) == _point_key(Q):
            return [PadicNumber.exact_zero(self.p)] * self.dim
        xs, _, monomials = self.disc_series(P)
        wdisc = self.is_weierstrass_disc(P)
        # the disc parameter: y = p t on a Weierstrass disc, x = x(center) + p t otherwise
        tP, tQ = ((pt.y if wdisc else pt.x - xs.padic(0)) / self.p for pt in (P, Q))
        out = []
        for integrand in monomials:
            F = antiderivative(integrand)
            out.append(F.evaluate(tQ) - F.evaluate(tP))
        return out

    def basis_integrals(self, P, Q) -> list[PadicNumber]:
        """Coleman integrals of all basis differentials from P to Q.

        sigma(x, y) = (x, zeta y) fixes every Weierstrass point W and scales
        x^i dx/y^b by zeta^-b, so the integral from sigma^-1 Q to Q is
        (1 - zeta^b) times the integral from W to Q, and the integral between
        two Weierstrass points vanishes.  For n = 2 sigma is the involution.
        """
        p = self.p
        wP, wQ = self.is_weierstrass_disc(P), self.is_weierstrass_disc(Q)
        if wP and wQ:
            t1 = self.tiny_basis_integrals(P, self.teichmueller_point(P))
            t2 = self.tiny_basis_integrals(self.teichmueller_point(Q), Q)
            # the integral between the two Weierstrass points vanishes
            return [a + b for a, b in zip(t1, t2)]
        if wP:
            t1 = self.tiny_basis_integrals(P, self.teichmueller_point(P))
            back = self.basis_integrals(Point(Q.x, Q.y * self.zeta ** (self.n - 1)), Q)
            return [t1[i] + back[i] / (1 - self.zeta ** b)
                    for i, (_, b) in enumerate(self.basis)]
        if wQ:
            return [-x for x in self.basis_integrals(Q, P)]
        TP, TQ = self.teichmueller_point(P), self.teichmueller_point(Q)
        t1 = self.tiny_basis_integrals(P, TP)
        t2 = self.tiny_basis_integrals(TQ, Q)
        mid = self._teich_system(TP, TQ)
        cap = self.frobenius_data().trunc_prec
        out = []
        for i in range(self.dim):
            val = t1[i] + mid[i] + t2[i]
            out.append(val.at_precision(min(val.N, cap)) if not val.is_exact_zero()
                       else PadicNumber.unknown_zero(p, cap))
        return out

    def _teich_system(self, TP: Point, TQ: Point) -> list[PadicNumber]:
        if _point_key(TP) == _point_key(TQ):
            return [PadicNumber.exact_zero(self.p)] * self.dim
        rhs = [self.dagger_eval(i, TQ) - self.dagger_eval(i, TP) for i in range(self.dim)]
        if self._solve_frob is None:  # I - Frob eliminated once per model
            one = PadicNumber.from_int(1, self.p, self.M)
            self._solve_frob = padic_solve([[one - c if i == j else -c for j, c in enumerate(row)]
                                            for i, row in enumerate(self.frobenius_data().matrix)])
        return self._solve_frob(rhs)


# -- integer polynomial helpers (the Frobenius kernel, mod p^N) ----------------


def _int_padd(a, b, mod):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % mod
    return out


def _int_sub(a, b, mod):
    return _int_padd(a, [(-c) % mod for c in b], mod)


def _int_pmul(a, b, mod, lo=0, hi=None):
    """Slots lo..hi - 1 of the product of polynomials with coefficients in [0, mod),
    reduced mod mod; hi defaults to, and is capped at, the product's length.

    Kronecker substitution into byte-aligned slots: below _KS2 coefficients per factor
    one native bigint product, from _KS2 on Harvey's KS2 ("Faster polynomial
    multiplication via multipoint Kronecker substitution", J. Symb. Comput. 2009),
    two products of half the length (_pack2, _mul2, _unpack2)."""
    if not a or not b:
        return []
    width, ks2 = _slot_width(mod, min(len(a), len(b))), min(len(a), len(b)) >= _KS2
    xa = _pack2(a, width, ks2)
    xb = xa if b is a else _pack2(b, width, ks2)
    return _unpack2(_mul2(xa, xb, width), len(a) + len(b) - 1, width, mod, lo, hi)


# Factors of at least _KS2 coefficients multiply by KS2: against one product, a
# product of two n-coefficient factors mod about p^24 (p = 7, 23, 47) took 1.03-1.06
# at n = 16, 0.93-1.01 at n = 24, 0.87-1.01 at n = 32 and 0.71-0.75 at n = 512; the
# Frobenius build moved less than its run-to-run spread from _KS2 = 16 to 64.
_KS2 = 32


def _slot_width(mod, terms):
    """Bytes per Kronecker slot: room for a sum of terms products below mod^2."""
    return (2 * mod.bit_length() + terms.bit_length()) // 8 + 1


def _pack(cs, width):
    """The integer whose width-byte slots hold cs."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in cs), "little")


def _unpack(x, size, width, mod, lo=0, hi=None):
    """Slots lo..hi - 1 of the size width-byte slots of x, each reduced mod mod;
    hi defaults to, and is capped at, size."""
    raw = x.to_bytes(size * width, "little")
    hi = size if hi is None else min(hi, size)
    return [int.from_bytes(raw[i:i + width], "little") % mod
            for i in range(lo * width, hi * width, width)]


def _pack2(cs, width, ks2):
    """a = sum cs[i] x^i as a Kronecker factor: (a(2^(8 width)),), or for KS2 (a(2^(4
    width)), a(-2^(4 width))), the even coefficients packed in width-byte slots plus
    and minus the odd ones packed and moved up half a slot."""
    if not ks2:
        return (_pack(cs, width),)
    even, odd = _pack(cs[::2], width), _pack(cs[1::2], width) << 4 * width
    return even + odd, even - odd


def _mul2(xa, xb, width):
    """The product of two _pack2 factors as its k = len(xa) phases: phase j packs the
    coefficients i = j mod k in width-byte slots.  For KS2 they are (P + M) / 2 and
    (P - M) / 2^(4 width + 1), P and M the products at +-2^(4 width), exact as every
    coefficient fits its slot."""
    if len(xa) == 1:
        return [xa[0] * xb[0]]
    plus, minus = xa[0] * xb[0], xa[1] * xb[1]
    return [(plus + minus) >> 1, (plus - minus) >> 4 * width + 1]


def _unpack2(phases, size, width, mod, lo=0, hi=None):
    """_unpack for the size-slot product given as _mul2's phases, interleaved."""
    k = len(phases)
    if k == 1:
        return _unpack(phases[0], size, width, mod, lo, hi)
    hi = size if hi is None else min(hi, size)
    out = [0] * max(hi - lo, 0)
    for j, x in enumerate(phases):  # coefficient i = j + k t is slot t of phase j
        out[(j - lo) % k::k] = _unpack(x, (size - j + k - 1) // k, width, mod,
                                       (lo - j + k - 1) // k, (hi - j + k - 1) // k)
    return out


def _int_pmul_stride(a, g, p, mod):
    """a(x) g(x^p): one product with g per exponent class of a mod p."""
    if not a or not g:
        return []
    out = [0] * (len(a) + (len(g) - 1) * p)
    for r in range(min(p, len(a))):
        out[r::p] = _int_pmul(a[r::p], g, mod)
    return out


def _numerator_digits(f, p, K, N, alphas, size, shift):
    """The f-adic digits mod p^N of x^shift num, num = sum_k c_k u^k f^(p(K-k)), c_k =
    binomial(alpha, k) and u = f(x^p) - f^p, so that (1 + u/f^p)^alpha = num / f^(pK) to
    K terms, per p-adic integer alpha in alphas, in the two layers of
    HyperellipticModel._compute_frobenius, and the tower of f mod p^N they share,
    which covers polys of length size too."""
    h = (K + 2) // 2
    mod, mod1 = p ** N, p ** (N - h)
    fpow = [[1]]  # f^m for m <= p and every F-exponent of either layer, all <= h / 2
    for _ in range(max(p, h // 2)):
        fpow.append(_int_pmul(fpow[-1], f, mod))
    u = _int_sub(_int_pmul_stride([1], f, p, mod), fpow[p], mod)
    fpow1, u1 = [[c % mod1 for c in g] for g in fpow[:h // 2 + 1]], [c % mod1 for c in u]
    U = Uh = [c // p % mod1 for c in u]
    for bit in bin(h)[3:]:  # U^h mod p^(N-h), left to right by squaring
        Uh = _int_pmul(Uh, Uh, mod1)
        if bit == "1":
            Uh = _int_pmul(Uh, U, mod1)
    d = len(f) - 1  # A_0 and A_1 have lengths p d (h - 1) + 1 and p d K + 1 before the shift
    tower = _f_adic_tower(f, max(size, p * d * (h - 1) + 1 + shift), mod)
    upper = _f_adic_tower(f, p * d * K + 1 + shift, mod1, tower)
    out = []
    for alpha in alphas:
        c, ck = [], Fraction(1)
        for k in range(K + 1):
            c.append(ck.numerator * pow(ck.denominator, -1, mod) % mod)
            ck = ck * (alpha - k) / (k + 1)
        A1 = [0] * shift + _int_pmul(
            Uh, _frobenius_numerator([a % mod1 for a in c[h:]], fpow1, u1, p, mod1), mod1)
        digits = [[a * p ** h for a in r] for r in _f_adic_digits(A1, f, mod1, upper)]
        A0 = [0] * shift + _frobenius_numerator(c[:h], fpow, u, p, mod)
        for j, r in enumerate(_f_adic_digits(A0, f, mod, tower), p * (K - h + 1)):
            digits += [[]] * (j + 1 - len(digits))
            digits[j] = _int_padd(digits[j], r, mod)
        out.append(digits)
    return out, tower


def _shifted_digits(digits, shifts, f, mod, tower):
    """Per shift s, the f-adic digits mod mod of x^(s - shifts[0]) sum_j digits[j] f^j,
    shifts spaced by one step e: each from the one before by a linear map on its digit
    columns.  With T_k the digits of x^(e + k), k < deg f, converted once (tower, if
    given, seeds their tower of f), x^e sum_j D_j f^j = sum_(j, l) f^(j + l) sum_k D_j[k]
    T_k[l], and as the f-adic expansion mod mod is unique (f has a unit leading
    coefficient), the next digits are E_(j + l)[c] = sum_k D_j[k] T_k[l][c]: per c, one
    Kronecker sum of scalar multiples of the packed columns D_.[k], with no carry."""
    d, out = len(f) - 1, [digits]
    e = shifts[1] - shifts[0] if len(shifts) > 1 else 0
    own = _f_adic_tower(f, e + d, mod, tower)
    T = [_f_adic_digits([0] * (e + k) + [1], f, mod, own) for k in range(d)]
    L = max(map(len, T))
    T = [[(r + [0] * d)[:d] for r in t] + [[0] * d] * (L - len(t)) for t in T]  # T[k][l][c]
    width = _slot_width(mod, d * L)
    for _ in shifts[1:]:
        D = out[-1]
        cols = [_pack(col, width) for col in zip(*(r + [0] * (d - len(r)) for r in D))]
        E = []
        for c in range(d):
            acc = 0
            for l in range(L - 1, -1, -1):
                acc = (acc << 8 * width) + sum(t[l][c] * col for t, col in zip(T, cols))
            E.append(_unpack(acc, len(D) + L - 1, width, mod))
        D = [list(r) for r in zip(*E)]
        while D and not any(D[-1]):
            D.pop()
        out.append(D)
    return out


def _frobenius_numerator(c, fpow, u, p, mod):
    """sum_k c_k u^k f^(p(K-k)) mod mod, K = len(c) - 1, given u = f(x^p) - f^p and
    fpow[m] = f^m for m = p and every F-exponent, all <= (K + 1) / 2.

    With F = f(x^p) = f^p + u this is sum_j a_j u^j F^(K-j), built by binary
    splitting, P(lo, hi) = F^(hi-mid) P(lo, mid) + u^(mid-lo) P(mid, hi), bottom
    up with mid - lo a power of 2.  A product by F^m = f^m(x^p) is p small
    products (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 10).
    """
    K = len(c) - 1
    level = [[sum((-1) ** (j - k) * comb(K - k, j - k) * c[k] for k in range(j + 1)) % mod]
             for j in range(K + 1)]  # the P(j, j + 1) = a_j
    width, upow = 1, u  # every node but the last sums width terms; upow = u^width
    while len(level) > 1:
        last = K + 1 - width * (len(level) - 1)
        merged = []
        for i in range(0, len(level) - 1, 2):
            m = width if i + 2 < len(level) else last  # terms of the right node
            merged.append(_int_padd(_int_pmul_stride(level[i], fpow[m], p, mod),
                                    _int_pmul(upow, level[i + 1], mod), mod))
        level = merged + level[2 * len(merged):]
        width *= 2
        if len(level) > 1:
            upow = _int_pmul(upow, upow, mod)
    return level[0] if level else []


def _int_divmod_f(poly, f, mod):
    """poly = q*f + r with deg r < deg f; f has unit leading coefficient."""
    d = len(f) - 1
    lead_inv = pow(f[-1], -1, mod)
    rem = list(poly)
    q = [0] * (len(poly) - d)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = rem[i + d] * lead_inv % mod
        if c:
            for k in range(d):
                rem[i + k] -= c * f[k]
    return q, [c % mod for c in rem[:d]]


def _int_series_inv(a, n, mod, h=(), r=1):
    """a^(-1/r) mod x^n, a(0) and r units, by Newton's iteration h <- h + h (1 - a h^r) / r
    from h = a^(-1/r) mod x^len(h), by default 1/a(0) for r = 1."""
    h, rinv = list(h) or [pow(a[0], -1, mod)], pow(r, -1, mod)
    while len(h) < n:
        k = min(2 * len(h), n)
        hr = h
        for _ in range(r - 1):
            hr = _int_pmul(hr, h, mod, 0, k)
        err = _int_pmul(a[:k], hr, mod, len(h), k)  # a h^r = 1 + x^len(h) err
        h += _int_pmul([-c * rinv % mod for c in err], h, mod, 0, k - len(h))
    return h


class _Tower:
    __slots__ = ("mod", "levels", "phi")

    def __init__(self, mod, levels, phi):  # levels: (f^(2^k), 1 / rev f^(2^k))
        self.mod, self.levels, self.phi = mod, levels, phi


def _f_adic_tower(f, size, mod, tables=None):
    """(f^(2^k), inverse of its reversal) mod mod up to the first 2 deg f^(2^k) >= size,
    each inverse as long as the quotients of a poly of length size use: deg f^(2^k)
    below the top level, size - deg at it (a shorter poly reads a prefix); and the leaf
    map of _f_adic_digits.  It extends tables, a tower of f mod a multiple of mod, reducing
    its levels and map, and seeds each new inverse: 1/rev(g^2) = (1/rev g)^2."""
    out = []
    while not out or 2 * (len(out[-1][0]) - 1) < size:
        if tables and len(out) < len(tables.levels):
            g, h = ([c % mod for c in cs] for cs in tables.levels[len(out)])
        else:
            g, h = (_int_pmul(g, g, mod), _int_pmul(h, h, mod, 0, len(h))) if out else (f, [])
        n = len(g) - 1
        h = _int_series_inv(g[::-1], n if 2 * n < size else size - n, mod, h)
        out.append((g, h))
    if tables:
        phi = tables.phi if tables.mod == mod else [[c % mod for c in r] for r in tables.phi]
    else:  # row c, the digits of x^c, is row c - 1 times x, x^deg f = (f - f_low) / lc(f)
        d, lead_inv = len(f) - 1, pow(f[-1], -1, mod)
        rows = [[1] + [0] * (8 * d - 1)]
        while len(rows) < 8 * d:
            new, carry = [], 0
            for o in range(0, len(rows) // d * d + 1, d):  # x^c has digits j <= c / deg f
                s = rows[-1][o + d - 1] * lead_inv % mod
                new += [(a - s * fc) % mod for a, fc in zip([carry] + rows[-1][o:o + d - 1], f)]
                carry = s
            rows.append(new + [0] * (8 * d - len(new)))
        phi = [list(col[r // d * d:]) for r, col in enumerate(zip(*rows))]
    return _Tower(mod, out, phi)


def _f_adic_digits(poly, f, mod, tower=None):
    """Digits r_j, deg r_j < deg f, of poly = sum_j r_j f^j, on the tower of f (by
    default built for poly).

    Radix conversion: divide and conquer over g = f^(2^k), k >= 3, each division one
    product with the inverse of the reversed divisor (von zur Gathen-Gerhard, Modern
    Computer Algebra, 9.1-9.2): g and its inverse, sliced to the quotient's lq slots,
    packed by _pack2 once per conversion and lq in _slot_width(mod, deg g + 1) bytes (a
    slot sums at most deg g + 1 products below mod^2), both products by _mul2 (KS2 from
    lq = _KS2 on), the remainder read off the bytes of each phase in one pass.  Levels
    0-2 are one linear map on the chunks left, of length B = 8 deg f at most: phi[r]
    holds coefficient r = j deg f + i of the digits of x^c, j deg f <= c < B (x^c has
    no digit j below), each x^c the one before times
    x with one carry per digit.  Per output coefficient, one Kronecker sum of scalar
    multiples of the packed columns (one slot per chunk, one int per index c), a slot
    summing B products below mod^2 in _slot_width(mod, B) bytes.  As f has a unit
    leading coefficient the expansion mod every p^j is unique and linear: these are the
    recursion's digits.  B = 8 deg f beat 4 and 16 deg f at hyper p = 7, 23, super p = 7.
    """
    tower = tower or _f_adic_tower(f, len(poly), mod)
    d, B = len(f) - 1, 8 * len(f) - 8
    top = next(k for k, (g, _) in enumerate(tower.levels) if 2 * (len(g) - 1) >= len(poly))
    levels = [(len(g) - 1, _slot_width(mod, len(g)), g, h, {}) for g, h in tower.levels[3:top + 1]]
    chunks = []

    def split(a, k):  # deg a < 2 deg f^(2^k): 2^(k+1) digits, 2^(k-2) leaf chunks
        if k < 3:
            return chunks.append(a)
        n, w, g, h, packed = levels[k - 3]
        lq, q = len(a) - n, []
        if lq > 0:
            ks2 = lq >= _KS2
            if lq not in packed:  # g and the inverse sliced to lq, once per quotient length
                packed[lq] = _pack2(g, w, ks2), _pack2(h[:lq], w, ks2)
            G, H = packed[lq]
            q = _mul2(_pack2(a[:n - 1:-1], w, ks2), H, w)
            q = _unpack2(q, 2 * lq - 1, w, mod, 0, lq)[::-1]
            phases = _mul2(_pack2(q, w, ks2), G, w)
            a, step = a[:n], len(phases)
            for j, x in enumerate(phases):  # the remainder, read off each phase's bytes
                raw = x.to_bytes((lq + n - j + step - 1) // step * w, "little")
                a[j::step] = [(c - int.from_bytes(raw[i:i + w], "little")) % mod
                              for c, i in zip(a[j::step], range(0, n * w, w))]
        split(a, k - 1)
        split(q, k - 1)

    split(poly, top)
    w, L = _slot_width(mod, B), max(map(len, chunks))  # columns c >= L and digits j >= L / d: 0
    cols = [_pack(col, w) for col in zip(*(a + [0] * (L - len(a)) for a in chunks))]
    tails = [cols[o:] for o in range(0, L, d)]  # digit j reads the columns c >= j deg f
    out = [_unpack(sum(map(mul, row, tails[r // d])), len(chunks), w, mod)
           for r, row in enumerate(tower.phi[:len(tails) * d])]
    out += [[0] * len(chunks)] * (B - len(out))
    digits = [list(cs[i:i + d]) for cs in zip(*out) for i in range(0, B, d)]
    while digits and not any(digits[-1]):
        digits.pop()
    return digits


# -- the residue-disc kernel: ints mod p^M in the scaled parameter s = p t --


def _local_parametrization(g, n: int, center: Point, M: int, T: int, basis) -> tuple:
    """x(t), y(t) and the series of x^i dx/y^b, (i, b) in basis, to order T on the
    disc of y^n = g(x) at center, built on ints mod p^M in s = p t, as IntSeries
    at the precisions disc_series states."""
    p = center.x.p
    mod, x0 = p ** M, center.x.residue(M)
    G = _taylor_shift([c.residue(M) for c in g], x0, mod)  # G(s) = g(x0 + s)
    pc, cx = (1, 1, M), (center.x.v, center.x.u, center.x.N)

    def series(cs, offset, exact=False):
        return IntSeries(p, cs, Subordination(1, offset), exact)

    ints = {}  # (i, b) -> the s-coefficients of x^i dx/y^b, mod p^M
    monos = []
    if center.y.is_zero():  # Weierstrass: y = s and x = x0 + E(w), g(x) = w = s^n
        E, R = [0], (T - 1) // n + 1  # x(s) to s^(T-1)
        while len(E) < R:  # Newton: E -= (G(E) - w) / G'(E)
            k = min(2 * len(E), R)
            F, D = [G[-1]], []
            for c in reversed(G[:-1]):
                D = _int_padd(_int_pmul(D, E, mod, 0, k), F, mod)
                F = _int_padd(_int_pmul(F, E, mod, 0, k), [c], mod)
            F = (_int_sub(F, [0, 1], mod) + [0] * k)[len(E):k]  # G(E) - w = 0 mod w^len(E)
            E += [-c % mod for c in _int_pmul(F, _int_series_inv(D, k - len(E), mod), mod,
                                              0, k - len(E))]
        X, xs = [x0] + E[1:], [cx] + [_ZERO] * (T - 1)
        for q in range(1, R):
            xs[n * q] = _normal(X[q], n * q, M + n * q - 1, p)
        for i, b in basis:  # X' X^i / s^b = s^(n-1-b) sum_q m_q w^q
            m = _int_pmul(ints[i - 1, b], X, mod, 0, len(X) - 1) if i else \
                [n * q * C for q, C in enumerate(X) if q]  # exact mod p^(M + v_p(q))
            cs = [_ZERO] * (T - 1 - b)
            for q, C in enumerate(m):
                j = n - 1 - b + n * q
                if j < len(cs) and (x0 or q >= i):
                    cs[j] = _normal(C, j + 1, M + j + (0 if i else _vp(q + 1, p)), p)
            ints[i, b] = [c % mod for c in m]
            monos.append(series(cs, 1))
        return series(xs, 0), series([_ZERO, pc] + [_ZERO] * (T - 2), 0, True), monos
    # affine: x = x0 + s, z = G^(-1/n) from 1/y0, y = G z^(n-1)
    z = _int_series_inv(G, T, mod, [pow(center.y.residue(M), -1, mod)], n)
    zs = [z]
    for _ in range(n - 2):
        zs.append(_int_pmul(zs[-1], z, mod, 0, T))
    Y = _int_pmul(G, zs[-1], mod, 0, T)
    lift = not x0 and G[1] % p == 0  # y_1 = p g_1 / (n y0^(n-1)) carried at M + 1
    ys = [_normal(C, k, M + max(k - 1, 0) + (lift and k == 1), p) for k, C in enumerate(Y)]
    for i, b in basis:  # x^i dx/y^b = p (x0 + s)^i z^b dt
        prev = ints.get((i - 1, b))
        m = ints[i, b] = [(x0 * c + d) % mod for c, d in zip(prev, [0] + prev)] if i else \
            zs[b - 1][:T - 1]
        monos.append(series([_normal(C, k + 1, M + k + (lift and k == i + 1), p)
                             if x0 or k >= i else _ZERO for k, C in enumerate(m)], 1))
    return series([cx, pc] + [_ZERO] * (T - 2), 0, True), series(ys, 0), monos

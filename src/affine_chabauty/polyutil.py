"""Polynomial helpers over PadicNumber coefficients (dense lists, ascending)."""

from __future__ import annotations

from .padics import PadicNumber


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


def pderiv(a):
    return [c * n for n, c in enumerate(a)][1:]


def peval(a, x, p):
    acc = PadicNumber.exact_zero(p)
    for c in reversed(a):
        acc = acc * x + c
    return acc

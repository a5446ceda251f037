"""Prime-field helpers: the sampling primes and univariate GF(p) arithmetic.

Univariate polynomials over GF(p) are plain coefficient lists, low degree
first, with no trailing zeros.  They back the line-restriction multiplicity
tests and determinant interpolation, where full multivariate arithmetic
would be wasteful.
"""

from __future__ import annotations

# Mersenne primes: 2^31-1 is the prime every casebook report records,
# 2^61-1 serves probabilistic identity testing (error bounds ~ deg/p per trial).
PRIME_31 = (1 << 31) - 1
PRIME_61 = (1 << 61) - 1

# A second big prime independent of PRIME_61, for two-prime zero testing:
# the least prime above it.
PRIME_61B = (1 << 61) + 15


# ---------------------------------------------------------------------------
# univariate GF(p) polynomials as coefficient lists (ascending degree)

def utrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def udeg(c: list[int]) -> int:
    return len(c) - 1


def uadd(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % p
    return utrim(out)


def uscale(a: list[int], s: int, p: int) -> list[int]:
    s %= p
    if s == 0:
        return []
    return utrim([v * s % p for v in a])


def umul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return utrim(out)


def udivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    binv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * binv % p
        k = len(a) - len(b)
        if c:
            q[k] = c
            for i, v in enumerate(b):
                a[k + i] = (a[k + i] - c * v) % p
        a.pop()
        utrim(a)
        if not a:
            break
    return utrim(q), a


def ugcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        _, r = udivmod(a, b, p)
        a, b = b, r
    if a:
        a = uscale(a, pow(a[-1], -1, p), p)
    return a


def ueval(a: list[int], t: int, p: int) -> int:
    """Value of `a` at t mod p, by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = (v * t + c) % p
    return v


def uderiv(a: list[int], p: int) -> list[int]:
    return utrim([(i * v) % p for i, v in enumerate(a)][1:])


def uinterpolate(points: list[tuple[int, int]], p: int) -> list[int]:
    """Newton interpolation through distinct nodes; exact over GF(p)."""
    xs = [x % p for x, _ in points]
    ys = [y % p for _, y in points]
    n = len(points)
    # divided differences
    dd = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            denom = (xs[i] - xs[i - j]) % p
            dd[i] = (dd[i] - dd[i - 1]) * pow(denom, -1, p) % p
    poly: list[int] = []
    basis = [1]
    for i in range(n):
        poly = uadd(poly, uscale(basis, dd[i], p), p)
        basis = umul(basis, [(-xs[i]) % p, 1], p)
    return poly


def factor_multiplicity_upoly(f: list[int], g: list[int], p: int) -> int:
    """Largest e with f^e | g over GF(p)[t]; f nonconstant, g nonzero."""
    if udeg(f) < 1 or not g:
        raise ValueError("need nonconstant f, nonzero g")
    e = 0
    while True:
        q, r = udivmod(g, f, p)
        if r:
            return e
        e += 1
        g = q
        if not g:
            return e

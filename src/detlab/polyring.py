"""Exact sparse multivariate polynomials over Q.

Monomials are exponent tuples indexed by ring variables; a polynomial is a
map from monomial to nonzero coefficient.  Coefficients are stored as int
when the denominator is 1 and as Fraction otherwise (always lowest terms,
positive denominator).  The identity tests read a family of polynomials
at a point or on a line without building another ring:
`evaluate_all(polys, point, p)` and `restrict_all(polys, base, direction,
p)` share one table of coordinate powers across the family, and
`Polynomial.evaluate` and `restrict_to_line` are their one-polynomial
cases.  Mod p a coefficient or coordinate a/b is read as a * b^-1.  All
operations are pure and values are immutable by convention, so sharing
across threads is safe.

Every monomial order here is a block order (`MonomialOrder`): variable
blocks, earlier ones dominating, each compared by grevlex in its listed
variable order.  grevlex(n) is the one block 0..n-1, and `block_order`
builds the elimination orders.  An order is read as a tuple key (`key`) or
as the nonnegative weight matrix (`weight_rows`) that the Groebner engine
packs; every term order is a weight-matrix order (Robbiano, EUROCAL 1985).
A ring carries one order, grevlex unless given, for leading terms and
exact division; text lists terms in grevlex in every ring.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add

from .modp import umul, utrim

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# monomial orders

class MonomialOrder:
    """A block order: the variables fall into blocks, an earlier block
    dominates a later one, and each block is compared by grevlex with its
    variables in the listed order (the first listed is the largest).

    One block over 0..n-1 is grevlex, one permuted block is grevlex under
    that variable order, singleton blocks are lex, and several blocks make
    an elimination order.  u < v in the order iff key(u) < key(v) as tuples
    iff W·u < W·v lexicographically for W = weight_rows().
    """

    __slots__ = ("blocks", "nvars", "id", "_rows")

    def __init__(self, blocks):
        self.blocks = tuple(tuple(b) for b in blocks if len(b))
        self.nvars = sum(map(len, self.blocks))
        if sorted(i for b in self.blocks for i in b) != list(range(self.nvars)):
            raise ValueError("order blocks must partition the variables")
        if len(self.blocks) > 1:
            inner = "|".join(f"{','.join(map(str, b))}:grevlex:{len(b)}" for b in self.blocks)
            self.id = f"block[{inner}]"
        else:
            b = self.blocks[0] if self.blocks else ()
            perm = "" if b == tuple(range(self.nvars)) else ":" + ",".join(map(str, b))
            self.id = f"grevlex:{self.nvars}{perm}"
        self._rows = _weight_rows(self.blocks, self.nvars)

    def key(self, e: tuple) -> tuple:
        """Per block: its degree, then its negated exponents, last listed
        variable first."""
        out = ()
        for b in self.blocks:
            neg = tuple([-e[i] for i in reversed(b)])
            out += (-sum(neg),) + neg
        return out

    def weight_rows(self) -> tuple[tuple, ...]:
        """Nonnegative integer matrix W such that u < v in the order iff
        W·u < W·v lexicographically (see `_weight_rows`), built once: equal
        orders share one tuple."""
        return self._rows

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        return f"MonomialOrder({self.id})"


@lru_cache(maxsize=None)
def _weight_rows(blocks: tuple, nvars: int) -> tuple[tuple, ...]:
    """The weight matrix of a block order, as a tuple of rows.

    A block b_0, ..., b_(k-1) gives the rows of the prefix sums
    e_b0 + ... + e_b(j-1) for j = k down to 1: its degree first, then
    the sums that a smaller exponent of a later variable makes larger.
    The blocks' rows are stacked in block order.
    """
    rows = []
    for b in blocks:
        for j in range(len(b), 0, -1):
            row = [0] * nvars
            for i in b[:j]:
                row[i] = 1
            rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def grevlex(nvars: int) -> MonomialOrder:
    return MonomialOrder([range(nvars)])


def block_order(blocks) -> MonomialOrder:
    """Elimination order: earlier blocks dominate later ones, each block is
    grevlex in its listed variable order."""
    return MonomialOrder(blocks)


# ---------------------------------------------------------------------------
# coefficient normalization

def _norm_q(c):
    """Canonical rational: int when integral, Fraction in lowest terms else.
    Subclasses become the plain types, so the kind of a canonical
    coefficient is told by `type(c) is Fraction`, without the ABC check."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, Fraction):
        return _norm_q(Fraction(c.numerator, c.denominator))
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an int or a Fraction: {c!r}")


def clear_denominators(items) -> tuple[dict, int]:
    """Integer form of (key, rational coefficient) pairs: ({key: c * den},
    den), where den is the least common multiple of the denominators."""
    items = list(items)
    den = 1
    for _, c in items:
        if type(c) is Fraction:
            den = den * c.denominator // gcd(den, c.denominator)
    return {k: int(c * den) for k, c in items}, den


def _mod_p(c, p: int) -> int:
    """Image of a rational number in GF(p); raises ZeroDivisionError
    when p divides its denominator."""
    if type(c) is int:
        return c % p
    den = c.denominator % p
    if not den:
        raise ZeroDivisionError("denominator divisible by p")
    return c.numerator * pow(den, -1, p) % p


def _content_strip(d: dict) -> dict:
    """Divide the integer values of `d` in place by their gcd; returns `d`."""
    g = 0
    for v in d.values():
        g = gcd(g, abs(v))
        if g == 1:
            return d
    if g > 1:
        for k in d:
            d[k] //= g
    return d


class Ring:
    """Q[variables] with a monomial order, grevlex unless one is given.

    Rings compare by their variable names alone, so one set of polynomials
    serves rings that differ only in their order.
    """

    __slots__ = ("variables", "order", "index", "_zero_exp")

    def __init__(self, variables, order: MonomialOrder | None = None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.variables = variables
        self.order = order if order is not None else grevlex(len(variables))
        self.index = {v: i for i, v in enumerate(variables)}
        self._zero_exp = (0,) * len(variables)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"Ring({','.join(self.variables)})"

    # -- constructors ------------------------------------------------------
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = _norm_q(c)
        return Polynomial(self, {self._zero_exp: c} if c else {})

    def var(self, i: int) -> "Polynomial":
        e = list(self._zero_exp)
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    def gens(self) -> list["Polynomial"]:
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff=1) -> "Polynomial":
        return Polynomial(self, {tuple(exps): coeff})

    def from_string(self, s: str) -> "Polynomial":
        return parse_polynomial(self, s)


def xring(n: int, order=None) -> Ring:
    """The standard ring Q[x0..x_{n-1}]."""
    return Ring(tuple(f"x{i}" for i in range(n)), order=order)


class Polynomial:
    """Immutable sparse polynomial; canonical form is unique per value."""

    __slots__ = ("ring", "terms", "_deg")

    def __init__(self, ring: Ring, terms: dict, _clean: bool = False):
        self.ring = ring
        if _clean:
            self.terms = terms
        else:
            clean = {}
            for e, c in terms.items():
                c = _norm_q(c)
                if c:
                    clean[tuple(e)] = c
            self.terms = clean
        self._deg = None

    # -- structure ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Total degree; the zero polynomial has degree -inf."""
        if self._deg is None:
            self._deg = max((sum(e) for e in self.terms), default=NEG_INF)
        return self._deg

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def support_vars(self) -> set[int]:
        out: set[int] = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    out.add(i)
        return out

    def leading_term(self):
        """(exponent, coefficient) of the largest monomial in the ring's
        order; None for zero."""
        if not self.terms:
            return None
        e = max(self.terms, key=self.ring.order.key)
        return e, self.terms[e]

    def leading_monomial(self):
        lt = self.leading_term()
        return None if lt is None else lt[0]

    # -- arithmetic ---------------------------------------------------------
    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("mixed ring contexts")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check_ring(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial(self.ring, out, _clean=_all_canonical(out))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _norm_q(other)
            if not c:
                return self.ring.zero()
            return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()})
        self._check_ring(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        _add_products(out, a, b)
        return Polynomial(self.ring, out, _clean=_all_canonical(out))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("pow exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k > 1
            k >>= 1
            if base_needed and k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self == self.ring.const(other)
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return format_polynomial(self)

    def __str__(self):
        return format_polynomial(self)

    # -- calculus, evaluation, substitution ---------------------------------
    def diff(self, var_index: int) -> "Polynomial":
        """Formal partial derivative."""
        if not 0 <= var_index < self.ring.nvars:
            raise ValueError(f"variable index {var_index} out of range")
        out: dict = {}
        for e, c in self.terms.items():
            k = e[var_index]
            if k:
                ne = e[:var_index] + (k - 1,) + e[var_index + 1:]
                v = out.get(ne, 0) + c * k
                if v:
                    out[ne] = v
                else:
                    out.pop(ne, None)
        return Polynomial(self.ring, out)

    def evaluate(self, point, p: int | None = None):
        """Value at `point`, exact or mod p (`evaluate_all`)."""
        return evaluate_all([self], point, p)[0]

    def compose(self, images: list["Polynomial"]) -> "Polynomial":
        """Substitute variable i -> images[i]; images live in one common ring."""
        if len(images) != self.ring.nvars:
            raise ValueError("need one image per variable")
        target = images[0].ring
        caches: list[dict] = [{0: target.one()} for _ in images]

        def pw(i, k):
            cache = caches[i]
            if k not in cache:
                cache[k] = pw(i, k - 1) * images[i]
            return cache[k]

        acc = target.zero()
        for e, c in self.terms.items():
            t = target.const(c)
            for i, k in enumerate(e):
                if k:
                    t = t * pw(i, k)
            acc = acc + t
        return acc

    def restrict_to_line(self, base, direction, p: int) -> list[int]:
        """Coefficients mod p of f(base + t*direction) (`restrict_all`)."""
        return restrict_all([self], base, direction, p)[0]


def _add_products(out: dict, a: dict, b: dict) -> None:
    """Add every product of a term of `a` and a term of `b` into the term
    dict `out`, dropping the terms that cancel."""
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            v = get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)


def _all_canonical(terms: dict) -> bool:
    for c in terms.values():
        if type(c) is Fraction and c.denominator == 1:
            return False
    return True


def _coordinates(point, polys, p):
    """The point's coordinates, exact or mod p (a/b read as a * b^-1)."""
    if any(len(point) != f.ring.nvars for f in polys):
        raise ValueError("point length mismatch")
    return [_norm_q(v) if p is None else _mod_p(_norm_q(v), p) for v in point]


def evaluate_all(polys, point, p: int | None = None) -> list:
    """Values of `polys` at `point`, exact or mod a prime p, from one table
    of the coordinates' powers.  A coordinate or coefficient is an int or a
    Fraction; mod p, a/b is read as a * b^-1, and p dividing b raises
    ZeroDivisionError."""
    point = _coordinates(point, polys, p)
    powers = [[1, v] for v in point]
    out = []
    for f in polys:
        acc = 0
        for e, c in f.terms.items():
            t = c if p is None or type(c) is int else _mod_p(c, p)
            for i, k in enumerate(e):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(pw[-1] * pw[1] if p is None else pw[-1] * pw[1] % p)
                    t *= pw[k]
            acc += t
        out.append(_norm_q(acc) if p is None else acc % p)
    return out


def restrict_all(polys, base, direction, p: int) -> list[list[int]]:
    """Per polynomial f, the coefficients mod p of f(base + t*direction)
    as a polynomial in t, lowest degree first, without trailing zeros, from
    one table of the powers of base_i + t*direction_i (values read as in
    `evaluate_all`)."""
    if all(not d for d in direction):
        raise ValueError("zero direction")
    base, direction = _coordinates(base, polys, p), _coordinates(direction, polys, p)
    powers = [[[1], utrim([b, d])] for b, d in zip(base, direction)]
    out = []
    for f in polys:
        acc: list = []
        for e, c in f.terms.items():
            t = [_mod_p(c, p)]
            for i, k in enumerate(e):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(umul(pw[-1], pw[1], p))
                    t = umul(t, pw[k], p)
            if len(t) > len(acc):
                acc += [0] * (len(t) - len(acc))
            for j, v in enumerate(t):
                acc[j] = (acc[j] + v) % p
        out.append(utrim(acc))
    return out


def dot(coeffs: list[Polynomial], polys: list[Polynomial]) -> Polynomial:
    """Exact sum of coeffs[i] * polys[i], every product added into one
    term dict; the relation checks test it for zero."""
    ring = polys[0].ring
    out: dict = {}
    for a, f in zip(coeffs, polys):
        a._check_ring(f)
        f._check_ring(polys[0])
        _add_products(out, a.terms, f.terms)
    return Polynomial(ring, out, _clean=_all_canonical(out))


# ---------------------------------------------------------------------------
# exact division

class NotDivisible:
    """Marker returned by exact_divide when no exact quotient exists."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotDivisible"

    def __bool__(self):
        return False


NOT_DIVISIBLE = NotDivisible()


def exact_divide(num: Polynomial, den: Polynomial):
    """Quotient q with q*den == num, or NOT_DIVISIBLE.

    Leading-term division loop under the ring's order; the quotient
    is unique when it exists because the ring is a domain.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero divisor input")
    if num.ring != den.ring:
        raise ValueError("mixed ring contexts")
    ring = num.ring
    if num.is_zero():
        return ring.zero()
    keyf = ring.order.key
    dlt_e = max(den.terms, key=keyf)
    dlt_c = den.terms[dlt_e]
    rem = dict(num.terms)
    q: dict = {}
    while rem:
        e = max(rem, key=keyf)
        c = rem[e]
        shift = tuple(a - b for a, b in zip(e, dlt_e))
        if any(v < 0 for v in shift):
            return NOT_DIVISIBLE
        qc = _norm_q(Fraction(c) / Fraction(dlt_c))
        q[shift] = qc
        for te, tc in den.terms.items():
            ne = tuple(a + b for a, b in zip(te, shift))
            v = _norm_q(rem.get(ne, 0) - qc * tc)
            if v:
                rem[ne] = v
            else:
                rem.pop(ne, None)
    return Polynomial(ring, q)


# ---------------------------------------------------------------------------
# ring morphisms

def morph(poly: Polynomial, target: Ring) -> Polynomial:
    """Map a polynomial into another ring by variable name."""
    positions = [target.index.get(name) for name in poly.ring.variables]
    out = {}
    for e, c in poly.terms.items():
        ne = [0] * target.nvars
        for i, k in enumerate(e):
            if k:
                if positions[i] is None:
                    raise ValueError(
                        f"variable {poly.ring.variables[i]} not present in target ring")
                ne[positions[i]] = k
        out[tuple(ne)] = c
    return Polynomial(target, out)


# ---------------------------------------------------------------------------
# text grammar
#
#   poly := term (('+'|'-') term)*
#   term := coeff? ('*'? var ('^' uint)?)*
#   coeff := int ('/' uint)?
#   var := 'x' uint | 'y' uint | 't'
#
# Whitespace is insignificant.  Serialization emits terms in descending
# degrevlex and round-trips bit-exactly.  (Internally-built rings may carry
# other variable names; the parser accepts any known name of the ring.)

_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<coeff>\d+(?:/\d+)?)|(?P<var>[A-Za-z_]+\d*)"
                    r"(?:\^(?P<exp>\d+))?|(?P<star>\*))")


def parse_polynomial(ring: Ring, s: str) -> Polynomial:
    s = s.strip()
    if not s:
        raise ValueError("empty polynomial string")
    pos = 0
    terms: list[tuple] = []
    sign = 1
    cur_coeff = None
    cur_exps = None

    def flush():
        nonlocal cur_coeff, cur_exps, sign
        if cur_exps is None and cur_coeff is None:
            return
        c = Fraction(1) if cur_coeff is None else cur_coeff
        e = tuple(cur_exps) if cur_exps is not None else (0,) * ring.nvars
        terms.append((e, sign * c))
        cur_coeff = None
        cur_exps = None
        sign = 1

    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"parse error at {s[pos:pos+16]!r}")
        pos = m.end()
        if m.group("sign"):
            flush()
            sign = -1 if m.group("sign") == "-" else 1
        elif m.group("coeff"):
            txt = m.group("coeff")
            c = Fraction(int(txt.split("/")[0]), int(txt.split("/")[1])) if "/" in txt else Fraction(int(txt))
            if cur_coeff is None and cur_exps is None:
                cur_coeff = c
            else:
                # juxtaposed numeric factor, e.g. "2x0" already consumed "2"
                cur_coeff = (cur_coeff if cur_coeff is not None else Fraction(1)) * c
        elif m.group("var"):
            name = m.group("var")
            if name not in ring.index:
                raise ValueError(f"unknown variable {name!r}")
            if cur_exps is None:
                cur_exps = [0] * ring.nvars
            k = int(m.group("exp")) if m.group("exp") else 1
            cur_exps[ring.index[name]] += k
        # '*' is a separator; nothing to do
    flush()
    out: dict = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return Polynomial(ring, out)


def _fmt_coeff_abs(c) -> str:
    if isinstance(c, Fraction):
        c = abs(c)
        return f"{c.numerator}/{c.denominator}"
    return str(abs(c))


def format_polynomial(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    # serialization always uses descending degrevlex regardless of ring order
    keyf = grevlex(f.ring.nvars).key
    items = sorted(f.terms.items(), key=lambda it: keyf(it[0]), reverse=True)
    parts = []
    for idx, (e, c) in enumerate(items):
        neg = c < 0
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f.ring.variables[i])
            elif k > 1:
                factors.append(f"{f.ring.variables[i]}^{k}")
        ca = _fmt_coeff_abs(c)
        if factors and ca == "1":
            body = "*".join(factors)
        elif factors:
            body = ca + "*" + "*".join(factors)
        else:
            body = ca
        if idx == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)

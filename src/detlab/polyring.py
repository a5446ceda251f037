"""Exact sparse multivariate polynomials over Q.

Monomials are exponent tuples indexed by ring variables; a polynomial is a
map from monomial to nonzero coefficient.  Coefficients are stored as int
when the denominator is 1 and as Fraction otherwise (always lowest terms,
positive denominator).  The modular work of the identity tests reads a
polynomial mod p without building another ring: `evaluate(point, p)` and
`restrict_to_line(base, direction, p)` map each coefficient a/b to
a * b^-1 mod p.  All operations are pure and values are immutable by
convention, so sharing across threads is safe.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .modp import umul, utrim

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# monomial orders

def _grevlex_key(e: tuple) -> tuple:
    s = 0
    for v in e:
        s += v
    return (s,) + tuple(-v for v in reversed(e))


def _grlex_key(e: tuple) -> tuple:
    s = 0
    for v in e:
        s += v
    return (s,) + e


def _lex_key(e: tuple) -> tuple:
    return e


_KEYFN = {"grevlex": _grevlex_key, "grlex": _grlex_key, "lex": _lex_key}


class MonomialOrder:
    """Total multiplicative monomial order realized as a flat integer key.

    u < v in the order iff key(u) < key(v) as tuples.  Supported kinds:
    lex, grlex, grevlex (each with an optional variable permutation giving
    the priority sequence), and elimination blocks of sub-orders.
    """

    __slots__ = ("kind", "nvars", "perm", "blocks", "_subkeys")

    def __init__(self, kind: str, nvars: int, perm: tuple | None = None,
                 blocks: tuple | None = None):
        self.kind = kind
        self.nvars = nvars
        self.perm = perm
        self.blocks = blocks
        if kind == "block":
            self._subkeys = None
        else:
            if kind not in _KEYFN:
                raise ValueError(f"unknown order kind {kind!r}")
            self._subkeys = _KEYFN[kind]

    def key(self, e: tuple) -> tuple:
        if self.kind == "block":
            out = ()
            for idxs, sub in self.blocks:
                out += sub.key(tuple(e[i] for i in idxs))
            return out
        if self.perm is not None:
            e = tuple(e[i] for i in self.perm)
        return self._subkeys(e)

    def keyfn(self):
        """Bound fast-path key function (avoids attribute walks in loops)."""
        if self.kind == "block":
            blocks = self.blocks
            subfns = [(idxs, sub.keyfn()) for idxs, sub in blocks]

            def bk(e, _subfns=tuple(subfns)):
                out = ()
                for idxs, fn in _subfns:
                    out += fn(tuple(e[i] for i in idxs))
                return out

            return bk
        if self.perm is None:
            return self._subkeys
        perm = self.perm
        base = self._subkeys
        return lambda e: base(tuple(e[i] for i in perm))

    def weight_rows(self) -> list[tuple]:
        """Nonnegative integer matrix W such that u < v in the order iff
        W·u < W·v lexicographically.

        Lex reads the variables in priority order, grlex puts the degree
        first, and grevlex is the degree followed by the prefix sums
        e_p0 + ... + e_p(k-1) for k = n-1 down to 1 (a smaller last
        exponent means a larger prefix sum).  A block order stacks the rows
        of its sub-orders, each spread over its block's variables.
        """
        n = self.nvars
        if self.kind == "block":
            rows = []
            for idxs, sub in self.blocks:
                for sub_row in sub.weight_rows():
                    row = [0] * n
                    for i, w in zip(idxs, sub_row):
                        row[i] = w
                    rows.append(tuple(row))
            return rows
        perm = self.perm if self.perm is not None else tuple(range(n))

        def ones(idxs):
            return tuple(1 if i in idxs else 0 for i in range(n))
        if self.kind == "grevlex":
            return [ones(set(perm[:k])) for k in range(n, 0, -1)]
        units = [ones({i}) for i in perm]
        return units if self.kind == "lex" else [ones(set(perm))] + units

    @property
    def id(self) -> str:
        if self.kind == "block":
            inner = "|".join(
                f"{','.join(map(str, idxs))}:{sub.id}" for idxs, sub in self.blocks
            )
            return f"block[{inner}]"
        p = "" if self.perm is None else ":" + ",".join(map(str, self.perm))
        return f"{self.kind}:{self.nvars}{p}"

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        return f"MonomialOrder({self.id})"


def grevlex(nvars: int, perm=None) -> MonomialOrder:
    return MonomialOrder("grevlex", nvars, tuple(perm) if perm else None)


def grlex(nvars: int, perm=None) -> MonomialOrder:
    return MonomialOrder("grlex", nvars, tuple(perm) if perm else None)


def lex(nvars: int, perm=None) -> MonomialOrder:
    return MonomialOrder("lex", nvars, tuple(perm) if perm else None)


def block_order(index_blocks: list[list[int]], sub_orders: list[MonomialOrder] | None = None,
                nvars: int | None = None) -> MonomialOrder:
    """Elimination order: earlier blocks dominate later ones."""
    if nvars is None:
        nvars = sum(len(b) for b in index_blocks)
    if sub_orders is None:
        sub_orders = [grevlex(len(b)) for b in index_blocks]
    blocks = tuple((tuple(b), s) for b, s in zip(index_blocks, sub_orders))
    return MonomialOrder("block", nvars, blocks=blocks)


# ---------------------------------------------------------------------------
# coefficient normalization

def _norm_q(c):
    """Canonical rational: int when integral, Fraction in lowest terms else."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"unsupported coefficient {c!r}")


def clear_denominators(items) -> tuple[dict, int]:
    """Integer form of (key, rational coefficient) pairs: ({key: c * den},
    den), where den is the least common multiple of the denominators."""
    items = list(items)
    den = 1
    for _, c in items:
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    return {k: int(c * den) for k, c in items}, den


def _mod_p(c, p: int) -> int:
    """Image of a rational coefficient in GF(p); raises ZeroDivisionError
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
    """Q[variables] with a default monomial order."""

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

    def poly(self, terms: dict) -> "Polynomial":
        return Polynomial(self, terms)

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

    def coeff(self, exps):
        return self.terms.get(tuple(exps), 0)

    def support_vars(self) -> set[int]:
        out: set[int] = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    out.add(i)
        return out

    def leading_term(self, order: MonomialOrder | None = None):
        """(exponent, coefficient) of the largest monomial; None for zero."""
        if not self.terms:
            return None
        keyf = (order or self.ring.order).keyfn()
        e = max(self.terms, key=keyf)
        return e, self.terms[e]

    def leading_monomial(self, order=None):
        lt = self.leading_term(order)
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
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
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
        """Exact value at `point`, or with a prime p the value mod p at an
        integer point; the point length must match the variable count.
        Mod p a coefficient a/b is read as a * b^-1, and p dividing b raises
        ZeroDivisionError."""
        if len(point) != self.ring.nvars:
            raise ValueError("point length mismatch")
        if p is not None:
            point = [v % p for v in point]
        powers: list[dict] = [{0: 1} for _ in range(self.ring.nvars)]

        def pw(i, k):
            cache = powers[i]
            if k not in cache:
                v = pw(i, k - 1) * point[i]
                if p is not None:
                    v %= p
                cache[k] = v
            return cache[k]

        acc = 0
        for e, c in self.terms.items():
            t = c if p is None or type(c) is int else _mod_p(c, p)
            for i, k in enumerate(e):
                if k:
                    t *= pw(i, k)
            acc += t
            if p is not None:
                acc %= p
        if p is not None:
            return acc
        return _norm_q(Fraction(acc) if not isinstance(acc, (int, Fraction)) else acc)

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
        """Coefficients mod p of f(base + t*direction) as a polynomial in t,
        lowest degree first, without trailing zeros (see `evaluate` for the
        coefficients)."""
        if all(not d for d in direction):
            raise ValueError("zero direction")
        if len(base) != self.ring.nvars or len(direction) != self.ring.nvars:
            raise ValueError("point length mismatch")
        powers: dict = {}  # variable -> powers of its coordinate on the line

        def upow(i, k) -> list:
            pw = powers.get(i)
            if pw is None:
                pw = powers[i] = [[1], utrim([base[i] % p, direction[i] % p])]
            while len(pw) <= k:
                pw.append(umul(pw[-1], pw[1], p))
            return pw[k]

        acc: list = []
        for e, c in self.terms.items():
            t = [_mod_p(c, p)]
            for i, k in enumerate(e):
                if k:
                    t = umul(t, upow(i, k), p)
            if len(t) > len(acc):
                acc += [0] * (len(t) - len(acc))
            for j, v in enumerate(t):
                acc[j] = (acc[j] + v) % p
        return utrim(acc)

    def map_coefficients(self, fn) -> "Polynomial":
        return Polynomial(self.ring, {e: fn(c) for e, c in self.terms.items()})

    def monic(self, order=None) -> "Polynomial":
        lt = self.leading_term(order)
        if lt is None:
            return self
        _, c = lt
        return self.map_coefficients(lambda v: _norm_q(Fraction(v) / c))


def _all_canonical(terms: dict) -> bool:
    for c in terms.values():
        if isinstance(c, Fraction) and c.denominator == 1:
            return False
    return True


def dot(coeffs: list[Polynomial], polys: list[Polynomial]) -> Polynomial:
    """Exact sum of coeffs[i] * polys[i]; the relation checks test it for zero."""
    acc = polys[0].ring.zero()
    for a, f in zip(coeffs, polys):
        acc = acc + a * f
    return acc


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

    Leading-term division loop under the ring's graded order; the quotient
    is unique when it exists because the ring is a domain.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero divisor input")
    if num.ring != den.ring:
        raise ValueError("mixed ring contexts")
    ring = num.ring
    if num.is_zero():
        return ring.zero()
    keyf = ring.order.keyfn()
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

def morph(poly: Polynomial, target: Ring, rename: dict | None = None) -> Polynomial:
    """Map a polynomial into another ring by variable name (or rename map)."""
    positions = []
    for i, name in enumerate(poly.ring.variables):
        tname = rename.get(name, name) if rename else name
        if tname in target.index:
            positions.append(target.index[tname])
        else:
            positions.append(None)
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
    keyf = _grevlex_key
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

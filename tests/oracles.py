"""Independent brute-force oracles used to derive expected test values.

These deliberately avoid the library's computational paths: determinants
come from the Leibniz permutation sum, derivatives from the term rule on
plain dicts, reductions from a naive division loop.  Expected values in
the tests were produced by these oracles and then frozen.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(entries):
    """Determinant by the permutation sum; entries are {exp: coeff} dicts
    (None meaning a zero entry), returns a {exp: coeff} dict."""
    n = len(entries)
    acc = {}
    for perm in permutations(range(n)):
        term = {tuple([0] * _width(entries)): 1}
        ok = True
        for i in range(n):
            e = entries[i][perm[i]]
            if e is None:
                ok = False
                break
            term = dict_mul(term, e)
        if not ok:
            continue
        s = perm_sign(list(perm))
        for k, v in term.items():
            nv = acc.get(k, 0) + s * v
            if nv:
                acc[k] = nv
            else:
                acc.pop(k, None)
    return acc


def _width(entries):
    for row in entries:
        for e in row:
            if e is not None:
                for k in e:
                    return len(k)
    return 0


def dict_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            nv = out.get(k, 0) + va * vb
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


def dict_diff(d, i):
    out = {}
    for k, v in d.items():
        if k[i]:
            nk = k[:i] + (k[i] - 1,) + k[i + 1:]
            nv = out.get(nk, 0) + v * k[i]
            if nv:
                out[nk] = nv
    return out


def var_dict(nvars, i):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): 1}


def hankel_entry_dicts(m):
    """Variable-index layout of the m x m anti-diagonal matrix."""
    n = 2 * m - 1
    return [[var_dict(n, i + j) for j in range(m)] for i in range(m)]


def naive_normal_form(f, basis, keyfn):
    """Plain multivariate division: reduce f fully against the basis."""
    f = dict(f)
    out = {}
    while f:
        e = max(f, key=keyfn)
        c = f.pop(e)
        red = None
        for g in basis:
            lt = max(g, key=keyfn)
            if all(a <= b for a, b in zip(lt, e)):
                red = (g, lt)
                break
        if red is None:
            out[e] = c
            continue
        g, lt = red
        q = Fraction(c) / Fraction(g[lt])
        shift = tuple(a - b for a, b in zip(e, lt))
        for te, tc in g.items():
            if te == lt:
                continue
            ne = tuple(a + b for a, b in zip(te, shift))
            nv = f.get(ne, 0) - q * tc
            if nv:
                f[ne] = nv
            else:
                f.pop(ne, None)
    return out


def naive_spoly(f, g, keyfn):
    lf = max(f, key=keyfn)
    lg = max(g, key=keyfn)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    sf = tuple(a - b for a, b in zip(lcm, lf))
    sg = tuple(a - b for a, b in zip(lcm, lg))
    out = {}
    for e, c in f.items():
        k = tuple(a + b for a, b in zip(e, sf))
        out[k] = out.get(k, 0) + Fraction(c) / Fraction(f[lf])
    for e, c in g.items():
        k = tuple(a + b for a, b in zip(e, sg))
        nv = out.get(k, 0) - Fraction(c) / Fraction(g[lg])
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return {k: v for k, v in out.items() if v}


def grevlex_key(e):
    return (sum(e),) + tuple(-v for v in reversed(e))


def lex(n):
    """Lex on n variables, x0 largest, as singleton grevlex blocks."""
    from detlab.polyring import block_order
    return block_order([[i] for i in range(n)])


# ---------------------------------------------------------------------------
# references for the packed Buchberger engine, kept in their plain form

def linear_scan_normal_form(terms, basis, budget, skip=-1, what="polynomial reduction"):
    """Reduction of a packed term dict that looks for each term's divisor by
    scanning the basis entries in order (the first whose leading monomial
    divides it); returns (remainder, scale) and ticks the budget once per
    reduction step.  Raises the engine's overflow like the engine does."""
    from math import gcd
    from detlab.groebner import _Overflow
    guard = basis[0].pk.guard if basis else 0
    coeffs = dict(terms)
    out = {}
    scale = 1
    while coeffs:
        m = max(coeffs)
        c = coeffs.pop(m)
        red = None
        for idx, g in enumerate(basis):
            if idx != skip and ((m | guard) - g.lm) & guard == guard:
                red = g
                break
        if red is None:
            out[m] = c
            continue
        budget.tick(1, what)
        d = gcd(abs(c), red.lc)
        mult, sc = c // d, red.lc // d
        if sc != 1:
            scale *= sc
            coeffs = {k: v * sc for k, v in coeffs.items()}
            out = {k: v * sc for k, v in out.items()}
        for tm, tc in red.tail.items():
            nm = tm + m - red.lm
            if nm & guard:
                raise _Overflow
            nv = coeffs.get(nm, 0) - mult * tc
            if nv:
                coeffs[nm] = nv
            else:
                coeffs.pop(nm, None)
    return out, scale


def regular_reduce_reference(u, v, sig, basis, labelled, key, budget):
    """Regular top-reduction of a labelled pair (u, v) of signature `sig`,
    on exponent-tuple term dicts whose leading coefficients are positive.
    The leading term m of v goes by the first element of `basis` whose
    leading monomial divides it, else by the first (s_k, u_k, v_k) of
    `labelled`, in list order, whose v_k has a leading monomial lt dividing
    m with key(m - lt + s_k) < key(sig); then (m - lt)*u_k leaves u too.
    Each step scales u and v by lc / gcd(c, lc), as the engine does, and
    ticks the budget once.  Returns (u, v) when v is zero or its leading
    term has no such reducer."""
    from math import gcd
    divides = lambda a, b: all(x <= y for x, y in zip(a, b))  # noqa: E731

    def step(d, sc, mult, g, t):
        out = {e: sc * c for e, c in d.items()}
        for e, c in g.items():
            k = tuple(a + b for a, b in zip(e, t))
            nv = out.get(k, 0) - mult * c
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return out

    u, v = dict(u), dict(v)
    while v:
        m = max(v, key=key)
        red = label = None
        for g in basis:
            if divides(max(g, key=key), m):
                red, label = g, {}
                break
        else:
            for s, uk, vk in labelled:
                lt = max(vk, key=key)
                if divides(lt, m) and \
                        key(tuple(a - b + c for a, b, c in zip(m, lt, s))) < key(sig):
                    red, label = vk, uk
                    break
        if red is None:
            break
        budget.tick(1, "polynomial reduction")
        lt = max(red, key=key)
        d = gcd(v[m], red[lt])
        mult, sc = v[m] // d, red[lt] // d
        t = tuple(a - b for a, b in zip(m, lt))
        v, u = step(v, sc, mult, red, t), step(u, sc, mult, label, t)
    return u, v


def two_sided_colon_pushes(G, g, key, budget):
    """The J-pairs of the signature colon I : g in push order, as
    (signature, lcm, element) on exponent tuples, under the rule the colon
    used before it picked a pair's side first: a pair with a labelled
    element takes the F5 test on both of its signatures, and pushes the
    larger one if that one passed.  G is the reduced basis of I as tuple
    dicts with positive leading coefficients, g a nonzero integer term
    dict and `key` the order's sort key.  Otherwise this is the engine's
    colon (`groebner._colon_at_width`) written on tuples: the reduction is
    `regular_reduce_reference`, which ticks the budget."""
    import heapq
    from math import gcd
    divides = lambda a, b: all(x <= y for x, y in zip(a, b))  # noqa: E731
    lcm = lambda a, b: tuple(max(x, y) for x, y in zip(a, b))  # noqa: E731
    times = lambda a, b, c=None: tuple(  # noqa: E731  a*b, or a*b/c
        x + y - (c[k] if c else 0) for k, (x, y) in enumerate(zip(a, b)))
    glms = [max(d, key=key) for d in G]
    in_G = lambda s: any(divides(gm, s) for gm in glms)  # noqa: E731
    labelled, lms, found, heap, pushes = [], [], [], [], []

    def push(sig, top, i):
        pushes.append((sig, top, i))
        heapq.heappush(heap, (key(sig), key(top), i, sig, top))

    def add(sig, u, v):
        if not v:
            found.append(sig)
            return
        hm = max(v, key=key)
        common = 0
        for c in list(v.values()) + list(u.values()):
            common = gcd(common, c)
        if v[hm] < 0:
            common = -common
        u = {e: c // common for e, c in u.items()}
        v = {e: c // common for e, c in v.items()}
        n = len(labelled)
        for gm in glms:
            top = lcm(hm, gm)
            sh = times(sig, top, hm)
            if not in_G(sh):
                push(sh, top, n)
        for j, (sj, _, _) in enumerate(labelled):
            top = lcm(hm, lms[j])
            sh, s2 = times(sig, top, hm), times(sj, top, lms[j])
            if sh == s2:
                continue
            h_in, j_in = in_G(sh), in_G(s2)
            if h_in and j_in:
                continue
            if key(sh) > key(s2):
                if not h_in:
                    push(sh, top, n)
            elif not j_in:
                push(s2, top, j)
        labelled.append((sig, u, v))
        lms.append(hm)

    one = (0,) * len(next(iter(g)))
    add(one, *regular_reduce_reference({one: 1}, g, one, G, labelled, key, budget))
    last = None
    while heap:
        _, _, i, sig, top = heapq.heappop(heap)
        if sig == last:  # one J-pair per signature: the smallest lcm
            continue
        last = sig
        if any(divides(s, sig) for s in found):
            continue
        if any(divides(s, sig) and key(times(sig, lm, s)) < key(top)
               for (s, _, _), lm in zip(labelled, lms)):
            continue
        si, ui, vi = labelled[i]
        t = tuple(a - b for a, b in zip(sig, si))
        u = {times(e, t): c for e, c in ui.items()}
        v = {times(e, t): c for e, c in vi.items()}
        add(sig, *regular_reduce_reference(u, v, sig, G, labelled, key, budget))
    return pushes


class TuplePairs:
    """The pair criteria on exponent tuples: the same selection as the
    engine's packed `_Pairs`, written with tuple lcms and divisibility.
    `key` is the monomial order's sort key on exponent tuples."""

    def __init__(self, key, rank=0):
        self.key = key
        self.rank = rank
        self.lts = []
        self.sugars = []
        self.pairs = {}  # (i, j) -> lcm tuple
        self.heap = []

    def add(self, lt, sugar):
        import heapq
        divides = lambda a, b: all(x <= y for x, y in zip(a, b))  # noqa: E731
        lcm = lambda a, b: tuple(max(x, y) for x, y in zip(a, b))  # noqa: E731
        rank = self.rank
        n = len(self.lts)
        new = {i: lcm(g, lt) for i, g in enumerate(self.lts) if g[:rank] == lt[:rank]}
        # drop a new pair whose lcm another new lcm properly divides
        drop = {i for i, li in new.items()
                if any(lj != li and divides(lj, li) for lj in new.values())}
        seen = {}
        for i in sorted(new):
            if i in drop:
                continue
            li = new[i]
            if all(not (x and y) for x, y in zip(self.lts[i], lt)):  # coprime
                drop.add(i)
                seen.setdefault(li, -1)
            elif li in seen:
                drop.add(i)
            else:
                seen[li] = i
        for (i, j), lij in list(self.pairs.items()):
            if divides(lt, lij) and lcm(self.lts[i], lt) != lij and lcm(self.lts[j], lt) != lij:
                del self.pairs[(i, j)]
        self.lts.append(lt)
        self.sugars.append(sugar)
        for i, li in new.items():
            if i not in drop:
                deg = sum(li)
                s = max(self.sugars[i] + deg - sum(self.lts[i]), sugar + deg - sum(lt))
                self.pairs[(i, n)] = li
                heapq.heappush(self.heap, (s, self.key(li), li, i, n))

    def pop(self):
        import heapq
        while self.heap:
            s, _, li, i, j = heapq.heappop(self.heap)
            if self.pairs.pop((i, j), None) is not None:
                return s, li, i, j
        return None


def bidegree(g, ny):
    """(x-degree, y-degree) of a bihomogeneous element of k[y, x] whose
    first ny variables are the y's."""
    bids = {(sum(e[ny:]), sum(e[:ny])) for e in g.terms}
    if len(bids) != 1:
        raise ValueError("element is not bihomogeneous")
    return bids.pop()


def gf_image(q, p):
    """Image of a rational number in GF(p), numerator times the inverse of
    the denominator; ZeroDivisionError when p divides the denominator."""
    q = Fraction(q)
    if q.denominator % p == 0:
        raise ZeroDivisionError("p divides the denominator")
    return q.numerator * pow(q.denominator, -1, p) % p


def term_value(terms, point, p=None):
    """Value of a {exp: coeff} polynomial at a point, term by term with
    `pow` over the rationals; with a prime p, its image in GF(p)."""
    acc = Fraction(0)
    for e, c in terms.items():
        t = Fraction(c)
        for x, k in zip(point, e):
            t *= pow(Fraction(x), k)
        acc += t
    return acc if p is None else gf_image(acc, p)


def horner_mod(coeffs, t, p):
    """Value mod p at t of a coefficient list, lowest degree first."""
    v = 0
    for c in reversed(coeffs):
        v = (v * t + c) % p
    return v


def fraction_rref(rows, ncols):
    """Reduced row echelon form over Q of dense rows, by Gauss-Jordan on
    Fractions: (nonzero rows with leading entry 1, their pivot columns)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        lead = m[r][c]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def fraction_kernel(rows, ncols):
    """Right kernel over Q of dense rows, one vector per free column."""
    rref, pivots = fraction_rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rref, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def row_minimal_generators(columns, degrees, nvars):
    """Indices of the minimal generators of graded columns of Polynomials,
    by the row path that the packed column reduction replaced: degree by
    degree, a candidate is kept iff its row {(component, exponent): c}
    raises the Fraction rank of the rows of the kept lower-degree columns
    times every monomial of the degree gap, together with the candidates
    of its degree kept before it."""
    chosen = []
    for j in sorted(set(degrees)):
        rows = []
        for i in chosen:
            for vs in combinations_with_replacement(range(nvars), j - degrees[i]):
                mono = [vs.count(v) for v in range(nvars)]
                rows.append({(comp, tuple(a + b for a, b in zip(e, mono))): c
                             for comp, p in enumerate(columns[i]) for e, c in p.terms.items()})
        for i, d in enumerate(degrees):
            if d != j:
                continue
            cand = {(comp, e): c for comp, p in enumerate(columns[i]) for e, c in p.terms.items()}
            keys = sorted({k for row in rows + [cand] for k in row})
            rank = len(fraction_rref([[row.get(k, 0) for k in keys] for row in rows], len(keys))[1])
            dense = [[row.get(k, 0) for k in keys] for row in rows + [cand]]
            if len(fraction_rref(dense, len(keys))[1]) > rank:
                rows.append(cand)
                chosen.append(i)
    return chosen


# ---------------------------------------------------------------------------
# the intersection and the colon by a tag variable, the routes that the
# containment shortcut and the signature colon replaced

def tag_intersect(I, J, budget=None, config=None):
    """I ∩ J as (u*I + (1-u)*J) ∩ k[x], always by the elimination: the
    reduced basis of the tagged ideal in the block order (u) > (x), the
    ring's own blocks on x, keeps its entries free of u."""
    from detlab.groebner import Ideal
    from detlab.polyring import Ring, block_order, morph
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    tag = "u"
    while tag in ring.variables:
        tag += "u"
    ext = Ring((tag,) + ring.variables,
               block_order([[0]] + [[i + 1 for i in b] for b in ring.order.blocks]))
    u = ext.var(0)
    gens = [u * morph(g, ext) for g in I.groebner_basis(budget, config)]
    gens += [(ext.one() - u) * morph(g, ext) for g in J.groebner_basis(budget, config)]
    gb = Ideal(ext, gens).groebner_basis(budget, config)
    return Ideal(ring, [morph(g, ring) for g in gb if 0 not in g.support_vars()])


def tag_colon(I, g, budget=None, config=None):
    """I : g as (I ∩ (g)) / g: the intersection by tag-variable elimination,
    then each of its generators divided exactly by g."""
    from detlab.groebner import Ideal
    from detlab.polyring import NOT_DIVISIBLE, exact_divide
    K = tag_intersect(I, Ideal(I.ring, [g]), budget, config)
    out = []
    for h in K.gens:
        q = exact_divide(h, g)
        assert q is not NOT_DIVISIBLE, "an element of (g) that g does not divide"
        out.append(q)
    return Ideal(I.ring, out)


# ---------------------------------------------------------------------------
# the Rees ideal by tag elimination, the slow reference for the linear-type
# test (which decides by one colon of the symmetric-algebra ideal)

def rees_ideal(forms, budget=None, config=None):
    """Blowup-equation ideal in k[y, x] (y_i for forms[i]): the kernel of
    y_i -> t*f_i, by eliminating t with block order t >> y >> x."""
    from detlab.groebner import Ideal, rees_ring
    from detlab.polyring import Ring, block_order, morph
    if not forms:
        raise ValueError("need at least one form")
    ring = forms[0].ring
    degs = {f.degree for f in forms}
    if len(degs) != 1 or not all(f.is_homogeneous() for f in forms):
        raise ValueError("forms must be homogeneous of one degree")
    n = len(forms)
    nvars = 1 + n + ring.nvars
    ext = Ring(("t",) + tuple(f"y{i}" for i in range(n)) + ring.variables,
               block_order([[0], range(1, n + 1), range(n + 1, nvars)]))
    t = ext.var(0)
    gens = [ext.var(1 + i) - t * morph(f, ext) for i, f in enumerate(forms)]
    target = rees_ring(ring, n)
    gb = Ideal(ext, gens).groebner_basis(budget, config)
    return Ideal(target, [morph(g, target) for g in gb if 0 not in g.support_vars()])


# ---------------------------------------------------------------------------
# saturation and radical membership by the routes that the colon chains
# replaced: rounds of the colon by the whole ideal, and the Rabinowitsch tag

def membership_equal(I, J, budget=None, config=None):
    """I = J by mutual membership: every generator of J reduces to zero by
    the basis of I, and every generator of I by that of J.  The route
    that the comparison of reduced bases replaced."""
    return (all(I.contains(g, budget, config) for g in J.gens)
            and all(J.contains(g, budget, config) for g in I.gens))


def rounds_saturation(I, J, budget=None, config=None):
    """I : J^∞ as the rounds I : J, (I : J) : J, ... until a round adds
    nothing; each round is ∩ I : g over the generators g of J, by the
    tag-variable colon and intersection."""
    if J.is_zero():
        raise ZeroDivisionError("saturation by the zero ideal")
    cur = I
    while True:
        nxt = tag_colon(cur, J.gens[0], budget, config)
        for g in J.gens[1:]:
            nxt = tag_intersect(nxt, tag_colon(cur, g, budget, config), budget, config)
        if membership_equal(nxt, cur, budget, config):
            return cur
        cur = nxt


def rabinowitsch_radical_membership(f, I, budget=None, config=None):
    """f ∈ √I iff 1 ∈ I + (1 - w*f) in the ring extended by a tag variable w."""
    from detlab.groebner import Ideal
    from detlab.polyring import Ring, morph
    if f.is_zero():
        return True
    ring = I.ring
    tag = "w"
    while tag in ring.variables:
        tag += "w"
    ext = Ring(ring.variables + (tag,))
    w = ext.var(ext.nvars - 1)
    gens = [morph(g, ext) for g in I.gens]
    gens.append(ext.one() - w * morph(f, ext))
    return Ideal(ext, gens).is_unit(budget, config)


# ---------------------------------------------------------------------------
# the Fitting condition from every minor, the route that the height
# certificates replaced

def all_minors_fitting_F1(syz, budget=None):
    """F1 of a presentation read off all its minors: the rank is the largest
    t with a nonzero t-minor (once every t-minor vanishes, so do all larger
    ones), and each height is that of the ideal of every t-minor.  Returns
    (rank, heights by t, passed)."""
    from detlab.groebner import Ideal, hilbert_data
    from detlab.structmat import MinorLadder
    phi = syz.as_poly_matrix()
    ring = phi.ring
    ladder = MinorLadder(phi, budget)
    levels = []
    for t in range(1, min(phi.rows, phi.cols) + 1):
        gens = [d for d in ladder.minors(t) if not d.is_zero()]
        if not gens:
            break
        levels.append(gens)
    rank = len(levels)
    heights = []
    for gens in levels:
        I = Ideal(ring, gens)
        heights.append(ring.nvars if I.is_unit(budget)
                       else ring.nvars - hilbert_data(I, budget).dimension)
    passed = all(ht >= rank - t + 2 for t, ht in enumerate(heights, 1))
    return rank, heights, passed


# ---------------------------------------------------------------------------
# the column-order kernel and the Fraction elimination, the routes that the
# leading-key feed and the fraction-free elimination over Q replaced

def column_order_relations(columns, dens, shifts, skip=frozenset()):
    """The relations among the packed product columns (the arguments of
    `linalg.packed_relations`), the columns added to a `SparseEliminator`
    in column order: each relation found then involves only earlier pivot
    columns besides its own, and scaled to 1 there it is the RREF kernel
    vector of its free column."""
    from detlab.linalg import SparseEliminator
    elim = SparseEliminator()
    col = 0
    for terms in columns:
        for s in shifts:
            if col not in skip:
                elim.add_row(terms, s, col)
            col += 1
    den = [d for d in dens for _ in shifts]
    return [{c: Fraction(comb[c] * den[c], comb[tag] * den[tag]) for c in sorted(comb)}
            for tag, comb in elim.relations]


def fraction_echelon(mat):
    """Forward Gaussian elimination over Q on Fractions: each column's pivot
    is its first nonzero entry at or below the current row, swapped into
    place.  Returns (pivot rows as indices into `mat`, pivot columns, the
    product of the pivots times the sign of the row swaps)."""
    m = [list(map(Fraction, row)) for row in mat]
    nrows, ncols = len(m), len(m[0]) if m else 0
    order = list(range(nrows))
    pivot_cols = []
    prod = 1
    for c in range(ncols):
        r = len(pivot_cols)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            order[r], order[piv] = order[piv], order[r]
            prod = -prod
        top = m[r]
        prod *= top[c]
        for row in m[r + 1:]:
            if row[c]:
                f = row[c] / top[c]
                for j in range(c, ncols):
                    row[j] -= f * top[j]
        pivot_cols.append(c)
    return order[:len(pivot_cols)], pivot_cols, prod

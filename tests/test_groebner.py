"""Buchberger engine and ideal-query contracts, with oracle-backed cases."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from detlab import groebner, polyring
from detlab.config import Budget, Config, ComputationTimeout
from detlab.polyring import Polynomial, Ring, xring, block_order, format_polynomial, grevlex
from detlab.groebner import (Ideal, certify_groebner, colon, colon_poly, eliminate,
                             hilbert_data, ideal_equal, ideal_power,
                             ideal_product, intersect,
                             radical_membership, saturation,
                             symmetric_algebra_ideal, groebner_entries, to_int_terms,
                             _cache_key, _MEMORY_CACHE)
from detlab.structmat import build_structured, build_gp_associated, determinant, minors_ideal_gens
from detlab.syzygy import module_groebner, syzygy_generators, _module_rows
from oracles import (bidegree, membership_equal, naive_normal_form, naive_spoly, grevlex_key, lex,
                     rees_ideal)


def hankel3_context():
    H = build_structured("hankel", m=3)
    f = determinant(H)
    partials = [f.diff(i) for i in range(5)]
    J = Ideal(H.ring, partials)
    P = Ideal(H.ring, minors_ideal_gens(H, 2))
    return H, f, partials, J, P


# ---------------------------------------------------------------------------
# bases

def test_principal_ideal_gb_is_itself():
    R = xring(3)
    f = R.from_string("x0*x2 - x1^2")
    gb = Ideal(R, [f]).groebner_basis()
    assert len(gb) == 1 and gb[0] * f.leading_term()[1] == f


def test_linear_ideal_gb():
    R = xring(2)
    x0, x1 = R.gens()
    gb = Ideal(R, [x0 + x1, x0 - x1]).groebner_basis()
    assert {str(g) for g in gb} == {"x0", "x1"}


def test_gp31_brackets_already_groebner_oracle():
    # oracle: every pairwise s-polynomial reduces to zero by plain division
    G = build_gp_associated(3, 1)
    gens = minors_ideal_gens(G, 2)
    dicts = [{e: c for e, c in g.terms.items()} for g in gens]
    for a, b in itertools.combinations(dicts, 2):
        sp = naive_spoly(a, b, grevlex_key)
        assert naive_normal_form(sp, dicts, grevlex_key) == {}
    gb = Ideal(G.ring, gens).groebner_basis()
    assert len(gb) == 6


def test_reduced_basis_properties_and_certification():
    _, _, _, J, P = hankel3_context()
    for I in (J, P):
        gb = I.groebner_basis()
        lms = [g.leading_monomial() for g in gb]
        for g in gb:
            assert g.leading_term()[1] == 1  # monic
            for e in g.terms:
                others = [lm for lm in lms if lm != g.leading_monomial()]
                assert not any(all(a <= b for a, b in zip(lm, e)) for lm in others)
        assert certify_groebner(I)
        for g in I.gens:
            assert I.contains(g)


def test_the_zero_ideal_certifies():
    # its basis is empty, so it has no pair to check
    R = xring(2)
    assert certify_groebner(Ideal(R, []))
    assert certify_groebner(Ideal(R, [R.zero()]))


class _LabelBudget(Budget):
    """A Budget that also counts its ticks by label."""

    __slots__ = ("by_label",)

    def __init__(self, config=None):
        super().__init__(config=config)
        self.by_label = Counter()

    def tick(self, n=1, what="computation"):
        self.by_label[what] += n
        super().tick(n, what)


def _gradient_basis_work(kind, **shape):
    M = build_structured(kind, **shape)
    f = determinant(M)
    R = M.ring
    budget = _LabelBudget()
    entries = groebner_entries([to_int_terms(f.diff(i)) for i in range(R.nvars)],
                               grevlex(R.nvars), budget)
    return [format_polynomial(e.monic(R)) for e in entries], dict(budget.by_label)


def test_engine_work_is_pinned():
    # S-pairs and reduction steps of three gradient ideals in grevlex: a
    # change to pair pruning or to the choice of divisor moves these counts
    basis, work = _gradient_basis_work("hankel", m=3)
    assert basis == ["x3^2 - x2*x4", "x2*x3 - x1*x4", "x2^2 - 2/3*x1*x3 - 1/3*x0*x4",
                     "x1*x2 - x0*x3", "x1^2 - x0*x2", "x1*x3*x4 - x0*x4^2",
                     "x0*x1*x3 - x0^2*x4"]
    assert work == {"Buchberger": 12, "polynomial reduction": 14}
    basis, work = _gradient_basis_work("hankel", m=4)
    assert len(basis) == 13
    assert work == {"Buchberger": 30, "polynomial reduction": 225}
    basis, work = _gradient_basis_work("catalecticant", m=3, r=2)
    assert len(basis) == 21
    assert work == {"Buchberger": 69, "polynomial reduction": 137}


def test_gb_deterministic_and_cached():
    R = xring(5)
    _, _, partials, J, _ = hankel3_context()
    gb1 = Ideal(J.ring, J.gens).groebner_basis()
    gb2 = Ideal(J.ring, J.gens).groebner_basis()
    assert [str(g) for g in gb1] == [str(g) for g in gb2]
    key = _cache_key(J.ring, Ideal(J.ring, J.gens).gens)
    assert key in _MEMORY_CACHE


def _fresh_process():
    """Forget the memory cache, the disk-cache index and this process's
    packs, so that the next query reads its cache directory as a new
    process would."""
    _MEMORY_CACHE.clear()
    groebner._DISK_INDEX.clear()
    for _, fd in groebner._PACKS.values():
        os.close(fd)
    groebner._PACKS.clear()


def _disk_records(cache_dir) -> dict:
    """key -> bodies of the records whose digest matches, in every pack of
    the cache directory."""
    index: dict = {}
    for path in sorted(Path(cache_dir).glob("*.gb")):
        groebner._read_pack(path.read_bytes(), index)
    return {k.decode(): v for k, v in index.items()}


def _refuse(*args):
    raise AssertionError("the basis was recomputed, not read")


def _counting_computations(monkeypatch) -> list:
    """A list that gains one item per `groebner_entries` call from now on."""
    computed = []
    entries = groebner.groebner_entries
    monkeypatch.setattr(groebner, "groebner_entries",
                        lambda *args: computed.append(1) or entries(*args))
    return computed


def test_disk_cache_roundtrip(tmp_path):
    cfg = Config(cache_dir=str(tmp_path))
    _fresh_process()
    _, _, partials, _, _ = hankel3_context()
    R = partials[0].ring
    gb1 = Ideal(R, partials).groebner_basis(config=cfg)
    assert any(p.suffix == ".gb" for p in tmp_path.iterdir())
    _fresh_process()
    gb2 = Ideal(R, partials).groebner_basis(config=cfg)
    assert [str(g) for g in gb1] == [str(g) for g in gb2]


def _text_record(version: str | None) -> str:
    """_TEXTLESS_BASIS as a file of an earlier, text format: headerless
    (the first) or under a `detlab-gb 2` header with its body's sha256."""
    body = "".join(s + "\n" for s in _TEXTLESS_BASIS)
    if version is None:
        return body
    return f"{version} sha256={hashlib.sha256(body.encode()).hexdigest()}\n{body}"


def _format4_record(good: bytes, key: str, rows) -> bytes:
    """The record of a pack `good` holds, as the exponent-text format 4
    wrote it: one line per entry of groups `c e_1 ... e_n`, leading term
    first."""
    _, packing, *lines = good.splitlines()
    pk = groebner._Packing.shared(rows, int(packing.split()[0]))
    body = b""
    for line in lines:
        tokens = line.split()
        ints = []
        for c, m in zip(tokens[::2], tokens[1::2]):
            ints += [int(c), *pk.unpack(int(m, 16))]
        body += b" ".join(b"%d" % i for i in ints) + b"\n"
    digest = hashlib.sha256(key.encode() + b"\n" + body).hexdigest().encode()
    return b"detlab-gb 4 %s %d sha256=%s\n" % (key.encode(), len(body), digest) + body


def _damaged(good: bytes, damage: str, key: str, rows) -> bytes:
    """The pack `good`, of one record of a basis packed in `rows`, damaged."""
    header, *lines = good.splitlines(keepends=True)
    if damage == "empty":
        return b""
    if damage == "dropped line":  # the header's length runs past the end
        return header + b"".join(lines[:2] + lines[3:])
    if damage == "cut line":  # the pack ends inside its second line
        return good[:len(header) + len(lines[0]) + 3]
    if damage == "old format":
        return _text_record(None).encode()
    if damage == "text format 2":
        return _text_record("detlab-gb 2").encode()
    if damage == "one basis per file":  # the format before the packs
        body = b"".join(lines)
        digest = hashlib.sha256(key.encode() + b"\n" + body).hexdigest().encode()
        return b"detlab-gb 3 sha256=" + digest + b"\n" + body
    if damage == "exponent text format 4":  # the format before packed records
        return _format4_record(good, key, rows)
    # the rest keep a valid length and digest: damaged records, not damaged bytes
    packing, first, rest = lines[0].split(), lines[1].split(), lines[2:]
    pk = groebner._Packing.shared(rows, int(packing[0]))
    if damage == "wrong arity":
        first = first[:-1]
    elif damage == "negative exponent":  # a packed monomial below zero, the last
        first[-1] = b"-" + first[-1]
    elif damage == "zero coefficient":  # in the tail
        first[2] = b"0"
    elif damage == "leading coefficient not positive":
        first[0] = b"-" + first[0]
    elif damage == "unparsable":  # a token that is no integer
        first[0] = b"x1"
    elif damage == "repeated monomial":  # the last term again, another coefficient
        first += [b"7", first[-1]]
    elif damage == "not descending":  # the first two monomials swapped
        first[1], first[3] = first[3], first[1]
    elif damage == "guard bit":  # of the top field, on the leading monomial
        first[1] = b"%x" % (int(first[1], 16) | 1 << pk.guard.bit_length() - 1)
    elif damage == "blank line":
        first = []
    elif damage == "no lines":
        return groebner._disk_record(key, b"")
    elif damage == "no entries":
        return groebner._disk_record(key, lines[0])
    elif damage == "foreign packing":  # lex rows at the same width
        packing[1] = groebner._Packing.shared(lex(len(rows[0])).weight_rows(),
                                              pk.width).digest.encode()
    elif damage in ("width 12", "width 4"):  # named with their own digest
        width = int(damage.split()[1])
        packing = [b"%d" % width, groebner._Packing(rows, width).digest.encode()]
    body = b" ".join(packing) + b"\n" + b" ".join(first) + b"\n" + b"".join(rest)
    return groebner._disk_record(key, body)


@pytest.mark.parametrize("damage", ["empty", "dropped line", "cut line", "old format",
                                    "text format 2", "one basis per file",
                                    "exponent text format 4", "wrong arity",
                                    "negative exponent", "zero coefficient",
                                    "leading coefficient not positive", "unparsable",
                                    "repeated monomial", "not descending", "guard bit",
                                    "blank line", "no lines", "no entries",
                                    "foreign packing", "width 12", "width 4"])
def test_a_damaged_disk_entry_is_recomputed_and_rewritten(tmp_path, monkeypatch, damage):
    # the one record of a pack is damaged or of an older format: a new
    # process recomputes the basis and writes the record a lone writer
    # makes into a pack of its own, which the next process serves
    R = xring(3)
    cfg = Config(cache_dir=str(tmp_path))
    _fresh_process()
    Ideal(R, _textless_gens(R)).groebner_basis(config=cfg)
    (path,) = tmp_path.glob("*.gb")
    good = path.read_bytes()
    path.write_bytes(_damaged(good, damage, _cache_key(R, _textless_gens(R)),
                              R.order.weight_rows()))
    _fresh_process()
    computed = _counting_computations(monkeypatch)
    I = Ideal(R, _textless_gens(R))
    assert [format_polynomial(g) for g in I.groebner_basis(config=cfg)] == _TEXTLESS_BASIS
    assert all(I.contains(g, config=cfg) for g in I.gens)
    assert computed == [1]
    (fresh,) = set(tmp_path.glob("*.gb")) - {path}
    assert fresh.read_bytes() == good
    _fresh_process()
    monkeypatch.setattr(groebner, "groebner_entries", _refuse)
    served = Ideal(R, _textless_gens(R)).groebner_basis(config=cfg)
    assert [format_polynomial(g) for g in served] == _TEXTLESS_BASIS


def test_a_module_term_in_no_component_slot_is_recomputed(tmp_path):
    # a module record, valid but for the last term of its first line, which
    # lost its one-hot slot (two slots set: tests/test_syzygy.py)
    R = xring(3)
    x0, x1, x2 = R.gens()
    columns = [[x0 * x1], [x1 * x2], [x0 * x2]]
    cfg = Config(cache_dir=str(tmp_path))
    _fresh_process()
    want = syzygy_generators(columns, [0], _LabelBudget(cfg))
    ((key, [body]),) = _disk_records(tmp_path).items()
    head, first, rest = body.split(b"\n", 2)
    pk = groebner._Packing.shared(_module_rows(R.order, 4), int(head.split()[0]))
    terms = first.split()
    last = int(terms[-1], 16)
    terms[-1] = b"%x" % (last - pk.units[pk.unpack(last).index(1)])
    (path,) = tmp_path.glob("*.gb")
    path.write_bytes(groebner._disk_record(key, b"\n".join([head, b" ".join(terms), rest])))
    _fresh_process()
    budget = _LabelBudget(cfg)
    got = syzygy_generators(columns, [0], budget)
    assert got.columns == want.columns and budget.by_label["module Buchberger"] > 0


def test_a_record_under_another_key_is_not_served(tmp_path, monkeypatch):
    # a valid record whose header names another ideal's key fails the
    # digest, which covers the key: the other ideal's basis is recomputed,
    # and the record after it in the pack is still served
    R = xring(3)
    cfg = Config(cache_dir=str(tmp_path))
    x0, x1, x2 = R.gens()
    other, last = [x0 * x1 - x2 ** 2, x0 + x1], [x0 * x2 - x1 ** 2]
    _fresh_process()
    want = [format_polynomial(g) for g in Ideal(R, other).groebner_basis()]
    _fresh_process()
    Ideal(R, _textless_gens(R)).groebner_basis(config=cfg)
    Ideal(R, last).groebner_basis(config=cfg)
    (path,) = tmp_path.glob("*.gb")
    mine, theirs = _cache_key(R, _textless_gens(R)), _cache_key(R, other)
    path.write_bytes(path.read_bytes().replace(mine.encode(), theirs.encode(), 1))
    assert list(_disk_records(tmp_path)) == [_cache_key(R, last)]
    _fresh_process()
    computed = _counting_computations(monkeypatch)
    assert [format_polynomial(g) for g in Ideal(R, other).groebner_basis(config=cfg)] == want
    assert [str(g) for g in Ideal(R, last).groebner_basis(config=cfg)] == ["x1^2 - x0*x2"]
    assert computed == [1] and theirs in _disk_records(tmp_path)


_WRITE_HANKEL4_BASIS = """
import sys
from detlab.config import Config
from detlab.groebner import Ideal
from detlab.structmat import build_structured, determinant
f = determinant(build_structured("hankel", m=4))
Ideal(f.ring, [f.diff(i) for i in range(f.ring.nvars)]).groebner_basis(
    config=Config(cache_dir=sys.argv[1]))
"""


def test_concurrent_writers_of_one_key_leave_only_valid_records(tmp_path, monkeypatch):
    # six writer processes (more than the cores of a small machine), all
    # asking for one basis in one directory: each that does not find it
    # there computes it into a pack of its own, so every pack is the one a
    # lone writer makes, and it is served
    shared, alone = tmp_path / "shared", tmp_path / "alone"
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    procs = [subprocess.Popen([sys.executable, "-c", _WRITE_HANKEL4_BASIS, str(shared)], env=env)
             for _ in range(6)]
    for p in procs:
        assert p.wait(timeout=120) == 0
    subprocess.run([sys.executable, "-c", _WRITE_HANKEL4_BASIS, str(alone)], env=env,
                   check=True, timeout=120)
    (want,) = alone.iterdir()
    written = list(shared.iterdir())
    assert 1 <= len(written) <= 6
    assert all(p.suffix == ".gb" and p.read_bytes() == want.read_bytes() for p in written)
    f = determinant(build_structured("hankel", m=4))
    _fresh_process()
    monkeypatch.setattr(groebner, "groebner_entries", _refuse)
    I = Ideal(f.ring, [f.diff(i) for i in range(f.ring.nvars)])
    assert len(I.groebner_basis(config=Config(cache_dir=str(shared)))) == 13


def test_a_pack_cut_inside_a_record_serves_the_records_before_it(tmp_path, monkeypatch):
    R = xring(3)
    x0, x1, x2 = R.gens()
    other = [x0 * x1 - x2 ** 2, x0 + x1]
    cfg = Config(cache_dir=str(tmp_path))
    _fresh_process()
    Ideal(R, _textless_gens(R)).groebner_basis(config=cfg)
    (path,) = tmp_path.glob("*.gb")
    first = path.stat().st_size
    want = [format_polynomial(g) for g in Ideal(R, other).groebner_basis(config=cfg)]
    path.write_bytes(path.read_bytes()[:first + 40])  # a torn tail
    _fresh_process()
    computed = _counting_computations(monkeypatch)
    served = Ideal(R, _textless_gens(R)).groebner_basis(config=cfg)
    assert [format_polynomial(g) for g in served] == _TEXTLESS_BASIS and computed == []
    assert [format_polynomial(g) for g in Ideal(R, other).groebner_basis(config=cfg)] == want
    assert computed == [1]


def test_a_forked_child_appends_to_a_pack_of_its_own(tmp_path):
    R = xring(3)
    x0, x1, x2 = R.gens()
    cfg = Config(cache_dir=str(tmp_path))
    _fresh_process()
    Ideal(R, _textless_gens(R)).groebner_basis(config=cfg)
    (parent,) = tmp_path.glob("*.gb")
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            Ideal(R, [x0 + x1]).groebner_basis(config=cfg)
            code = 0
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    Ideal(R, [x0 * x1 - x2 ** 2]).groebner_basis(config=cfg)  # the parent appends on
    (child,) = set(tmp_path.glob("*.gb")) - {parent}
    keys = {}
    for path in (parent, child):
        index: dict = {}
        groebner._read_pack(path.read_bytes(), index)
        keys[path] = {k.decode() for k in index}
    assert keys[parent] == {_cache_key(R, _textless_gens(R)), _cache_key(R, [x0 * x1 - x2 ** 2])}
    assert keys[child] == {_cache_key(R, [x0 + x1])}


def test_bases_of_one_order_read_from_disk_share_one_packing(tmp_path):
    R = xring(3)
    x0, x1, x2 = R.gens()
    cfg = Config(cache_dir=str(tmp_path))
    _fresh_process()
    gens = [_textless_gens(R), [x0 * x1 - x2 ** 2, x0 + x1]]
    for g in gens:
        Ideal(R, g).groebner_basis(config=cfg)
    _fresh_process()
    a, b = (Ideal(R, g)._entries(config=cfg) for g in gens)
    assert a[0].pk is b[0].pk and all(e.pk is a[0].pk for e in a + b)


_RECORD_COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)])


def _small_polys(n: int, top: int, max_terms: int):
    term = st.tuples(st.tuples(*[st.integers(0, top)] * n), _RECORD_COEFFS)
    return st.lists(st.lists(term, min_size=1, max_size=max_terms), min_size=1, max_size=3)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_disk_record_reads_back_the_computed_basis(data):
    n = data.draw(st.integers(2, 4))
    R = xring(n, data.draw(st.sampled_from([grevlex(n), lex(n)])))
    gens = [Polynomial(R, dict(ts)) for ts in data.draw(_small_polys(n, 2, 3))]
    probes = [Polynomial(R, dict(ts)) * R.gens()[0] ** data.draw(st.integers(0, 8))
              for ts in data.draw(_small_polys(n, 3, 4))]
    # narrow first widths make the engine restart wider on some draws, and
    # the high-degree probes widen the read basis inside the normal forms
    bits = data.draw(st.sampled_from([3, 4, 8]))

    def entries(basis):
        return [(g.full(), g.lc, g.pk.unpack(g.lm)) for g in basis]

    def refuse(*args):
        raise AssertionError("the basis was recomputed, not read")
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as cache:
        mp.setattr(groebner, "_FIELD_BITS", bits)
        cfg = Config(cache_dir=cache)
        _fresh_process()
        computed = Ideal(R, gens)
        try:
            want = entries(computed._entries(Budget(step_cap=3000), cfg))
        except ComputationTimeout:
            assume(False)
        _fresh_process()
        mp.setattr(groebner, "groebner_entries", refuse)
        read = Ideal(R, gens)
        assert entries(read._entries(config=cfg)) == want
        assert read.groebner_basis(config=cfg) == computed.groebner_basis(config=cfg)
        for p in probes:
            want_nf = computed.normal_form(p, config=cfg)
            assert read.normal_form(p, config=cfg) == want_nf


def _same_entries(read, written) -> bool:
    """Whether two entry lists agree in lm, lc, tail and packing."""
    return len(read) == len(written) and all(
        (a.lm, a.lc, a.tail, a.mask) == (b.lm, b.lc, b.tail, b.mask) and a.pk is b.pk
        for a, b in zip(read, written))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_pack_record_reads_back_the_entries_written(data):
    # ideal and module bases, some widened in place first: the record holds
    # the entries as they are packed, and reads back into the same ones
    n = data.draw(st.integers(1, 4))
    order = data.draw(st.sampled_from([grevlex(n), lex(n)]))
    rank = data.draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    if rank:
        exps = st.builds(lambda c, e: tuple(int(i == c) for i in range(rank)) + e,
                         st.integers(0, rank - 1), exps)
    coeffs = st.sampled_from([1, -1, 2, -3, 7, -2 ** 70 - 1])
    gens = data.draw(st.lists(st.dictionaries(exps, coeffs, min_size=1, max_size=3),
                              min_size=1, max_size=3))
    budget = Budget(step_cap=300)
    try:
        if rank:
            rows = _module_rows(order, rank)
            entries = module_groebner(gens, order, [0] * rank, budget)
        else:
            rows = order.weight_rows()
            entries = groebner_entries(gens, order, budget)
    except ComputationTimeout:
        assume(False)
    for _ in range(data.draw(st.integers(0, 2))):
        entries.widen()
    with tempfile.TemporaryDirectory() as cache:
        _fresh_process()
        groebner._disk_put(cache, "round-trip", entries)
        _fresh_process()
        read = groebner._disk_get(cache, "round-trip", rows, rank)
    assert read is not None and _same_entries(read, entries)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_kept_divisor_index_reduces_as_a_fresh_one(data):
    # the normal forms by a basis that keeps its divisor index match, term
    # for term and tick for tick, those by a copy that builds a new one, as
    # the probes and explicit widenings repack the basis
    n = data.draw(st.integers(2, 4))
    R = xring(n, data.draw(st.sampled_from([grevlex(n), lex(n)])))
    gens = [Polynomial(R, dict(ts)) for ts in data.draw(_small_polys(n, 2, 3))]
    probes = [Polynomial(R, dict(ts)) * R.gens()[0] ** data.draw(st.integers(0, 8))
              for ts in data.draw(_small_polys(n, 3, 4))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_FIELD_BITS", data.draw(st.sampled_from([3, 4, 8])))
        try:
            basis = groebner_entries([to_int_terms(g) for g in gens], R.order,
                                     Budget(step_cap=3000))
        except ComputationTimeout:
            assume(False)
        for p in probes:
            if data.draw(st.booleans()):
                basis.widen()
            index = basis.divisor_index()  # built on first use, dropped by a widening
            assert index.pk is basis[0].pk and index.entries == list(basis)
            fresh = groebner._Basis(basis)
            kept_budget, fresh_budget = Budget(step_cap=5000), Budget(step_cap=5000)
            try:
                want = groebner._reduce_terms(to_int_terms(p), fresh, fresh_budget)
            except ComputationTimeout:
                assume(False)
            got = groebner._reduce_terms(to_int_terms(p), basis, kept_budget)
            assert got == want and kept_budget.steps == fresh_budget.steps


@pytest.mark.parametrize("source", ["computed", "memory", "disk"])
def test_entry_readers_build_no_monic_basis(tmp_path, monkeypatch, source):
    H, f, partials, _, _ = hankel3_context()
    cfg = Config(cache_dir=str(tmp_path))
    _MEMORY_CACHE.clear()
    if source != "computed":
        Ideal(H.ring, partials).groebner_basis(config=cfg)
    if source == "disk":
        _fresh_process()

    def refuse(*args):
        raise AssertionError("a monic basis was built")
    monkeypatch.setattr(groebner._Entry, "monic", refuse)
    J = Ideal(H.ring, partials)
    delta23 = H.ring.from_string("x2^2 - x1*x3")
    assert J.normal_form(delta23, config=cfg) == H.ring.from_string("-1/3*x1*x3 + 1/3*x0*x4")
    assert J.contains(f, config=cfg)
    assert len(J.leading_monomials(config=cfg)) == 7
    assert hilbert_data(J, config=cfg).multiplicity == 4
    assert certify_groebner(J, config=cfg)
    assert not J.is_unit(config=cfg)


def test_cache_key_ignores_generator_order_and_repeats():
    R = xring(3)
    x0, x1, x2 = R.gens()
    gens = [x0 * x1 - x2 ** 2, x1 + Fraction(1, 3) * x2, x0 ** 3]
    key = _cache_key(R, gens)
    assert _cache_key(R, list(reversed(gens))) == key
    assert _cache_key(R, gens + gens[:2]) == key


def test_cache_key_separates_field_order_names_and_coefficients():
    R, Rn = xring(2), Ring(("a", "b"))
    f = R.from_string("x0*x1 + 1")
    key = _cache_key(R, [f])
    assert _cache_key(xring(2, lex(2)), [f]) != key
    assert _cache_key(Rn, [Polynomial(Rn, f.terms)]) != key
    half, two = R.from_string("x0 + 1/2"), R.from_string("x0 + 2")
    assert _cache_key(R, [half]) != _cache_key(R, [two])


# the reduced basis of _TEXTLESS_GENS, as the text-keyed cache computed it
_TEXTLESS_BASIS = ["x1^2 - 1/2*x0*x2", "x0*x1 - x2^2", "x0^2 - x1*x2",
                   "x1*x2^2", "x0*x2^2", "x2^4"]


def _textless_gens(R):
    x0, x1, x2 = R.gens()
    return [x0 ** 2 - x1 * x2, x0 * x1 - x2 ** 2, x1 ** 2 - Fraction(1, 2) * x0 * x2]


def _refusing_text(monkeypatch):
    def refuse(*args):
        raise AssertionError("polynomial text used inside the program")
    monkeypatch.setattr(polyring, "format_polynomial", refuse)
    monkeypatch.setattr(polyring, "parse_polynomial", refuse)


def test_basis_and_memory_hit_need_no_text(monkeypatch):
    R = xring(3)
    gens = _textless_gens(R)
    _MEMORY_CACHE.clear()

    def refuse(*args):
        raise AssertionError("the basis was recomputed")
    _refusing_text(monkeypatch)
    computed = Ideal(R, gens).groebner_basis(config=Config())
    monkeypatch.setattr(groebner, "groebner_entries", refuse)
    served = Ideal(R, list(reversed(gens))).groebner_basis(config=Config())
    monkeypatch.undo()
    assert [format_polynomial(g) for g in computed] == _TEXTLESS_BASIS
    assert [format_polynomial(g) for g in served] == _TEXTLESS_BASIS


def test_the_disk_cache_needs_no_text(tmp_path, monkeypatch):
    # a computation with a cache directory, a memory hit and a disk hit
    R = xring(3)
    cfg = Config(cache_dir=str(tmp_path))
    _MEMORY_CACHE.clear()
    _refusing_text(monkeypatch)
    Ideal(R, _textless_gens(R)).groebner_basis(config=cfg)
    Ideal(R, _textless_gens(R)).groebner_basis(config=cfg)
    _fresh_process()
    served = Ideal(R, _textless_gens(R)).groebner_basis(config=cfg)
    monkeypatch.undo()
    assert len(list(tmp_path.glob("*.gb"))) == 1
    assert [format_polynomial(g) for g in served] == _TEXTLESS_BASIS


def _text_dedup(gens):
    seen, out = set(), []
    for g in gens:
        s = format_polynomial(g)
        if not g.is_zero() and s not in seen:
            seen.add(s)
            out.append(g)
    return out


_QQ_COEFFS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(2, 4), Fraction(-3, 2)])


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_value_dedup_keeps_the_text_dedup_generators(data):
    R = xring(2)
    term = st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1)), _QQ_COEFFS)
    gens = [Polynomial(R, dict(terms))
            for terms in data.draw(st.lists(st.lists(term, max_size=3), max_size=8))]
    kept = Ideal(R, gens).gens
    want = _text_dedup(gens)
    assert len(kept) == len(want) and all(a is b for a, b in zip(kept, want))


def test_budget_timeout_is_explicit():
    _, _, partials, _, _ = hankel3_context()
    R = partials[0].ring
    # shift generators so no cached basis can be reused
    shifted = [p * p - R.gens()[0] * p for p in partials]
    with pytest.raises(ComputationTimeout):
        Ideal(R, shifted).groebner_basis(budget=Budget(step_cap=3))


# ---------------------------------------------------------------------------
# normal forms and membership

def test_membership_hankel3_facts():
    H, f, partials, J, P = hankel3_context()
    R = H.ring
    assert J.contains(f)  # Euler
    delta23 = R.from_string("x2^2 - x1*x3")
    assert not J.contains(delta23)
    delta14 = R.from_string("x0*x4 - x1*x3")
    x2 = R.gens()[2]
    assert J.contains(x2 * delta14)
    # and x_i * delta23 for the outer variables
    for i in (0, 1, 3, 4):
        assert J.contains(R.gens()[i] * delta23)


def test_normal_form_is_canonical_remainder():
    _, f, partials, J, _ = hankel3_context()
    R = f.ring
    g = R.from_string("x2^2 - x1*x3")
    nf = J.normal_form(g + partials[0] * R.gens()[1] - f)
    assert J.contains((g + partials[0] * R.gens()[1] - f) - nf)
    lms = [h.leading_monomial() for h in J.groebner_basis()]
    for e in nf.terms:
        assert not any(all(a <= b for a, b in zip(lm, e)) for lm in lms)


# ---------------------------------------------------------------------------
# initial ideals

def test_initial_ideal_hankel3():
    _, f, partials, J, _ = hankel3_context()
    R = f.ring
    ini = Ideal(R, [R.monomial(e) for e in J.leading_monomials()])
    G = ["x1^2", "x1*x2", "x2^2", "x2*x3", "x3^2"]
    for s in G:
        assert ini.contains(R.from_string(s))
    for i, lead in ((0, "x3^2"), (4, "x1^2"), (2, "x2^2")):
        (e,) = Ideal(R, [partials[i]]).leading_monomials()
        assert str(R.monomial(e)) == lead


# ---------------------------------------------------------------------------
# elimination / intersection / colon / saturation

def test_eliminate_parabola():
    R = Ring(("t", "x0", "x1"))
    t, a, b = R.gens()
    E = eliminate(Ideal(R, [a - t, b - t * t]), [1, 2])
    assert [str(g) for g in E.gens] == ["x0^2 - x1"]


def test_eliminate_tag_intersection_oracle():
    R = Ring(("t", "x0", "x1"))
    t, a, b = R.gens()
    E = eliminate(Ideal(R, [t * a, (R.one() - t) * b]), [1, 2])
    assert [str(g) for g in E.gens] == ["x0*x1"]


def test_intersect_principal():
    R = xring(2)
    x0, x1 = R.gens()
    K = intersect(Ideal(R, [x0]), Ideal(R, [x1]))
    assert ideal_equal(K, Ideal(R, [x0 * x1]))


def test_colon_and_saturation_hankel3():
    H, f, partials, J, P = hankel3_context()
    R = H.ring
    m = Ideal(R, R.gens())
    got = colon(J, P)
    assert ideal_equal(got, m)
    JP = ideal_product(J, P)
    P2 = ideal_power(P, 2)
    got2 = colon(JP, P2)
    assert got2.is_unit()
    sat = saturation(J, m)
    assert ideal_equal(sat, P)


def test_colon_monotone_and_intersect_contained():
    _, _, _, J, P = hankel3_context()
    c = colon(J, P)
    assert c.contains_ideal(J)
    K = intersect(J, P)
    assert J.contains_ideal(K) and P.contains_ideal(K)


def test_cat32_intersection_and_embedded_prime():
    C = build_structured("catalecticant", m=3, r=2)
    G = build_gp_associated(3, 2)
    R = C.ring
    x = R.gens()
    f = determinant(C)
    J = Ideal(R, [f.diff(i) for i in range(7)])
    I = Ideal(R, minors_ideal_gens(C, 2))
    P = Ideal(R, minors_ideal_gens(G, 2))
    L = Ideal(R, [x[0], x[2], x[4], x[6]])
    assert ideal_equal(intersect(P, L), I)
    Q = Ideal(R, [x[0], x[2], x[4], x[6], x[1] * x[5] - x[3] ** 2])
    assert ideal_equal(colon(J, I), Q)


# ---------------------------------------------------------------------------
# radical membership

def test_radical_membership_basics():
    R = xring(2)
    x0, x1 = R.gens()
    assert radical_membership(x1, Ideal(R, [x1 ** 2]))
    assert not radical_membership(x0, Ideal(R, [x1]))


def test_radical_membership_refuses_a_polynomial_from_another_ring():
    # the same names in another order: read by name, x0 would be a member
    R = xring(2)
    x0 = R.gens()[0]
    f = Ring(("x1", "x0")).from_string("x0")
    with pytest.raises(ValueError, match="different ring"):
        radical_membership(f, Ideal(R, [x0 ** 2]))
    # the zero polynomial of another ring too, as Ideal.contains refuses it
    with pytest.raises(ValueError, match="different ring"):
        radical_membership(Ring(("a", "b")).zero(), Ideal(R, [x0 ** 2]))


def test_radical_membership_hankel3_minors():
    H, f, partials, J, _ = hankel3_context()
    for g in minors_ideal_gens(H, 2):
        assert radical_membership(g, J)


# ---------------------------------------------------------------------------
# Hilbert data

def test_hilbert_hankel3_minors():
    H, _, _, J, P = hankel3_context()
    hd = hilbert_data(P)
    assert hd.multiplicity == 4
    assert H.ring.nvars - hd.dimension == 3
    hdj = hilbert_data(J)
    assert hdj.multiplicity == 4
    assert H.ring.nvars - hdj.dimension == 3


def test_hilbert_artinian_initial_count():
    S = Ring(("x1", "x2", "x3"))
    gens = [S.from_string(s) for s in ("x1^2", "x1*x2", "x2^2", "x2*x3", "x3^2")]
    hd = hilbert_data(Ideal(S, gens))
    assert hd.dimension == 0
    assert hd.multiplicity == 5  # the Artinian length


def test_hilbert_subhankel4_numerator():
    M = build_structured("sub-hankel", n=4)
    f = determinant(M)
    J = Ideal(M.ring, [f.diff(i) for i in range(5)])
    hd = hilbert_data(J)
    assert hd.numerator == {0: 1, 3: -5, 4: 4, 6: 1, 7: -1}
    assert hd.multiplicity == 3


def test_hilbert_order_independent():
    _, _, _, J, P = hankel3_context()
    other = Ring(J.ring.variables, block_order([[4, 3, 2], [1, 0]]))
    for I in (J, P):
        a = hilbert_data(I)
        b = hilbert_data(Ideal(other, I.gens))
        assert (a.dimension, a.multiplicity) == (b.dimension, b.multiplicity)


def test_hilbert_trivial_cases():
    R = xring(3)
    assert hilbert_data(Ideal(R, [])).dimension == 3
    assert hilbert_data(Ideal(R, [R.one()])).dimension == -1
    hd = hilbert_data(Ideal(R, list(R.gens())))
    assert hd.dimension == 0 and hd.multiplicity == 1
    R0 = Ring(())
    assert hilbert_data(Ideal(R0, [R0.one()])).dimension == -1


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4))))
@settings(max_examples=60, deadline=None)
def test_hilbert_numerator_counts_the_standard_monomials(case):
    # N(t) = (1-t)^n * sum_d h(d) t^d, h(d) the monomials of degree d
    # outside the monomial ideal; N has degree at most that of the lcm
    n, gens = case
    R = xring(n)
    num = hilbert_data(Ideal(R, [Polynomial(R, {e: 1}) for e in gens])).numerator
    top = sum(max(e[i] for e in gens) for i in range(n))

    def standard(m):
        return not any(all(a <= b for a, b in zip(e, m)) for e in gens)
    h = [sum(1 for m in itertools.product(range(d + 1), repeat=n)
             if sum(m) == d and standard(m)) for d in range(top + 1)]
    want = {}
    for d, c in enumerate(h):
        for k in range(n + 1):
            if d + k <= top:
                want[d + k] = want.get(d + k, 0) + c * (-1) ** k * math.comb(n, k)
    assert num == {d: c for d, c in want.items() if c}


# ---------------------------------------------------------------------------
# blowup equations, from the tag-elimination oracle `rees_ideal`

def test_rees_koszul_pair():
    R = xring(2)
    x0, x1 = R.gens()
    forms = [x0, x1]
    res = rees_ideal(forms)
    assert len(res.gens) == 1
    g = res.gens[0]
    assert str(g) in ("-y1*x0 + y0*x1", "y1*x0 - y0*x1")
    assert bidegree(g, len(forms)) == (1, 1)


def test_rees_contains_symmetric_side_and_linear_type_cat32():
    from detlab.syzygy import first_syzygy_module
    C = build_structured("catalecticant", m=3, r=2)
    f = determinant(C)
    partials = [f.diff(i) for i in range(7)]
    rr = rees_ideal(partials)
    syz = first_syzygy_module(partials)
    sym = symmetric_algebra_ideal(partials, syz.columns)
    # membership both ways gives equality here (linear type)
    for g in rr.gens:
        assert sym.contains(g)
    for g in sym.gens:
        assert rr.contains(g)


def test_rees_bidegree_filter():
    R = xring(2)
    x0, x1 = R.gens()
    forms = [x0 ** 2, x0 * x1, x1 ** 2]
    res = rees_ideal(forms)
    ones = [g for g in res.gens if bidegree(g, len(forms))[1] == 1]
    assert len(ones) >= 2
    twos = [g for g in res.gens if bidegree(g, len(forms))[1] == 2]
    # the Veronese relation y0*y2 - y1^2 appears in y-degree 2
    assert any(bidegree(g, len(forms)) == (0, 2) for g in twos)


# ---------------------------------------------------------------------------
# misc invariants

def test_ideal_equal_mutual_membership():
    R = xring(2)
    x0, x1 = R.gens()
    A = Ideal(R, [x0, x1])
    B = Ideal(R, [x0 + x1, x0 - x1])
    assert ideal_equal(A, B)
    assert not ideal_equal(A, Ideal(R, [x0]))


# ---------------------------------------------------------------------------
# ideal equality from reduced bases, against mutual membership

_EQUAL_KINDS = ("regenerated", "result", "other", "tails", "zero", "unit", "widened", "orders")


def _drawn_poly(data, R, homogeneous):
    """A nonzero polynomial of R with one to three terms: homogeneous of a
    drawn degree 1..2, or of degrees 0..2."""
    degree = data.draw(st.integers(1, 2))
    pool = [e for e in itertools.product(range(3), repeat=R.nvars)
            if (sum(e) == degree if homogeneous else sum(e) <= 2)]
    terms = data.draw(st.dictionaries(st.sampled_from(pool),
                                      st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]),
                                      min_size=1, max_size=3))
    return Polynomial(R, terms)


@pytest.mark.parametrize("kind", _EQUAL_KINDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_ideal_equal_matches_mutual_membership(kind, data):
    _MEMORY_CACHE.clear()  # a basis widened by an earlier example is not reused
    n = data.draw(st.integers(2, 3))
    R = xring(n, data.draw(st.sampled_from([grevlex(n), lex(n)])))
    homogeneous = data.draw(st.booleans())
    gens = [_drawn_poly(data, R, homogeneous) for _ in range(data.draw(st.integers(1, 3)))]
    extra = _drawn_poly(data, R, homogeneous)
    I = Ideal(R, gens)
    if kind == "regenerated":  # the same ideal from other generators
        J = Ideal(R, gens[::-1] + [extra * gens[0] + gens[-1]])
    elif kind == "result":  # a result ideal, which holds only its basis
        J = intersect(Ideal(R, gens + [extra * gens[0]]), Ideal(R, gens + [extra]))
    elif kind == "other":
        J = Ideal(R, gens + [extra])
    elif kind == "tails":  # every generator moved in its tail
        J = Ideal(R, [g + extra * data.draw(st.sampled_from([1, -1, 2])) for g in gens])
        assume(not any(g.is_zero() for g in J.gens))
    elif kind == "zero":
        I, J = Ideal(R, []), data.draw(st.sampled_from([Ideal(R, []), I]))
    elif kind == "unit":
        J = Ideal(R, gens + [R.const(data.draw(st.sampled_from([1, -2, Fraction(3, 4)])))])
    elif kind == "widened":  # the same ideal, packed wider on one side
        J = Ideal(R, gens[::-1] + [extra * gens[0]])
    else:  # the same generators, in a ring of the same names in another order
        J = Ideal(xring(n, lex(n) if R.order == grevlex(n) else grevlex(n)),
                  [Polynomial(R, g.terms) for g in gens])
    if data.draw(st.booleans()):
        I, J = J, I
    try:
        budget = Budget(step_cap=20_000)
        if kind == "widened":
            entries, width = J._entries(budget), I._entries(budget)[0].pk.width
            assume(entries is not I._entries(budget))  # not one key
            while entries[0].pk.width <= width:
                entries.widen()
        want = membership_equal(I, J, budget)
        got = ideal_equal(I, J, budget)
        same = groebner._same_basis(I, J, budget)
        contains = I.contains_ideal(J, budget)
        assert contains == all(I.contains(g, budget) for g in J.gens)
    except ComputationTimeout:
        assume(False)
    assert got == want
    assert same is None if kind in ("widened", "orders") else same == want
    if kind in ("regenerated", "result", "widened", "orders"):
        assert got


def test_equal_leading_monomials_do_not_make_equal_ideals():
    R = xring(2)
    x0, x1 = R.gens()
    plus, minus = Ideal(R, [x0 ** 2 + x1 ** 2]), Ideal(R, [x0 ** 2 - x1 ** 2])
    assert plus.leading_monomials() == minus.leading_monomials()
    assert not ideal_equal(plus, minus)
    assert not plus.contains_ideal(intersect(minus, minus))


def test_one_ideal_in_two_orders_has_bases_of_different_lengths():
    # (x0 - x1^2, x1^3) is its own reduced basis in lex; in grevlex the
    # basis is x1^2 - x0, x0*x1, x0^2.  The bases cannot decide equality:
    # membership does
    Rg, Rl = xring(2), xring(2, lex(2))
    x0, x1 = Rg.gens()
    I = Ideal(Rg, [x0 - x1 ** 2, x1 ** 3])
    J = Ideal(Rl, [Polynomial(Rl, g.terms) for g in I.gens])
    assert len(I.groebner_basis()) == 3 and len(J.groebner_basis()) == 2
    assert groebner._same_basis(I, J) is None
    assert ideal_equal(I, J) and ideal_equal(J, I)
    assert not ideal_equal(I, Ideal(Rl, [Polynomial(Rl, (x0 - x1 ** 2).terms)]))


def _no_monic(*args):
    raise AssertionError("a monic basis was built")


def test_equal_bases_decide_without_reduction(monkeypatch):
    # an equal pair is decided by comparing the entries: no reduction
    # step is taken and no monic basis is built
    H, f, partials, J, P = hankel3_context()
    J.groebner_basis()
    K = Ideal(H.ring, partials[::-1] + [partials[0] * partials[1]])
    K._entries()
    P._entries()
    result = intersect(Ideal(H.ring, partials + [f]), J)
    monkeypatch.setattr(groebner._Entry, "monic", _no_monic)
    budget = _LabelBudget()
    assert ideal_equal(J, K, budget) and ideal_equal(result, J, budget)
    assert J.contains_ideal(result, budget)
    assert budget.by_label == {}
    assert P.contains_ideal(result, budget) and not result.contains_ideal(P, budget)
    assert set(budget.by_label) == {"polynomial reduction"}


def test_a_result_ideal_is_keyed_by_its_whole_basis(monkeypatch):
    # the key of a result ideal comes from the integer terms of its
    # entries, builds no monic basis, and is of a kind of its own
    R = xring(2)
    x0, x1 = R.gens()

    def result(f):
        return intersect(Ideal(R, [f]), Ideal(R, [f, f * x0]))
    plus, minus = result(x0 ** 2 + x1 ** 2), result(x0 ** 2 - x1 ** 2)
    twice = result(2 * x0 ** 2 + 2 * x1 ** 2)
    with monkeypatch.context() as m:
        m.setattr(groebner._Entry, "monic", _no_monic)
        keys = plus._key, minus._key, twice._key
    assert keys[0] != keys[1] and keys[0] == keys[2]
    assert keys[0] != Ideal(R, plus.gens)._key
    g = x0 + x1
    assert colon_poly(plus, g).groebner_basis() == plus.groebner_basis()
    assert colon_poly(minus, g).groebner_basis() == [x0 - x1]


def test_colon_by_zero_raises():
    R = xring(2)
    with pytest.raises(ZeroDivisionError):
        colon(Ideal(R, [R.gens()[0]]), Ideal(R, []))
    with pytest.raises(ZeroDivisionError):
        colon(Ideal(R, [R.gens()[0]]), R.zero())


def test_queries_refuse_a_polynomial_from_another_ring():
    # read by position, the exponents of a would pass for those of x0
    R, S = xring(2), Ring(("a", "b"))
    x0, x1 = R.gens()
    a = S.from_string("a")
    for query in (lambda: Ideal(R, [x0]).contains(a),
                  lambda: Ideal(R, [x0]).normal_form(a),
                  lambda: colon_poly(Ideal(R, [x0 * x1]), a)):
        with pytest.raises(ValueError, match="different ring"):
            query()


def test_order_ids_and_cache_keys_are_stable(monkeypatch):
    # order ids enter the cache keys, which head the records of every cache
    # directory written so far: a change would recompute every basis
    assert [grevlex(n).id for n in (0, 1, 5)] == ["grevlex:0", "grevlex:1", "grevlex:5"]
    _, _, _, J, _ = hankel3_context()
    assert J._key == _cache_key(J.ring, J.gens) == \
        "e79493d1263bea71f11eb79edc43576425bfce83e83d6bc6cb3fe7567456db33"
    seen = []

    def recording(gens, order, budget):
        seen.append(order.id)
        return groebner_entries(gens, order, budget)
    _MEMORY_CACHE.clear()
    monkeypatch.setattr(groebner, "groebner_entries", recording)
    R = xring(4)
    x0, x1, x2, x3 = R.gens()
    E = eliminate(Ideal(R, [x1 - x0 ** 2, x3 - x2 ** 2, x1 * x3 - x0]), [0, 2])
    S = xring(2)
    y0, y1 = S.gens()
    rees_ideal([y0, y1])
    K = intersect(Ideal(S, [y0]), Ideal(S, [y1]))
    assert seen == ["block[1,3:grevlex:2|0,2:grevlex:2]",
                    "block[0:grevlex:1|1,2:grevlex:2|3,4:grevlex:2]",
                    "grevlex:2", "grevlex:2", "block[0:grevlex:1|1,2:grevlex:2]"]
    assert E.ring.order.id == "grevlex:2" and [str(g) for g in E.gens] == ["x0^2*x2^2 - x0"]
    assert [str(g) for g in K.gens] == ["x0*x1"]


def test_reduced_basis_canonical_under_generator_permutation():
    H, f, partials, J, P = hankel3_context()
    R = H.ring
    gb1 = Ideal(R, partials).groebner_basis()
    gb2 = Ideal(R, list(reversed(partials))).groebner_basis()
    assert [str(g) for g in gb1] == [str(g) for g in gb2]

"""Command-line surface: matrix construction, ideal queries, syzygies,
polar analytics, the bracket checks, sub-Hankel reports, and the case-study
registry, with JSON reporting and deterministic seeding.

Exit codes: 0 success/match, 1 contradiction, 2 usage error, 3 timeout-only
incompleteness.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys

from .config import Config, ComputationTimeout
from .polyring import parse_polynomial, xring
from .groebner import (Ideal, colon, eliminate, hilbert_data,
                       intersect, radical_membership, saturation)
from .structmat import (build_structured, build_gp_associated, determinant,
                        minors_ideal_gens, parse_matrix_spec)
from .syzygy import linear_syzygies, first_syzygy_module, graded_betti
from . import hankelplucker, polar, subhankel as subhankel_mod
from .casebook import list_scenarios, run_scenario

EXIT_OK = 0
EXIT_CONTRADICTION = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3


def _config_from_args(args) -> Config:
    kw = {}
    if getattr(args, "seed", None) is not None:
        kw["seed"] = args.seed
    if getattr(args, "timeout_secs", None) is not None:
        kw["timeout_secs"] = args.timeout_secs
    if getattr(args, "cache_dir", None) is not None:
        kw["cache_dir"] = args.cache_dir
    return Config.from_env(**kw)


def _emit(args, payload: dict) -> None:
    payload = {"schema": 1, **payload}
    if getattr(args, "no_timings", False):
        payload.pop("millis", None)
    if getattr(args, "json", False) or getattr(args, "json_out", None):
        text = json.dumps(payload, sort_keys=True, indent=2, default=str)
        out = getattr(args, "json_out", None)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    else:
        for k, v in payload.items():
            if k == "schema":
                continue
            print(f"{k}: {v}")


def _load_matrix(args):
    if getattr(args, "spec", None):
        with open(args.spec, encoding="utf-8") as fh:
            return parse_matrix_spec(fh.read())
    kind = args.kind
    if kind is None:
        raise ValueError("need --kind or --spec")
    if kind == "gp-associated":
        return build_gp_associated(args.m, args.r)
    return build_structured(kind, m=args.m, r=args.r, n=args.n)


def _read_form_lines(path: str) -> tuple[list[str], int | None]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    nvars = None
    if lines and lines[0].startswith("vars"):
        nvars = int(lines[0].split("=")[1])
        lines = lines[1:]
    return lines, nvars


def _read_forms(path: str, paths_sharing_ring: list[str] = ()):
    """One polynomial per non-empty line; first line may set `vars = k`.

    Extra paths participate in the variable-count inference so that ideals
    read from several files land in one common ring.
    """
    import re
    lines, nvars = _read_form_lines(path)
    all_lines = list(lines)
    for other in paths_sharing_ring:
        olines, onvars = _read_form_lines(other)
        all_lines += olines
        if onvars is not None:
            nvars = max(nvars or 0, onvars)
    if nvars is None:
        idx = [int(mm.group(1)) for ln in all_lines
               for mm in re.finditer(r"x(\d+)", ln)]
        nvars = max(idx) + 1 if idx else 1
    if not lines:
        raise ValueError(f"no forms in {path}")
    ring = xring(nvars)
    return [parse_polynomial(ring, ln) for ln in lines]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_matrix(args) -> int:
    budget = _config_from_args(args).budget()
    M = _load_matrix(args)
    payload = {"kind": M.provenance, "rows": M.rows, "cols": M.cols,
               "ring": list(M.ring.variables)}
    if args.print or not (args.det or args.minors):
        payload["entries"] = [[str(M[i, j]) for j in range(M.cols)]
                              for i in range(M.rows)]
    if args.det:
        payload["det"] = str(determinant(M, budget))
    if args.minors:
        payload["minors"] = [str(g) for g in minors_ideal_gens(M, args.minors, budget)]
    _emit(args, payload)
    return EXIT_OK


# the option each ideal op reads besides --gens
_IDEAL_OP_NEEDS = {"member": "f", "radmember": "f", "colon": "other", "sat": "other",
                   "intersect": "other", "eliminate": "keep"}


def _cmd_ideal(args) -> int:
    need = _IDEAL_OP_NEEDS.get(args.op)
    if need and getattr(args, need) is None:
        raise ValueError(f"--op {args.op} needs --{need}")
    budget = _config_from_args(args).budget()
    shared = [args.other] if args.other else []
    forms = _read_forms(args.gens, paths_sharing_ring=shared)
    ring = forms[0].ring
    I = Ideal(ring, forms)
    if args.op == "gb":
        payload = {"op": "gb", "basis": [str(g) for g in
                                         I.groebner_basis(budget=budget)]}
    elif args.op == "member":
        f = parse_polynomial(ring, args.f)
        payload = {"op": "member", "f": args.f,
                   "member": I.contains(f, budget=budget)}
    elif args.op == "radmember":
        f = parse_polynomial(ring, args.f)
        payload = {"op": "radmember", "f": args.f,
                   "member": radical_membership(f, I, budget)}
    elif args.op == "hilbert":
        hd = hilbert_data(I, budget=budget)
        payload = {"op": "hilbert", "dimension": hd.dimension,
                   "multiplicity": hd.multiplicity,
                   "numerator": hd.numerator_string()}
    elif args.op in ("colon", "sat", "intersect"):
        other = Ideal(ring, _read_forms(args.other,
                                        paths_sharing_ring=[args.gens]))
        if args.op != "intersect" and other.is_zero():
            raise ValueError("colon by the zero ideal")
        if args.op == "colon":
            out = colon(I, other, budget)
        elif args.op == "sat":
            out = saturation(I, other, budget)
        else:
            out = intersect(I, other, budget)
        payload = {"op": args.op,
                   "basis": [str(g) for g in out.groebner_basis(budget=budget)]}
    elif args.op == "eliminate":
        keep = [int(s) for s in args.keep.split(",")]
        out = eliminate(I, keep, budget)
        payload = {"op": "eliminate", "basis": [str(g) for g in out.gens]}
    else:
        print(f"unknown ideal op {args.op}", file=sys.stderr)
        return EXIT_USAGE
    _emit(args, payload)
    return EXIT_OK


def _cmd_syz(args) -> int:
    budget = _config_from_args(args).budget()
    forms = _read_forms(args.forms)
    if args.betti:
        I = Ideal(forms[0].ring, forms)
        bt, _ = graded_betti(I, budget)
        payload = {"mode": "betti", "complete": bt.complete,
                   "betti": {f"{i},{j}": v for (i, j), v in sorted(bt.items())}}
    elif args.full:
        syz = first_syzygy_module(forms, budget)
        payload = {"mode": "full", "columns": len(syz.columns),
                   "column_degrees": syz.column_degrees,
                   "matrix": [[str(p) for p in col] for col in syz.columns]}
    else:
        syz, rank = linear_syzygies(forms, budget, budget.config)
        payload = {"mode": "linear", "columns": len(syz.columns),
                   "rank": rank.rank, "certainty": rank.certainty,
                   "matrix": [[str(p) for p in col] for col in syz.columns]}
    _emit(args, payload)
    return EXIT_OK


def _cmd_polar(args) -> int:
    config = _config_from_args(args)
    M = _load_matrix(args)
    if not (args.verdict or args.hessian_mult or args.invert or args.linear_rank):
        print("polar: choose --verdict, --hessian-mult, --invert or --linear-rank",
              file=sys.stderr)
        return EXIT_USAGE
    budget = config.budget()
    form = polar.polar_data(determinant(M, budget), config)
    if args.verdict:
        v = polar.homaloidal_verdict(form, budget)
        payload = {"mode": "verdict",
                   **v.to_dict(no_timings=getattr(args, "no_timings", False))}
    elif args.hessian_mult:
        mr = polar.factor_multiplicity(form.f, polar.HessianDetOnLine(form),
                                       config=config)
        payload = {"mode": "hessian-mult", "multiplicity": mr.value,
                   "certainty": mr.certainty, "residual_degree": mr.residual_degree,
                   "per_line_bound": mr.per_line_bound, "seed": config.seed}
    elif args.invert:
        inv = polar.inversion_check(form.partials, _read_forms(args.invert))
        payload = {"mode": "invert", "is_inverse": inv.is_inverse,
                   "factor": str(inv.factor) if inv.factor else None,
                   "witness": inv.witness}
    else:
        zero_idx = [i for i, p in enumerate(form.partials) if p.is_zero()]
        nonzero = [p for p in form.partials if not p.is_zero()]
        syz, rank = linear_syzygies(nonzero, budget, config)
        payload = {"mode": "linear-rank", "columns": len(syz.columns),
                   "rank": rank.rank, "certainty": rank.certainty,
                   "zero_partials": zero_idx}
    _emit(args, payload)
    return EXIT_OK


def _cmd_hankel(args) -> int:
    config = _config_from_args(args)
    m = args.m
    hankelplucker.check_order(args.check, m, args.i)
    if args.check == "plucker":
        # the three-term relations read bracket minors alone, no Hankel record
        ok = all(hankelplucker.three_term_plucker(m, 1, q)
                 for q in itertools.combinations(range(1, m + 2), 4))
        _emit(args, {"check": "plucker", "m": m, "pass": ok})
        return EXIT_OK if ok else EXIT_CONTRADICTION
    budget = config.budget()
    H = build_structured("hankel", m=m)
    form = polar.polar_data(determinant(H, budget), config)
    if args.check == "star":
        rows = []
        for j in range(2 * m - 1):
            e = hankelplucker.star_expansion(form, j)
            rows.append({"partial": j, "epsilon": e.epsilon,
                         "combination": [[c, list(b)] for c, b in e.coefficients],
                         "incomparable": e.pairwise_incomparable()})
        _emit(args, {"check": "star", "m": m, "expansions": rows})
        return EXIT_OK
    if args.check == "golberg":
        rep = hankelplucker.golberg_delta_check(H, form)
        _emit(args, {"check": "golberg", "m": m, "pass": rep.passed,
                     "signs": rep.partial_signs, "details": rep.details})
        return EXIT_OK if rep.passed else EXIT_CONTRADICTION
    P = Ideal(H.ring, minors_ideal_gens(H, m - 1))
    if args.check == "radical":
        rep = hankelplucker.integrality_check(H, form, P, budget)
        _emit(args, {"check": "radical", "m": m, "pass": rep.passed,
                     "witnesses": rep.quadratic_witnesses})
        return EXIT_OK if rep.passed else EXIT_CONTRADICTION
    # --check is one of the parser's choices: reduction is left
    out = hankelplucker.reduction_conjecture_check(H, form, P, args.i, budget)
    _emit(args, {"check": "reduction", "m": m, "i": args.i, "status": out.status,
                 "witness": out.witness})
    if out.status == "Equal":
        return EXIT_OK
    return EXIT_TIMEOUT if out.status == "Timeout" else EXIT_CONTRADICTION


def _cmd_subhankel(args) -> int:
    config = _config_from_args(args)
    n = args.n
    if not 2 <= n <= 6:
        raise ValueError("order out of supported range 2..6")
    if args.all and n >= 3:
        # the registry holds the curated fact list; emit its FactReport
        rep = run_scenario(f"subhankel-{n}", config=config)
        if args.json or args.json_out:
            text = rep.to_json(no_timings=args.no_timings)
            if args.json_out:
                with open(args.json_out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
        else:
            print(f"subhankel-{n}: {rep.verdict}")
            for r in rep.records:
                print(f"  [{r.match:>7}] {r.fact_id}")
        return {"pass": EXIT_OK, "contradiction": EXIT_CONTRADICTION,
                "incomplete": EXIT_TIMEOUT}[rep.verdict]
    budget = config.budget()
    form = polar.polar_data(determinant(build_structured("sub-hankel", n=n), budget), config)
    checks = {
        "recurrence": lambda form, budget: subhankel_mod.recurrence_check(form),
        "gcd": lambda form, budget: min((subhankel_mod.gcd_power_check(form, i, budget)
                                         for i in range(n)), key=lambda r: r.passed),
        "hilbert-burch": subhankel_mod.hilbert_burch_check,
        "multiplicity": subhankel_mod.multiplicity_filtration_check,
        "colon": subhankel_mod.colon_claim_check,
        "resolution": subhankel_mod.resolution_and_ass_check,
        "linear-type": subhankel_mod.subhankel_linear_type_check,
    }
    names = list(checks) if args.all else [args.check]
    results = {}
    worst = EXIT_OK
    for name in names:
        if name not in checks:
            print(f"unknown sub-hankel check {name}", file=sys.stderr)
            return EXIT_USAGE
        if not (subhankel_mod.MIN_ORDER.get(name, n) <= n
                <= subhankel_mod.MAX_ORDER.get(name, n)):
            results[name] = {"status": "skipped (out of supported range)"}
            continue
        try:
            rep = checks[name](form, budget)
            results[name] = {"pass": rep.passed, "details": rep.details}
            if not rep.passed:
                worst = EXIT_CONTRADICTION
        except ComputationTimeout:
            results[name] = {"status": "timeout"}
            if worst == EXIT_OK:
                worst = EXIT_TIMEOUT
    _emit(args, {"n": n, "checks": results})
    return worst


def _run_one_scenario(payload):
    # the workers share one cache directory, each appending to a pack of its
    # own (see the GB cache in `groebner`)
    sid, config, long = payload
    return run_scenario(sid, config=config, long=long)


def _cmd_casebook(args) -> int:
    config = _config_from_args(args)
    if args.action == "list":
        _emit(args, {"scenarios": list_scenarios()})
        return EXIT_OK
    ids = [args.id] if args.id else sorted(s["id"] for s in list_scenarios())
    worst = EXIT_OK
    reports = []
    if args.jobs > 1 and len(ids) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(
                _run_one_scenario,
                [(sid, config, args.long) for sid in ids]))
    else:
        for sid in ids:
            reports.append(run_scenario(sid, config=config, long=args.long))
    for rep in reports:
        if rep.verdict == "contradiction":
            worst = EXIT_CONTRADICTION
        elif rep.verdict == "incomplete" and worst == EXIT_OK:
            worst = EXIT_TIMEOUT
    if args.json_out:
        data = [json.loads(r.to_json(no_timings=args.no_timings)) for r in reports]
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(data if len(data) > 1 else data[0], fh, sort_keys=True, indent=2)
            fh.write("\n")
    for rep in reports:
        if args.json and not args.json_out:
            print(rep.to_json(no_timings=args.no_timings))
        else:
            print(f"{rep.scenario_id}: {rep.verdict}")
            for r in rep.records:
                print(f"  [{r.match:>7}] {r.fact_id} ({r.tag}, {r.certainty})")
            if rep.skipped_long:
                print(f"  skipped (need --long): {', '.join(rep.skipped_long)}")
    return worst


def _cmd_cache(args) -> int:
    config = _config_from_args(args)
    cdir = config.cache_dir
    if args.action == "info":
        if not cdir or not os.path.isdir(cdir):
            _emit(args, {"cache_dir": cdir, "entries": 0})
        else:
            entries = [f for f in os.listdir(cdir) if f.endswith(".gb")]
            _emit(args, {"cache_dir": cdir, "entries": len(entries)})
        return EXIT_OK
    if args.action == "clear":
        if cdir and os.path.isdir(cdir):
            shutil.rmtree(cdir)
        _emit(args, {"cache_dir": cdir, "cleared": True})
        return EXIT_OK
    return EXIT_USAGE


# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--timeout-secs", type=float, default=None, dest="timeout_secs")
    p.add_argument("--cache-dir", default=None, dest="cache_dir")
    p.add_argument("--json", action="store_true")
    p.add_argument("--json-out", default=None, dest="json_out")
    p.add_argument("--no-timings", action="store_true", dest="no_timings")


def _add_matrix_opts(p):
    p.add_argument("--kind", default=None,
                   choices=["hankel", "catalecticant", "generic", "symmetric",
                            "sub-hankel", "degenerate-generic", "sc3",
                            "gp-associated"])
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--spec", "--matrix", default=None, dest="spec",
                   help="matrix spec file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="detlab",
        description="exact workbench for structured determinants, gradient "
                    "ideals, syzygies and homaloidal verdicts")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="build and inspect structured matrices")
    _add_matrix_opts(p)
    p.add_argument("--print", action="store_true")
    p.add_argument("--det", action="store_true")
    p.add_argument("--minors", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("ideal", help="ideal-theoretic queries")
    p.add_argument("--op", required=True,
                   choices=["gb", "member", "radmember", "hilbert", "colon",
                            "sat", "intersect", "eliminate"])
    p.add_argument("--gens", required=True, help="file with one form per line")
    p.add_argument("--other", default=None, help="file for the second ideal")
    p.add_argument("--f", default=None, help="polynomial for membership queries")
    p.add_argument("--keep", default=None, help="comma-separated variable indices")
    _add_common(p)
    p.set_defaults(fn=_cmd_ideal)

    p = sub.add_parser("syz", help="syzygy computations")
    p.add_argument("--forms", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--linear", action="store_true")
    mode.add_argument("--full", action="store_true")
    mode.add_argument("--betti", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_syz)

    p = sub.add_parser("polar", help="polar map analytics of a determinant")
    _add_matrix_opts(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--verdict", action="store_true")
    mode.add_argument("--hessian-mult", action="store_true", dest="hessian_mult")
    mode.add_argument("--invert", default=None, help="file with candidate inverse")
    mode.add_argument("--linear-rank", action="store_true", dest="linear_rank")
    _add_common(p)
    p.set_defaults(fn=_cmd_polar)

    p = sub.add_parser("hankel", help="bracket and filtration checks")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--check", required=True,
                   choices=["star", "golberg", "plucker", "radical", "reduction"])
    p.add_argument("--i", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=_cmd_hankel)

    p = sub.add_parser("subhankel", help="sub-Hankel case reports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all", action="store_true")
    p.add_argument("--check", default="recurrence")
    _add_common(p)
    p.set_defaults(fn=_cmd_subhankel)

    p = sub.add_parser("casebook", help="run the case-study registry")
    p.add_argument("action", choices=["run", "list"])
    p.add_argument("--id", default=None)
    p.add_argument("--long", action="store_true")
    p.add_argument("--jobs", type=int, default=1,
                   help="run scenarios in parallel processes")
    _add_common(p)
    p.set_defaults(fn=_cmd_casebook)

    p = sub.add_parser("cache", help="inspect or clear the GB disk cache")
    p.add_argument("action", choices=["info", "clear"])
    _add_common(p)
    p.set_defaults(fn=_cmd_cache)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ComputationTimeout:
        # an ideal payload names its op, the timeout one too
        _emit(args, {"op": args.op, "status": "timeout"} if args.command == "ideal"
              else {"status": "timeout"})
        return EXIT_TIMEOUT
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Case-study registry and command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from detlab.casebook import list_scenarios, registry, run_scenario
from detlab.config import Config
from detlab.cli import main as cli_main


ROOT = Path(__file__).resolve().parent.parent


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "detlab.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_default_config(args, overrides=None):
    """The CLI from the repository root with no DETLAB_* overrides, the
    setting of the recorded reference outputs, or with `overrides` alone."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DETLAB_")}
    env.update(overrides or {})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "detlab.cli", *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)


# ---------------------------------------------------------------------------
# registry

def test_registry_contents():
    listing = list_scenarios()
    ids = {s["id"] for s in listing}
    required = {"hankel-3", "hankel-4", "cat-3-2", "cat-4-3", "cat-4-2",
                "generic-3", "symmetric-3", "subhankel-3", "subhankel-4",
                "subhankel-5", "subhankel-6", "dg-3", "sc-3"}
    assert required <= ids
    assert len(listing) >= 11
    for s in listing:
        for f in s["facts"]:
            assert f["anchor"].startswith(s["id"])
            assert f["tag"] in ("recorded", "trivial", "derived")


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        run_scenario("nope")


def test_run_scenario_report_shape():
    rep = run_scenario("sc-3")
    d = rep.to_dict()
    assert d["schema"] == 1
    assert d["scenario"] == "sc-3"
    assert "config" in d and d["config"]["seed"] is not None
    for f in d["facts"]:
        assert set(f) == {"anchor", "tag", "expected", "computed", "match",
                          "certainty", "millis"}
        assert f["match"] in ("yes", "no", "timeout")
    assert rep.verdict == "pass"


def test_report_json_deterministic_without_timings():
    cfg = Config(seed=11)
    a = run_scenario("sc-3", config=cfg).to_json(no_timings=True)
    b = run_scenario("sc-3", config=cfg).to_json(no_timings=True)
    assert a == b


def test_long_facts_skipped_by_default():
    rep = run_scenario("hankel-4")
    assert "reduction-0" in rep.skipped_long
    assert rep.verdict == "pass"


# ---------------------------------------------------------------------------
# CLI surface

def test_cli_matrix_det_prints_cubic():
    code, out, _ = run_cli(["matrix", "--kind", "hankel", "--m", "3", "--det"])
    assert code == 0
    assert "-x2^3 + 2*x1*x2*x3 - x0*x3^2 - x1^2*x4 + x0*x2*x4" in out


def test_cli_matrix_json():
    code, out, _ = run_cli(["matrix", "--kind", "catalecticant", "--m", "3",
                            "--r", "2", "--print", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["entries"][2] == ["x4", "x5", "x6"]


def test_cli_determinants_time_out_cleanly(monkeypatch, capsys):
    # a 4x4 generic, Hankel or sub-Hankel determinant takes 15 expansion
    # steps; `hankel` and `subhankel` expand theirs under the command's budget
    monkeypatch.setenv("DETLAB_GB_STEP_CAP", "5")
    for argv in (["matrix", "--kind", "generic", "--m", "4", "--det"],
                 ["matrix", "--kind", "generic", "--m", "4", "--minors", "4"],
                 ["polar", "--kind", "generic", "--m", "4", "--verdict"],
                 ["hankel", "--m", "4", "--check", "golberg"],
                 ["subhankel", "--n", "4", "--check", "recurrence"]):
        assert cli_main([*argv, "--json"]) == 3
        assert json.loads(capsys.readouterr().out) == {"schema": 1, "status": "timeout"}


def test_cli_ideal_timeout_names_its_op(tmp_path, monkeypatch, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("x0^2 - x1*x2\nx1^2 - x0*x2\nx2^2 - x0*x1\n")
    monkeypatch.setenv("DETLAB_GB_STEP_CAP", "1")
    assert cli_main(["ideal", "--op", "gb", "--gens", str(gens)]) == 3
    assert capsys.readouterr().out == "op: gb\nstatus: timeout\n"


@pytest.mark.parametrize("argv", [
    ["syz", "--forms", "forms.txt", "--full", "--betti"],
    ["syz", "--forms", "forms.txt", "--linear", "--full"],
    ["polar", "--kind", "sc3", "--verdict", "--linear-rank"],
    ["polar", "--kind", "sc3", "--hessian-mult", "--invert", "inverse.txt"],
])
def test_cli_conflicting_modes_are_a_usage_error(argv, capsys):
    # two modes of one command are refused before any work, not silently
    # narrowed to one of them
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


# recorded verdict reports; they carry the Hessian point and prime and the
# rank-witness minor, so they lock the seeded identity tests
_POLAR_VERDICT_LOCK = {
    "sc3": ["--kind", "sc3"],
    "hankel-3": ["--kind", "hankel", "--m", "3"],
    "catalecticant-3-2": ["--kind", "catalecticant", "--m", "3", "--r", "2"],
}


def test_cli_polar_verdict():
    code, out, _ = run_cli(["polar", "--kind", "sc3", "--verdict", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "Homaloidal"
    assert "seed" in data and "evidence" in data
    for name, matrix in _POLAR_VERDICT_LOCK.items():
        proc = run_cli_default_config(["polar", *matrix, "--verdict", "--json",
                                       "--no-timings"])
        assert proc.returncode == 0, proc.stderr
        reference = ROOT / "tests" / "reference" / f"polar-verdict-{name}.json"
        assert proc.stdout == reference.read_text(encoding="utf-8"), name


def test_cli_hankel_reduction():
    code, out, _ = run_cli(["hankel", "--m", "3", "--check", "reduction", "--i", "1"])
    assert code == 0
    assert "Equal" in out


# `hankel --json` calls recorded with their exit code and stderr; the
# stdout is stored parsed and compared in the CLI's own layout
_HANKEL_LOCK = ["star-m3", "star-m4", "golberg-m4", "plucker-m4", "radical-m3",
                "radical-m4", "reduction-m3-i0", "reduction-m3-i1"]


def _assert_matches_the_recorded_call(reference_name):
    """Rerun a recorded call: same exit code and stderr, and the same stdout,
    stored parsed (None for none) and printed in the CLI's own layout."""
    reference = ROOT / "tests" / "reference" / f"{reference_name}.json"
    ref = json.loads(reference.read_text(encoding="utf-8"))
    proc = run_cli_default_config(ref["argv"])
    assert (proc.returncode, proc.stderr) == (ref["exit"], ref["stderr"])
    want = ref["stdout"]
    assert proc.stdout == ("" if want is None else json.dumps(want, sort_keys=True, indent=2) + "\n")


@pytest.mark.parametrize("name", _HANKEL_LOCK)
def test_cli_hankel_matches_the_recorded_output(name):
    _assert_matches_the_recorded_call(f"hankel-{name}")


# `polar --json` calls recorded in the same layout: the Hessian
# multiplicity, the linear rank and the inversion test on the Hankel and
# two-leap forms (each candidate inverse is the form's own partials), the
# generic form's own inverse, a candidate of the wrong length, a zero
# partial, and a call that chooses no mode
_POLAR_LOCK = [f"{mode}-{form}" for mode in ("hessian-mult", "linear-rank", "invert")
               for form in ("hankel-3", "hankel-4", "catalecticant-3-2")] + \
    ["invert-generic-3", "invert-hankel-3-short", "linear-rank-sc3",
     "linear-rank-generic-3-zero-corner", "no-mode-hankel-3"]


@pytest.mark.parametrize("name", _POLAR_LOCK)
def test_cli_polar_matches_the_recorded_output(name):
    _assert_matches_the_recorded_call(f"polar-{name}")


# `ideal --json` calls on the pairs in tests/reference/ideal-inputs, one
# ideal inside the other and neither inside the other, recorded in the same
# layout; the engine may skip work on a nested pair, the output stays
_IDEAL_LOCK = [f"{op}-{pair}" for op in ("intersect", "colon", "sat")
               for pair in ("nested", "nested-swapped", "apart")] + \
    ["eliminate-nested", "eliminate-apart"]


@pytest.mark.parametrize("name", _IDEAL_LOCK)
def test_cli_ideal_matches_the_recorded_output(name):
    _assert_matches_the_recorded_call(f"ideal-{name}")


def test_cli_hankel_star_refuses_order_zero(capsys):
    assert cli_main(["hankel", "--check", "star", "--m", "0", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: hankel needs m >= 2\n"


def test_cli_hankel_refuses_an_order_before_building(monkeypatch, capsys):
    from detlab import hankelplucker, structmat
    from detlab.hankelplucker import MAX_ORDER

    def no_build(m, r):
        raise AssertionError("built a matrix")
    monkeypatch.setattr(structmat, "_catalecticant", no_build)
    monkeypatch.setattr(hankelplucker, "build_gp_associated", no_build)  # the brackets' matrix
    assert set(MAX_ORDER) == {"golberg", "plucker", "radical", "reduction"}
    for check, cap in MAX_ORDER.items():
        assert cli_main(["hankel", "--check", check, "--m", str(cap + 1)]) == 2
        assert capsys.readouterr().err.endswith(f" capped at m = {cap}\n")
    assert cli_main(["hankel", "--check", "reduction", "--m", "1"]) == 2
    assert capsys.readouterr().err == "error: filtration index out of range\n"


def test_cli_subhankel_all_emits_fact_report():
    code, out, _ = run_cli(["subhankel", "--n", "3", "--all", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1 and data["scenario"] == "subhankel-3"
    assert data["verdict"] == "pass"
    ids = {f["anchor"] for f in data["facts"]}
    assert "subhankel-3/recurrence" in ids and "subhankel-3/linear-type" in ids


@pytest.mark.parametrize("fmt", [[], ["--json", "--no-timings"]])
def test_cli_subhankel_all_is_the_casebook_report(fmt):
    # `subhankel --all` at n >= 3 writes the subhankel-n report through the
    # casebook's one writer, in text and in JSON
    sub = run_cli_default_config(["subhankel", "--n", "3", "--all", *fmt])
    book = run_cli_default_config(["casebook", "run", "--id", "subhankel-3", *fmt])
    assert sub.returncode == book.returncode == 0, sub.stderr
    assert sub.stdout == book.stdout
    if not fmt:
        assert "  [    yes] recurrence (recorded, proved)\n" in sub.stdout


def test_cli_subhankel_all_json_out_is_the_casebook_report(tmp_path):
    # the same file, and the same summary on stdout
    sub, book = tmp_path / "sub.json", tmp_path / "book.json"
    procs = [run_cli_default_config([*argv, "--json-out", str(out), "--no-timings"])
             for argv, out in ((["subhankel", "--n", "3", "--all"], sub),
                               (["casebook", "run", "--id", "subhankel-3"], book))]
    assert [p.returncode for p in procs] == [0, 0]
    assert procs[0].stdout == procs[1].stdout
    assert procs[0].stdout.startswith("subhankel-3: pass\n")
    assert sub.read_bytes() == book.read_bytes()


def test_cli_subhankel_unknown_check_is_refused_before_any_work():
    # one expansion step would time out the determinant: the name is
    # checked first, by the parser
    proc = run_cli_default_config(["subhankel", "--n", "4", "--check", "bogus"],
                                  {"DETLAB_GB_STEP_CAP": "1"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "invalid choice: 'bogus'" in proc.stderr


def test_cli_subhankel_single_check():
    code, out, _ = run_cli(["subhankel", "--n", "4", "--check", "recurrence",
                            "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["recurrence"]["pass"]


def test_cli_casebook_run_exit_zero(tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(["casebook", "run", "--id", "subhankel-4",
                            "--json-out", str(out_file), "--no-timings"])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["scenario"] == "subhankel-4"
    assert data["verdict"] == "pass"
    for f in data["facts"]:
        assert f["millis"] == 0


def test_cli_casebook_list():
    code, out, _ = run_cli(["casebook", "list", "--json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["scenarios"]) >= 11


def test_cli_ideal_roundtrip(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("x0*x2 - x1^2\nx1*x3 - x2^2\nx0*x3 - x1*x2\n")
    code, out, _ = run_cli(["ideal", "--op", "hilbert", "--gens", str(gens),
                            "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 2
    assert data["multiplicity"] == 3


def test_cli_syz_linear(tmp_path):
    forms = tmp_path / "forms.txt"
    forms.write_text("x0\nx1\n")
    code, out, _ = run_cli(["syz", "--linear", "--forms", str(forms), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 1


def test_cli_syz_linear_with_a_zero_form(tmp_path):
    forms = tmp_path / "forms.txt"
    forms.write_text("x0\n0\nx1\n")
    code, out, err = run_cli(["syz", "--linear", "--forms", str(forms), "--json"])
    assert code == 0, err
    data = json.loads(out)
    assert (data["columns"], data["rank"], data["certainty"]) == (3, 2, "proved")


def test_cli_syz_linear_rational_forms(tmp_path):
    half = tmp_path / "half.txt"
    half.write_text("x0^2 + 1/2*x1^2\nx0*x1\nx1^2\n")
    whole = tmp_path / "whole.txt"
    whole.write_text("2*x0^2 + x1^2\nx0*x1\nx1^2\n")
    code, out, err = run_cli(["syz", "--forms", str(half), "--json"])
    assert code == 0, err
    code2, out2, _ = run_cli(["syz", "--forms", str(whole), "--json"])
    assert code2 == 0
    got, want = json.loads(out), json.loads(out2)
    assert (got["columns"], got["rank"]) == (want["columns"], want["rank"]) == (2, 2)


def test_cli_usage_error_exit_two():
    code, _, _ = run_cli(["ideal", "--op", "gb", "--gens", "/nonexistent-file"])
    assert code == 2
    code2, _, err = run_cli(["bogus-command"])
    assert code2 == 2
    for args in (["polar", "--verdict"], ["matrix", "--det"]):
        code, out, err = run_cli(args)
        assert (code, out, err) == (2, "", "error: need --kind or --spec\n")
    for order in (["--m", "3"], ["--r", "1"]):
        code, out, err = run_cli(["matrix", "--kind", "gp-associated", *order])
        assert (code, out) == (2, "")
        assert err == "error: gp-associated needs m >= 2 and 1 <= r <= m-1\n"


@pytest.mark.parametrize("args,message", [
    (["--kind", "hankel"], "hankel needs m >= 2"),
    (["--kind", "generic", "--m", "1"], "generic needs m >= 2"),
    (["--kind", "catalecticant", "--m", "3", "--r", "4"],
     "catalecticant needs m >= 2 and 1 <= r <= m"),
], ids=["hankel", "generic", "catalecticant"])
def test_cli_matrix_error_names_the_kind_asked_for(capsys, args, message):
    assert cli_main(["matrix", *args]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


_GENS = "x0^2\nx0*x1\n"


@pytest.mark.parametrize("args,message,text", [
    (["--op", "member"], "--f", _GENS), (["--op", "radmember"], "--f", _GENS),
    (["--op", "colon"], "--other", _GENS), (["--op", "sat"], "--other", _GENS),
    (["--op", "intersect"], "--other", _GENS), (["--op", "eliminate"], "--keep", _GENS),
    (["--op", "eliminate", "--keep", "9"], "out of range", _GENS),
    (["--op", "eliminate", "--keep=-1"], "out of range", _GENS),
    (["--op", "gb"], "no forms in", "# nothing but a comment\n"),
], ids=["member", "radmember", "colon", "sat", "intersect", "eliminate",
        "keep-past-the-last", "keep-negative", "no-forms"])
def test_cli_ideal_usage_errors_exit_two(tmp_path, capsys, args, message, text):
    gens = tmp_path / "g.txt"
    gens.write_text(text)
    assert cli_main(["ideal", *args, "--gens", str(gens)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("op", ["colon", "sat"])
def test_cli_colon_by_the_zero_ideal_is_a_usage_error(tmp_path, capsys, op):
    gens, zero = tmp_path / "g.txt", tmp_path / "z.txt"
    gens.write_text("x0*x1\nx1^2\n")
    zero.write_text("0\n")
    assert cli_main(["ideal", "--op", op, "--gens", str(gens), "--other", str(zero)]) == 2
    assert capsys.readouterr() == ("", "error: colon by the zero ideal\n")


def test_cli_cache_roundtrip(tmp_path):
    code, out, _ = run_cli(["cache", "info", "--cache-dir", str(tmp_path), "--json"])
    assert code == 0
    gens = tmp_path / "g.txt"
    gens.write_text("x0^2\nx0*x1\n")
    code, _, _ = run_cli(["ideal", "--op", "gb", "--gens", str(gens),
                          "--cache-dir", str(tmp_path / "c")])
    assert code == 0
    code, out, _ = run_cli(["cache", "info", "--cache-dir", str(tmp_path / "c"),
                            "--json"])
    assert json.loads(out)["entries"] >= 1
    code, _, _ = run_cli(["cache", "clear", "--cache-dir", str(tmp_path / "c")])
    assert code == 0


def test_cli_in_process_entrypoint():
    assert cli_main(["matrix", "--kind", "hankel", "--m", "2", "--det"]) == 0


def test_cli_reports_byte_identical_with_fixed_config(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["casebook", "run", "--id", "sc-3", "--seed", "7", "--no-timings"]
    assert run_cli(args + ["--json-out", str(a)])[0] == 0
    assert run_cli(args + ["--json-out", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_casebook_parallel_jobs():
    code, out, err = run_cli(["casebook", "run", "--id", "sc-3", "--jobs", "2"])
    assert code == 0


def test_cli_casebook_jobs_share_one_cache(tmp_path):
    # worker processes write into the cache directory itself, so a later
    # serial run reads every basis back and prints the same bytes
    cache = tmp_path / "cache"
    args = ["casebook", "run", "--cache-dir", str(cache), "--json", "--no-timings"]
    code, parallel, err = run_cli(args + ["--jobs", "2"])
    assert code == 0, err
    files = sorted(cache.iterdir())
    assert files and all(p.suffix == ".gb" for p in files)
    written = [(p.stat().st_ino, p.stat().st_mtime_ns) for p in files]
    code, serial, err = run_cli(args + ["--jobs", "1"])
    assert code == 0, err
    assert serial == parallel
    assert [(p.stat().st_ino, p.stat().st_mtime_ns) for p in sorted(cache.iterdir())] == written
    code, out, _ = run_cli(["cache", "info", "--cache-dir", str(cache), "--json"])
    assert json.loads(out)["entries"] == len(set(_pack_keys(files)))


def _pack_keys(files):
    """The key of every record in the packs, read off the record headers
    `detlab-gb 5 <key> <body length> sha256=<digest>`."""
    keys = []
    for path in files:
        data, pos = path.read_bytes(), 0
        while pos < len(data):
            end = data.index(b"\n", pos)
            head = data[pos:end].split(b" ")
            keys.append(head[2])
            pos = end + 1 + int(head[3])
    return keys


def test_cli_cache_info_counts_the_cached_bases(tmp_path):
    # one scenario in one process writes one pack, one record per basis
    # it computed; the info counts those bases, not the pack files
    cache = tmp_path / "cache"
    code, _, err = run_cli(["casebook", "run", "--id", "dg-3", "--cache-dir", str(cache)])
    assert code == 0, err
    files = sorted(cache.iterdir())
    keys = _pack_keys(files)
    assert len(files) == 1 and len(keys) > 1 and len(set(keys)) == len(keys)
    code, out, _ = run_cli(["cache", "info", "--cache-dir", str(cache), "--json"])
    assert json.loads(out)["entries"] == len(keys)


_TWO_SCENARIOS = """
import sys
from detlab import cli
cli.list_scenarios = lambda: [{"id": "dg-3"}, {"id": "sc-3"}]
sys.exit(cli.main(sys.argv[1:]))
"""


def test_cli_jobs_leave_a_pack_per_worker_and_a_second_run_writes_none(tmp_path):
    # two scenarios on two workers: each worker that computes a basis
    # appends to one pack of its own; the second run reads them all
    cache = tmp_path / "cache"
    args = [sys.executable, "-c", _TWO_SCENARIOS, "casebook", "run", "--jobs", "2",
            "--cache-dir", str(cache), "--json", "--no-timings"]
    first = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    assert first.stdout.count('"scenario": ') == 2
    assert '"scenario": "dg-3"' in first.stdout and '"scenario": "sc-3"' in first.stdout
    packs = sorted(cache.iterdir())
    assert 1 <= len(packs) <= 2 and all(p.suffix == ".gb" for p in packs)
    written = [(p.name, p.stat().st_size, p.stat().st_mtime_ns) for p in packs]
    second = subprocess.run(args, capture_output=True, text=True)
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
    assert [(p.name, p.stat().st_size, p.stat().st_mtime_ns)
            for p in sorted(cache.iterdir())] == written


def test_cli_two_ideal_ops_share_ring(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("x0*x1\n")
    b.write_text("x0\n")
    code, out, _ = run_cli(["ideal", "--op", "colon", "--gens", str(a),
                            "--other", str(b), "--json"])
    assert code == 0
    assert json.loads(out)["basis"] == ["x1"]
    code, out, _ = run_cli(["ideal", "--op", "sat", "--gens", str(a),
                            "--other", str(b), "--json"])
    assert code == 0
    assert json.loads(out)["basis"] == ["x1"]


def test_cli_linear_rank_with_zero_partial(tmp_path):
    spec = tmp_path / "m.spec"
    spec.write_text("kind = catalecticant\nm = 3\nr = 2\noverride = 2,2:0\n")
    code, out, _ = run_cli(["polar", "--matrix", str(spec), "--linear-rank",
                            "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 5 and data["zero_partials"] == [6]


def test_scenario_reports_incomplete_under_tiny_budget():
    # strict facts time out; report-only conjecture facts do not fail the run
    from detlab.groebner import _MEMORY_CACHE
    _MEMORY_CACHE.clear()  # force the uncached computation paths
    cfg = Config(seed=5, gb_step_cap=200)
    rep = run_scenario("hankel-4", config=cfg, long=True)
    assert rep.verdict == "incomplete"
    by_id = {r.fact_id: r for r in rep.records}
    assert by_id["reduction-0"].match == "timeout"
    assert by_id["reduction-0"].certainty == "timeout"
    # no contradiction was manufactured by the budget
    assert all(r.match != "no" for r in rep.records)


def test_timeout_names_the_sub_computation():
    # a timed-out fact records which budgeted computation ran out, the same
    # one on every run
    from detlab.groebner import _MEMORY_CACHE
    for _ in range(2):
        _MEMORY_CACHE.clear()
        rep = run_scenario("hankel-4", config=Config(seed=5, gb_step_cap=200))
        timed_out = {r.fact_id: r.computed for r in rep.records if r.match == "timeout"}
        assert timed_out == {"mult-J": "polynomial reduction: budget exceeded",
                             "radical": "polynomial reduction: budget exceeded"}


def test_casebook_builds_one_budget_per_fact(monkeypatch):
    # one meter per fact, plus the two bounded attempts that run: hankel-3's
    # in-verdict linear-type attempt and dg-3's symbolic Hessian route
    from detlab.config import Budget
    built = []
    init = Budget.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Budget, "__init__", counting_init)
    facts = sum(len(run_scenario(s["id"]).records) for s in list_scenarios())
    assert (facts, len(built)) == (86, 88)


def test_step_cap_bounds_the_whole_fact(monkeypatch):
    # every tick of a fact counts against its one cap: no fact passes the
    # cap by more than the tick that ran out
    from detlab.config import Budget
    from detlab.groebner import _MEMORY_CACHE
    _MEMORY_CACHE.clear()
    cap = 3_000  # cat-3-2 linear-type takes 4 188 steps, its syzygy generators included
    ticks: dict[str, list[int]] = {}
    running = []
    tick = Budget.tick

    def logging_tick(self, n=1, what="computation"):
        ticks.setdefault(running[-1], []).append(n)
        return tick(self, n, what)

    def running_fact(fact):
        check = fact.check

        def run(ctx):
            running.append(fact.fact_id)
            return check(ctx)
        return run
    for fact in registry()["cat-3-2"].facts:
        monkeypatch.setattr(fact, "check", running_fact(fact))
    monkeypatch.setattr(Budget, "tick", logging_tick)
    rep = run_scenario("cat-3-2", config=Config(gb_step_cap=cap))
    assert {r.fact_id: r.match for r in rep.records}["linear-type"] == "timeout"
    assert "linear-type" in ticks
    for fid, ns in ticks.items():
        assert sum(ns) - ns[-1] <= cap, fid


def test_cat42_verdict_reuses_the_bidegree12_equations(monkeypatch):
    # the bidegree-12 fact and the verdict read one polar record, which
    # derives the blowup equations once
    from detlab import polar, syzygy
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(polar, "rees_minimal_bidegree12",
                        counting(polar.rees_minimal_bidegree12))
    monkeypatch.setattr(syzygy, "rees_minimal_bidegree12",
                        counting(syzygy.rees_minimal_bidegree12))
    rep = run_scenario("cat-4-2", config=Config(seed=5))
    assert rep.verdict == "pass"
    assert calls == ["rees_minimal_bidegree12"]


@pytest.mark.parametrize("sid,columns", [("cat-4-2", 100), ("cat-4-3", 169)])
def test_degree_one_syzygy_kernel_runs_once(monkeypatch, sid, columns):
    # linear-rank, bidegree-12, jacobian-dual and verdict share one (1,1) kernel
    from detlab import syzygy
    sizes = []
    original = syzygy.packed_relations

    def counting(columns, dens, shifts, budget=None, skip=frozenset()):
        sizes.append(len(columns) * len(shifts))
        return original(columns, dens, shifts, budget, skip)
    monkeypatch.setattr(syzygy, "packed_relations", counting)
    assert run_scenario(sid, config=Config(seed=5)).verdict == "pass"
    assert sizes.count(columns) == 1


def test_dg3_hessian_status_computed_once(monkeypatch):
    from detlab import polar
    calls = []
    original = polar.hessian_det_status

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(polar, "hessian_det_status", counting)
    assert run_scenario("dg-3", config=Config(seed=5)).verdict == "pass"
    assert len(calls) == 1


@pytest.mark.parametrize("sid", sorted(s["id"] for s in list_scenarios()))
def test_scenario_builds_one_hessian(monkeypatch, sid):
    # every Hessian analytic reads the matrix of the scenario's polar record
    from detlab.structmat import PolyMatrix
    builds = []
    init = PolyMatrix.__init__

    def counting_init(self, rows, cols, entries, provenance="custom"):
        if provenance == "hessian":
            builds.append(rows)
        init(self, rows, cols, entries, provenance)
    monkeypatch.setattr(PolyMatrix, "__init__", counting_init)
    assert run_scenario(sid, config=Config(seed=5)).verdict == "pass"
    assert len(builds) == 1


def test_cat43_jacobian_dual_rank_computed_once(monkeypatch):
    # the jacobian-dual fact and the verdict read the record's rank
    from detlab import polar
    calls = []
    original = polar.jacobian_dual_rank

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(polar, "jacobian_dual_rank", counting)
    assert run_scenario("cat-4-3", config=Config(seed=5)).verdict == "pass"
    assert len(calls) == 1


@pytest.mark.parametrize("sid", ["hankel-3", "hankel-4", "subhankel-3", "subhankel-4",
                                 "subhankel-5"])
def test_gradient_ideal_built_once(monkeypatch, sid):
    # the casebook, the Hankel and sub-Hankel checks and the verdict read
    # the gradient ideal the record holds
    from detlab.groebner import Ideal
    generators = []
    init = Ideal.__init__

    def counting_init(self, ring, gens):
        gens = list(gens)
        generators.append(gens)
        init(self, ring, gens)
    monkeypatch.setattr(Ideal, "__init__", counting_init)
    assert run_scenario(sid, config=Config(seed=5)).verdict == "pass"
    seen = list(generators)
    monkeypatch.undo()
    partials = registry()[sid].build(Config(seed=5))["form"].partials
    assert seen.count(partials) == 1


@pytest.mark.parametrize("sid", ["hankel-3", "subhankel-3", "subhankel-4", "cat-3-2"])
def test_syzygy_module_and_linear_type_computed_once(monkeypatch, sid):
    # fitting-F1, linear-type, the resolution and the verdict read the
    # partials' syzygy generators, one module basis, and the linear-type
    # answer off one record; only the readers of the minimal generators
    # (fitting-F1 and the sub-Hankel checks, not linear type) minimalise,
    # and cat-3-2 has none
    minimalised = 0 if sid == "cat-3-2" else 1
    from detlab import polar, syzygy
    generated, minimal, checks = [], [], []
    syzygy_generators = syzygy.syzygy_generators
    minimal_generators, linear_type_check = syzygy.minimal_generators, polar.linear_type_check

    def counting_generators(columns, shifts, *args, **kwargs):
        out = syzygy_generators(columns, shifts, *args, **kwargs)
        generated.append((columns, shifts, out))
        return out

    def counting_minimal(syz, *args, **kwargs):
        minimal.append(syz)
        return minimal_generators(syz, *args, **kwargs)

    def counting_check(*args, **kwargs):
        checks.append(1)
        return linear_type_check(*args, **kwargs)
    for module in (polar, syzygy):
        monkeypatch.setattr(module, "syzygy_generators", counting_generators)
        monkeypatch.setattr(module, "minimal_generators", counting_minimal)
    monkeypatch.setattr(polar, "linear_type_check", counting_check)
    rep = run_scenario(sid, config=Config(seed=5))
    assert rep.verdict == "pass"
    partials = registry()[sid].build(Config(seed=5))["form"].partials
    ours = [out for columns, shifts, out in generated
            if (columns, shifts) == ([[p] for p in partials], [0])]
    assert len(ours) == 1
    assert sum(syz is ours[0] for syz in minimal) == minimalised
    assert len(checks) == 1


def test_cat32_expands_its_brackets_once(monkeypatch):
    # P's generators, `minor-exclusion` and `bracket-partials` read the
    # brackets of the associated 2x5 matrix from one ladder
    from detlab.structmat import MinorLadder
    ladders = []
    init = MinorLadder.__init__

    def counting_init(self, M, budget=None):
        if M.provenance == "gp-associated(3,2)":
            ladders.append(self)
        init(self, M, budget)
    monkeypatch.setattr(MinorLadder, "__init__", counting_init)
    assert run_scenario("cat-3-2", config=Config(seed=5)).verdict == "pass"
    # the ten 2-minors and the five 1x1 minors on the second row
    assert len(ladders) == 1 and len(ladders[0]._memo) == 15


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_subhankel_scenario_expands_its_determinant_once(monkeypatch, n):
    # every sub-Hankel fact reads the scenario's polar record; none rebuilds
    # the matrix and expands its determinant again
    from detlab.structmat import MinorLadder
    expansions = []
    minor = MinorLadder.minor

    def counting_minor(self, rows, cols):
        rows, cols = tuple(rows), tuple(cols)
        if self.matrix.provenance == f"sub-hankel({n})" and len(rows) == n:
            expansions.append(rows)
        return minor(self, rows, cols)
    monkeypatch.setattr(MinorLadder, "minor", counting_minor)
    assert run_scenario(f"subhankel-{n}", config=Config(seed=5)).verdict == "pass"
    assert len(expansions) == 1


@pytest.mark.parametrize("run", ["hankel-3", "hankel-4", "hankel --check star --m 4"])
def test_hankel_record_is_built_and_expanded_once(monkeypatch, run):
    # every Hankel check reads the one record of its scenario or CLI call:
    # one Hankel matrix (the catalecticant with r = 1), one full-size expansion
    from detlab import structmat
    builds, expansions = [], []
    catalecticant, minor = structmat._catalecticant, structmat.MinorLadder.minor

    def counting_build(m, r):
        if r == 1:
            builds.append(m)
        return catalecticant(m, r)

    def counting_minor(self, rows, cols):
        rows = tuple(rows)
        if self.matrix.provenance.startswith("hankel(") and len(rows) == self.matrix.rows:
            expansions.append(rows)
        return minor(self, rows, cols)
    monkeypatch.setattr(structmat, "_catalecticant", counting_build)
    monkeypatch.setattr(structmat.MinorLadder, "minor", counting_minor)
    if run.startswith("hankel "):
        assert cli_main([*run.split(), "--json"]) == 0
    else:
        assert run_scenario(run, config=Config(seed=5)).verdict == "pass"
    assert (len(builds), len(expansions)) == (1, 1)


def test_cat43_budget_timeout_is_no_contradiction():
    # the bidegree-12 equations time out under the cap; the facts that need
    # them report a timeout instead of judging a partial set of equations
    from detlab.groebner import _MEMORY_CACHE
    _MEMORY_CACHE.clear()
    rep = run_scenario("cat-4-3", config=Config(gb_step_cap=200))
    assert rep.verdict == "incomplete"
    by_id = {r.fact_id: r for r in rep.records}
    for fid in ("jacobian-dual", "verdict"):
        assert by_id[fid].match == "timeout" and by_id[fid].certainty == "timeout"
    assert all(r.match != "no" for r in rep.records)


def test_casebook_run_matches_the_reference_output():
    # the behaviour lock: default facts, default config, no timings
    proc = run_cli_default_config(["casebook", "run", "--json", "--no-timings"])
    assert proc.returncode == 0, proc.stderr
    reference = ROOT / "bench" / "reference" / "casebook-no-timings.json"
    assert proc.stdout == reference.read_text(encoding="utf-8")


# Budget ticks by label of a default run that reads every basis from a
# cache directory a first run filled: the membership tests, Hilbert series
# and the work that is not a Groebner basis
WARM_RUN_TICKS = {
    "polynomial reduction": 248, "Hilbert series": 311, "linear algebra": 1917,
    "module reduction": 7, "bigraded kernel assembly": 1938,
    "determinant expansion": 672, "Fitting minors": 53,
}

# Budget ticks by label of a default run: every scenario's default facts,
# in one fresh process with no cache directory
DEFAULT_RUN_TICKS = {
    "Buchberger": 1372, "polynomial reduction": 4866, "colon labels": 2772,
    "Hilbert series": 311, "linear algebra": 1917, "module Buchberger": 332,
    "module reduction": 979, "bigraded kernel assembly": 1938,
    "determinant expansion": 672, "Fitting minors": 53,
}

# monic basis elements (`_Entry.monic` calls) the warm run builds: only
# for the bases that facts read as polynomials; equality and membership
# tests read the packed entries
WARM_RUN_MONIC = 66

# every scenario's default facts, with the cache directory argv[1] if given;
# the ticks by label and the number of monic basis elements built
_COUNT_TICKS = """
import json
import sys
from detlab import config, groebner
from detlab.casebook import registry, run_scenario
totals = {}
tick = config.Budget.tick

def counting(self, n=1, what="computation"):
    totals[what] = totals.get(what, 0) + n
    tick(self, n, what)
config.Budget.tick = counting
built = [0]
monic = groebner._Entry.monic

def counting_monic(self, ring):
    built[0] += 1
    return monic(self, ring)
groebner._Entry.monic = counting_monic
cfg = config.Config(cache_dir=sys.argv[1] if len(sys.argv) > 1 else None)
verdicts = {run_scenario(sid, config=cfg).verdict for sid in sorted(registry())}
print(json.dumps({"verdicts": sorted(verdicts), "ticks": totals, "monic": built[0]}))
"""


def _count_ticks(*args, hashseed="0"):
    """The verdicts, ticks by label and monic elements built of
    `_COUNT_TICKS` in a fresh process."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DETLAB_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run([sys.executable, "-c", _COUNT_TICKS, *args], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_default_run_work_counts_are_pinned(hashseed):
    # work counts are the machine-independent regression signal: a change
    # that moves any label's total must say so and re-pin it here
    out = _count_ticks(hashseed=hashseed)
    assert out["verdicts"] == ["pass"]
    assert out["ticks"] == DEFAULT_RUN_TICKS


def test_warm_run_work_counts_are_pinned(tmp_path):
    # one process fills a cache directory with every default fact's bases;
    # a second reads them all: it computes no basis (no pair, no colon
    # label), appends nothing, and what it still ticks is pinned here
    cache = str(tmp_path / "cache")
    assert _count_ticks(cache)["ticks"] == DEFAULT_RUN_TICKS
    packs = sorted(Path(cache).iterdir())
    assert len(packs) == 1 and packs[0].suffix == ".gb"
    written = [(p.name, p.stat().st_size, p.stat().st_mtime_ns) for p in packs]
    out = _count_ticks(cache)
    assert out["verdicts"] == ["pass"]
    for label in ("Buchberger", "module Buchberger", "colon labels"):
        assert out["ticks"].get(label, 0) == 0
    assert out["ticks"] == WARM_RUN_TICKS
    assert out["monic"] == WARM_RUN_MONIC
    assert [(p.name, p.stat().st_size, p.stat().st_mtime_ns)
            for p in sorted(Path(cache).iterdir())] == written


def test_dg3_quadric_relation_runs_under_the_budget():
    rep = run_scenario("dg-3", config=Config(seed=5, gb_step_cap=20))
    rec = {r.fact_id: r for r in rep.records}["quadric-relation"]
    assert rec.match == "timeout"
    assert rec.computed == "bigraded kernel assembly: budget exceeded"

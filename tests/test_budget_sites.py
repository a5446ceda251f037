"""One Budget per fact: the places in `src/detlab` that make a Budget.

A casebook fact or a CLI command runs under one Budget, which every
computation below it takes.  So `.budget()` is called only where such a
unit of work starts (`casebook.run_scenario`, the CLI command functions,
and `polar.homaloidal_verdict` when its caller passes none) and where the
engine needs an object to tick when a library caller passes no budget (the
Groebner query fallbacks and `syzygy.module_groebner`).
`Budget(...)` is built only in `config.py` (`Budget.share` gives the
bounded attempts of `polar.py` their meters) and by the Hessian's symbolic
route when its caller passes no budget.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detlab"

BUDGET_CALLS = {
    "casebook.py": {"run_scenario"},
    "groebner.py": {"Ideal._entries", "Ideal._remainder", "_reduce_terms", "colon_poly",
                    "hilbert_data", "certify_groebner"},
    "syzygy.py": {"module_groebner"},
    "polar.py": {"homaloidal_verdict"},
}
BUDGET_BUILDS = {"polar.py": {"hessian_det_status"}}


def _sites(tree) -> list[tuple[str, str]]:
    """(kind, enclosing definition) of each `.budget()` call and each
    `Budget(...)` build; the definition is the top-level function, or
    Class.method, that holds the call."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                fn = child.func
                if isinstance(fn, ast.Attribute) and fn.attr == "budget" and not child.args:
                    out.append(("call", where))
                elif isinstance(fn, ast.Name) and fn.id == "Budget":
                    out.append(("build", where))
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if not where:
                    inner = child.name
                elif isinstance(node, ast.ClassDef):
                    inner = f"{where}.{child.name}"
            visit(child, inner)
    visit(tree, "")
    return out


def test_budgets_are_made_only_where_a_unit_of_work_starts():
    wrong = []
    for path in sorted(SRC.glob("*.py")):
        for kind, where in _sites(ast.parse(path.read_text(encoding="utf-8"))):
            if kind == "call":
                ok = (where in BUDGET_CALLS.get(path.name, ())
                      or (path.name == "cli.py" and where.startswith("_cmd_")))
            else:
                ok = path.name == "config.py" or where in BUDGET_BUILDS.get(path.name, ())
            if not ok:
                wrong.append(f"{path.name}: {where or '<module>'}: "
                             f"{'.budget()' if kind == 'call' else 'Budget(...)'}")
    assert not wrong, "budget made below a unit of work: " + ", ".join(wrong)

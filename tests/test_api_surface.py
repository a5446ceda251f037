"""Guard against unused API: every public function or method defined in
`src/detlab` is referenced somewhere in `src/detlab` outside its own
definition."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detlab"

# public names kept without a caller in the package: the tests' oracle
ALLOWED = {"certify_groebner"}


def _references(node) -> Counter:
    """Names a subtree mentions: variables, attributes and imports."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[(n.asname or n.name).split(".")[0]] += 1
    return out


def test_every_public_function_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    unused = []
    for name, tree in trees.items():
        defs = [(d, None) for d in tree.body]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [(d, cls.name) for d in cls.body]
        for d, owner in defs:
            if (isinstance(d, ast.FunctionDef)
                    and not d.name.startswith("_") and d.name not in ALLOWED
                    and refs[d.name] == _references(d)[d.name]):
                unused.append(f"{name}: {owner + '.' if owner else ''}{d.name}")
    assert not unused, "public API with no caller in src/detlab: " + ", ".join(unused)

"""Guard against unused API: every public function or method defined in
`src/detlab` is referenced somewhere in `src/detlab` outside its own
definition, a method through an attribute."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detlab"

# public names kept without a caller in the package: the tests' oracle
ALLOWED = {"certify_groebner"}


def _references(node) -> tuple[Counter, Counter]:
    """Names a subtree mentions (variables, attributes and imports), and
    its attribute names alone."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
            attrs[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[(n.asname or n.name).split(".")[0]] += 1
    return names, attrs


def test_every_public_function_is_used_in_the_package():
    # a method counts as used only through an attribute (obj.name): a
    # variable or keyword of the same name does not call it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    names, attrs = Counter(), Counter()
    for tree in trees.values():
        n, a = _references(tree)
        names.update(n)
        attrs.update(a)
    unused = []
    for name, tree in trees.items():
        defs = [(d, None) for d in tree.body]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [(d, cls.name) for d in cls.body]
        for d, owner in defs:
            if not isinstance(d, ast.FunctionDef) or d.name.startswith("_") or d.name in ALLOWED:
                continue
            refs, own = (attrs, _references(d)[1]) if owner else (names, _references(d)[0])
            if refs[d.name] == own[d.name]:
                unused.append(f"{name}: {owner + '.' if owner else ''}{d.name}")
    assert not unused, "public API with no caller in src/detlab: " + ", ".join(unused)

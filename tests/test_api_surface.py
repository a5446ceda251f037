"""Guard against unused API: every function, method or class defined in
`src/detlab`, public or private, is referenced somewhere in `src/detlab`
outside its own definition, a method through an attribute.  Dunder
methods are called by the language and are not checked."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detlab"

# public names kept without a caller in the package: the tests' oracle, and
# the rational normal form, which the benchmark's tracer times
# (`groebner.normal_form_s`) and membership no longer goes through
ALLOWED = {"certify_groebner", "normal_form"}


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


def _imports_from(tree, module: str) -> Counter:
    """The names a module imports from `module` (`from .module import x`)."""
    return Counter(alias.name for n in ast.walk(tree)
                   if isinstance(n, ast.ImportFrom) and n.module == module
                   for alias in n.names)


def _unused(private: bool) -> list[str]:
    """The definitions, private or public as asked, that nothing in the
    package references outside their own body: top-level functions,
    methods, and for private names top-level classes too.

    A method counts as used only through an attribute (obj.name): a
    variable or keyword of the same name does not call it.  A private
    top-level name counts as used only in its own module or where another
    module imports it from there, so a leftover that shares its name with
    a live definition elsewhere is still caught."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    names, attrs, local = Counter(), Counter(), {}
    for name, tree in trees.items():
        n, a = _references(tree)
        names.update(n)
        attrs.update(a)
        # a module's own mentions plus the names others import from it
        local[name] = n + sum((_imports_from(other, name[:-3])
                               for key, other in trees.items() if key != name), Counter())
    unused = []
    for name, tree in trees.items():
        defs = [(d, None) for d in tree.body]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [(d, cls.name) for d in cls.body]
        kinds = (ast.FunctionDef, ast.ClassDef) if private else (ast.FunctionDef,)
        for d, owner in defs:
            if (not isinstance(d, kinds) or d.name.startswith("_") != private
                    or d.name.startswith("__") or d.name in ALLOWED
                    or owner and isinstance(d, ast.ClassDef)):
                continue
            if owner:
                refs, own = attrs, _references(d)[1]
            else:
                refs, own = local[name] if private else names, _references(d)[0]
            if refs[d.name] == own[d.name]:
                unused.append(f"{name}: {owner + '.' if owner else ''}{d.name}")
    return unused


def test_every_public_function_is_used_in_the_package():
    unused = _unused(private=False)
    assert not unused, "public API with no caller in src/detlab: " + ", ".join(unused)


def test_every_private_name_is_used_in_the_package():
    # private top-level functions and classes, and private methods
    unused = _unused(private=True)
    assert not unused, "private names with no caller in src/detlab: " + ", ".join(unused)

"""Nothing in the package exists only for its tests.

Every public function, class and method defined in ``src/reflectpde`` must be
named by code outside ``tests/``: elsewhere in the package, in the benchmark
(``perfbench/``) or in ``tools/``.  A name counts where it is read (a name or
an attribute), imported, or given as a string, which is how the benchmark's
tracer names what it patches.  These do not count: the package's re-exports
in ``__init__.py``, a definition naming itself, and a method's alias in its
own class (``__add__ = merge``).  Dunder methods are reached by syntax, so
they are not checked.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reflectpde"

# name -> why it stays without a caller outside tests/
ALLOWED = {
    "calibrate_boundary_constant": "a paper result the README documents: the fitted c_bd",
    "weighted_increment_ratios": "a paper result the README documents: the weighted norm",
}


def _names(*nodes) -> Counter:
    """Identifiers that the code under ``nodes`` reads, imports or spells as strings."""
    found = Counter()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found[node.value] += 1
    return found


def _definitions(tree: ast.Module):
    """(qualified name, name, the nodes that do not count as its callers)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, [node]
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    aliases = [s for s in node.body if isinstance(s, ast.Assign)
                               and isinstance(s.value, ast.Name) and s.value.id == item.name]
                    yield f"{node.name}.{item.name}", item.name, [item, *aliases]


def _unused(sources: dict) -> list:
    """The public names of the package ``sources`` (module stem -> text) without a caller."""
    trees = {stem: ast.parse(text) for stem, text in sources.items() if stem != "__init__"}
    named = Counter()
    for path in [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]:
        named += _names(ast.parse(path.read_text()))
    for tree in trees.values():
        named += _names(tree)
    unused = []
    for stem, tree in trees.items():
        for qualified, name, own in _definitions(tree):
            if named[name] - _names(*own)[name] <= 0 and name not in ALLOWED:
                unused.append(f"{stem}.{qualified}")
    return unused


def _package() -> dict:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _unused(_package())
    assert unused == [], "named only in tests/ or nowhere: " + ", ".join(unused)


def test_every_allowed_name_is_defined():
    defined = {name for text in _package().values()
               for _, name, _ in _definitions(ast.parse(text))}
    assert set(ALLOWED) <= defined


def test_the_guard_finds_a_restored_test_only_method():
    # Estimate.merge, aliased as __add__, was named only by tests
    sources = _package()
    anchor = "    def scaled(self, c: float)"
    assert anchor in sources["reflectsim"]
    sources["reflectsim"] = sources["reflectsim"].replace(
        anchor, "    def merge(self, other):\n        return self\n\n"
        "    __add__ = merge\n\n" + anchor,
    )
    assert _unused(sources) == ["reflectsim.Estimate.merge"]

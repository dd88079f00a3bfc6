"""Static checks over the source tree.

No module under src/ or tests/ imports a name it never uses; a package
`__init__.py` is exempt. Every public function, class and method defined
under src/scenecast is used somewhere in src/, so no public API exists for
the tests alone.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# library entry points no src/ code calls: readers of the formats the CLI
# writes, and the paper's loss totals
ENTRY_POINTS = {
    "dataio.read_fused",
    "dataio.read_blockvis",
    "losses.total_ssc_loss",
    "losses.total_synth_loss",
}


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _references(node) -> Counter:
    """Names read (`name`) and attributes read (`.name`) under an AST node."""
    names = Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
    attrs = Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))
    return names + attrs


def _public_definitions(tree):
    """(qualname, node) of the public top-level functions and classes and their methods."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unreferenced_definitions(sources: dict) -> list:
    """'module.qualname' of each public definition no other code of `sources` refers to.

    `sources` maps module names to their source text. A reference inside
    the definition itself does not count.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in _public_definitions(tree)
        if total[node.name] == _references(node)[node.name]
    )


def test_checker_flags_only_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "d")]


def test_scanner_flags_only_unreferenced_definitions():
    a = (
        "def used():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def _private():\n    pass\n"
        "class Box:\n"
        "    def called(self):\n        return self\n"
        "    def idle(self):\n        return self.idle()\n"
        "    def __len__(self):\n        return 0\n"
    )
    b = "from a import used, Box\nused()\nBox().called()\n"
    assert unreferenced_definitions({"a": a, "b": b}) == ["a.Box.idle", "a.recursive"]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in ("src", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_no_test_only_public_api():
    package = ROOT / "src" / "scenecast"
    sources = {
        path.stem: path.read_text()
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    found = [name for name in unreferenced_definitions(sources) if name not in ENTRY_POINTS]
    assert not found, "public names used by no src/ code:\n" + "\n".join(found)

"""Checks over the source tree and what importing it loads.

No module under src/ or tests/ imports a name it never uses; a package
`__init__.py` is exempt. Every public function, class and method defined
under src/scenecast is used somewhere in src/, and every defaulted parameter
of a public function is passed by some call in src/, so no public API and no
parameter exists for the tests alone. Only the command line imports the
synthesis module `warp`, and every other module, the renderer and feature
extractor `synth` included, loads no scipy; nor does the command line, which
loads it at the first fill. No code under src/ hands a product to BLAS or
LAPACK, whose kernel the host CPU picks, and no exception is allowed.
"""
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# library entry points no src/ code calls: readers of the formats the CLI
# writes, the paper's loss totals, and the one-frame render
ENTRY_POINTS = {
    "dataio.read_fused",
    "dataio.read_blockvis",
    "losses.total_ssc_loss",
    "losses.total_synth_loss",
    "synth.render_frame",
}

# defaulted parameters no src/ call passes, with the reason each stays
UNPASSED_DEFAULTS = {
    "cli.main.argv": "None parses sys.argv; the console script calls main() bare",
    "dataio.read_fused.channels_per_frame": "entry point: the reader's caller knows the "
    "channels per frame, which the file does not store",
    "losses.total_ssc_loss.class_weights": "entry point: None weighs by the inverse class "
    "frequency of the ground truth",
    "losses.total_synth_loss.w": "entry point: None gives the paper's term weights",
}

# numpy functions that may hand a product to BLAS
BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


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


def _defaulted_parameters(node):
    """(name, position) of a function's parameters that have defaults; the
    position counts from the first argument a call passes, and is None for
    keyword-only parameters."""
    a = node.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether a call passes the parameter `name` at `position`."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(x, ast.Starred) for x in call.args)


def unpassed_defaults(sources: dict) -> list:
    """'module.qualname.param' of each defaulted parameter of a public function
    that no call in `sources` passes.

    Calls match by callee name, as `f(...)` or `x.f(...)`. A call inside the
    function itself does not count. A method's position skips `self`.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]

    def callee(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None

    found = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            inside = {id(n) for n in ast.walk(node)}
            mine = [c for c in calls if callee(c) == node.name and id(c) not in inside]
            method = "." in qualname and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            for name, position in _defaulted_parameters(node):
                if position is not None and method:
                    position -= 1
                if not any(_passes(c, name, position) for c in mine):
                    found.append(f"{module}.{qualname}.{name}")
    return sorted(found)


def blas_routes(source: str) -> list:
    """(function, line, route) of each product a module may hand to BLAS or
    LAPACK: the `@` operator, any use or import of `linalg`, and calls or
    imports of the BLAS_CALLS names (`np.dot(...)` and `a.dot(...)` alike).
    `function` is the qualified name of the innermost enclosing function or
    class, "" at module level."""
    found = []

    def route(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            return "@"
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            return "linalg"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return node.func.attr if node.func.attr in BLAS_CALLS else None
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            hits = [n for n in names if set(n.split(".")) & (BLAS_CALLS | {"linalg"})]
            return hits[0] if hits else None
        return None

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            what = route(child)
            if what:
                found.append((where, child.lineno, what))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
            else:
                visit(child, where)

    visit(ast.parse(source), "")
    return found


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


def test_parameter_scanner_flags_only_unpassed_defaults():
    a = (
        "def f(x, by_pos=1, by_kw=2, unset=3, *, kw=4, kw_unset=5, req):\n"
        "    return f(x, 0, 0, 0, kw_unset=0, req=0)\n"
        "def g(x=1, y=2):\n    pass\n"
        "def _private(x=1):\n    pass\n"
        "class Box:\n"
        "    def m(self, x=1, y=2):\n        return self\n"
        "    @staticmethod\n"
        "    def s(x=1):\n        pass\n"
    )
    b = (
        "from a import f, g, Box\n"
        "f(0, 1, by_kw=0, kw=0, req=0)\n"
        "g(*args)\n"
        "Box().m(0)\n"
        "Box.s(0)\n"
    )
    assert unpassed_defaults({"a": a, "b": b}) == [
        "a.Box.m.y", "a.f.kw_unset", "a.f.unset",
    ]


def test_blas_scanner_flags_each_route():
    source = (
        "import numpy as np\n"
        "from numpy import linalg, einsum\n"
        "from numpy.linalg import svd\n"
        "x = a @ b\n"
        "class Box:\n"
        "    def m(self, a):\n"
        "        a @= a\n"
        "        return np.linalg.norm(a) + a.dot(a)\n"
        "def f(a):\n"
        "    def g():\n"
        "        return np.tensordot(a, a) + np.inner(a, a)\n"
        "    return np.stack([a]) * np.sum(a) + a.T\n"
    )
    assert blas_routes(source) == [
        ("", 2, "linalg"), ("", 3, "numpy.linalg"), ("", 4, "@"),
        ("Box.m", 7, "@"), ("Box.m", 8, "linalg"), ("Box.m", 8, "dot"),
        ("f.g", 11, "tensordot"), ("f.g", 11, "inner"),
    ]


def test_no_blas_routes():
    found = [
        f"{module}.py:{line}: {what} in {where or 'module scope'}"
        for module, text in _package_sources().items()
        for where, line, what in blas_routes(text)
    ]
    assert not found, "products that may go to BLAS or LAPACK:\n" + "\n".join(found)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in ("src", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def _package_sources() -> dict:
    """Module name -> source text of every module under src/scenecast."""
    package = ROOT / "src" / "scenecast"
    return {
        path.stem: path.read_text()
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_no_test_only_public_api():
    found = [name for name in unreferenced_definitions(_package_sources()) if name not in ENTRY_POINTS]
    assert not found, "public names used by no src/ code:\n" + "\n".join(found)


def test_no_test_only_parameters():
    found = [name for name in unpassed_defaults(_package_sources()) if name not in UNPASSED_DEFAULTS]
    assert not found, "defaulted parameters no src/ call passes:\n" + "\n".join(found)


def _package_imports(source: str) -> set:
    """Package modules a module imports as `from .x import ...` or `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_only_cli_imports_warp():
    importers = [m for m, text in _package_sources().items() if "warp" in _package_imports(text)]
    assert importers == ["cli"]


CORE_MODULES = ("geom", "forecast", "fusion", "metrics", "losses", "gradcheck", "dataio", "synth")


def _loaded_after(statement: str) -> list:
    """The scenecast.warp and scipy modules a fresh interpreter holds after `statement`."""
    code = (
        f"import sys; {statement}; "
        "print(*(m for m in sys.modules if m == 'scenecast.warp' or m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.split()


def test_core_modules_load_neither_warp_nor_scipy():
    assert _loaded_after(f"import {', '.join('scenecast.' + m for m in CORE_MODULES)}") == []


def test_cli_loads_no_scipy():
    assert _loaded_after("from scenecast import cli; cli.build_parser()") == ["scenecast.warp"]

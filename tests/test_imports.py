"""No module imports a name it never uses; the package defines none it never reads.

Plain ast scans.  Every SVD is taken in phwell/numlin.py, which owns
how a matrix of any shape is read.  No package module imports scipy at
module level, so the checker commands load numpy only; a fresh
interpreter checks that, and that simulate and the resolvent still load
what they need on their first call.  No package module but cli.py
imports phwell.cli, so import phwell leaves the command line unloaded
and python -m phwell.cli runs without runpy's warning.  The one private
scipy name the package uses is scipy.sparse._sparsetools, inside a
function of simulator.py.  An imported
name counts as used when it is read anywhere in the same file, or
listed in that file's __all__ (the package re-exports through
phwell/__init__.py).  A module-level def or class of
the package counts as used when some package module reads it outside its
own definition, when phwell.__all__ exports it, or when perfbench/*.py,
the benchmark, names it.  A class field (an annotated name in a class
body) or property of the package counts as used when some package, test
or perfbench module loads it as an attribute.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import write_config

import phwell
from phwell.corpus import CORPUS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "phwell").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")])
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of every name an import binds that the source never reads."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "from .model import HALF_LINE, validate_system\n"
        "__all__ = ['validate_system']\n"
        "def f():\n"
        "    import re\n"
        "    return np.zeros(1), parse\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dumps"), (5, "HALF_LINE"), (8, "re")]


def dead_definitions(sources: dict, exported, pinned: str) -> list:
    """(module, name) of every module-level def or class that nothing uses.

    sources maps module names to source text.  A definition is used when a
    top-level statement other than itself, in any of the modules, reads
    its name (an ast Name, an attribute or a from-import), when exported
    holds the name, or when the text pinned names it as a word.
    """
    stmts = []
    for module, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            read = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    read.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    read.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    read.update(alias.name for alias in sub.names)
            stmts.append((module, i, node, read))
    dead = []
    for module, i, node, _ in stmts:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if any(name in read for m, j, _, read in stmts if (m, j) != (module, i)):
            continue
        if name not in exported and not re.search(rf"\b{re.escape(name)}\b", pinned):
            dead.append((module, name))
    return sorted(dead)


def test_no_dead_definitions():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    pinned = "".join(p.read_text() for p in BENCH)
    assert dead_definitions(sources, set(phwell.__all__), pinned) == []


def test_the_scan_finds_dead_definitions():
    sources = {
        "a": (
            "import numpy as np\n"
            "def helper(n):\n"
            "    return helper(n - 1) if n else np.zeros(1)\n"
            "def exported():\n"
            "    pass\n"
            "def pinned():\n"
            "    pass\n"
            "def imported():\n"
            "    pass\n"
            "class Used:\n"
            "    def method(self):\n"
            "        pass\n"
            "def lonely():\n"
            "    return Used().method()\n"
        ),
        "b": (
            "from .a import imported\n"
            "def via_attribute():\n"
            "    pass\n"
            "x = mod.via_attribute\n"
        ),
    }
    found = dead_definitions(sources, {"exported"}, "wrap(a, 'pinned')")
    assert found == [("a", "helper"), ("a", "lonely")]


def dead_members(sources: dict, readers) -> list:
    """(module, class, name) of every class field or property that nothing reads.

    sources maps module names to source text.  A field is an annotated
    name in the body of a module-level class, a property a method of one
    decorated @property.  It is used when some source text in readers
    loads its name as an attribute.
    """
    loaded = {node.attr for text in readers for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = []
    for module, source in sources.items():
        for cls in ast.parse(source).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                elif isinstance(item, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in item.decorator_list):
                    name = item.name
                else:
                    continue
                if name not in loaded:
                    dead.append((module, cls.name, name))
    return sorted(dead)


def test_no_dead_members():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    readers = [p.read_text() for p in [*FILES, *BENCH]]
    assert dead_members(sources, readers) == []


def test_the_scan_finds_dead_members():
    source = (
        "class Report:\n"
        "    kept: float\n"
        "    stored: float\n"
        "    unread: int = 0\n"
        "    LIMIT = 3\n"
        "    @property\n"
        "    def norm(self):\n"
        "        return self.kept\n"
        "    @property\n"
        "    def lonely(self):\n"
        "        return 0\n"
        "    def method(self):\n"
        "        self.stored = 1.0\n"
        "        return Report(unread=1)\n"
    )
    reader = "r = Report()\nprint(r.norm, r.method())\n"
    found = dead_members({"a": source}, [source, reader])
    assert found == [("a", "Report", "lonely"), ("a", "Report", "stored"),
                     ("a", "Report", "unread")]


def svd_calls(source: str) -> list:
    """Lines of the source that reach an SVD through a linalg module.

    That is an attribute svd of a name or attribute called linalg
    (np.linalg.svd, scipy.linalg.svd, linalg.svd) or an import of svd from
    a module whose name ends in linalg.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "svd":
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            if any(alias.name == "svd" for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "numlin.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_svd_is_taken_in_numlin(path):
    assert svd_calls(path.read_text()) == []


def test_the_scan_finds_svd_calls():
    source = (
        "import numpy as np\n"
        "from numpy import linalg\n"
        "from scipy.linalg import svd, qr\n"
        "s = np.linalg.svd(M, compute_uv=False)\n"
        "u = linalg.svd(M)[0]\n"
        "f = scipy.linalg.svd\n"
        "q = np.linalg.qr(M)\n"
        "t = model.svd\n"
    )
    assert svd_calls(source) == [3, 4, 5, 6]


def module_level_scipy_imports(source: str) -> list:
    """Lines of the source that import scipy or a scipy module outside every function.

    Such an import runs when the module is imported: at module level, in
    a class body, or under an if or try there.  A function body runs it
    only when the function is called.
    """
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(name.partition(".")[0] == "scipy" for name in names):
                lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return sorted(lines)


def test_no_module_level_scipy_import():
    found = {p.name: lines for p in PACKAGE
             if (lines := module_level_scipy_imports(p.read_text()))}
    assert found == {}


def test_the_scan_finds_module_level_scipy_imports():
    source = (
        "import numpy as np\n"
        "import scipy\n"
        "import os, scipy.sparse as sp\n"
        "from scipy.linalg import get_blas_funcs\n"
        "from .scipy import helper\n"
        "import scipyx\n"
        "try:\n"
        "    from scipy import signal\n"
        "except ImportError:\n"
        "    pass\n"
        "class Spline:\n"
        "    from scipy.special import gamma\n"
        "    def build(self):\n"
        "        from scipy.linalg import get_lapack_funcs\n"
        "def simulate():\n"
        "    from scipy import sparse\n"
        "    import scipy.linalg\n"
    )
    assert module_level_scipy_imports(source) == [2, 3, 4, 8, 12]


def private_scipy_names(source: str) -> list:
    """(line, name, in_function) of every private scipy name the source reaches.

    A private name is a scipy dotted path up to its first _-prefixed part
    (dunders such as __version__ are public).  The source reaches one by
    an import (import scipy.sparse._sputils, from scipy.sparse import
    _sparsetools) or by an attribute chain on a name that an import bound
    to scipy or a scipy module (sp._base after from scipy import sparse
    as sp).  in_function is True when the line sits in a function body.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "scipy":
                    bound[alias.asname or "scipy"] = alias.name if alias.asname else "scipy"
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.partition(".")[0] == "scipy":
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def private(path):
        parts = path.split(".")
        for i, part in enumerate(parts):
            if part.startswith("_") and not part.endswith("__"):
                return ".".join(parts[:i + 1])
        return None

    found = set()

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            paths = []
            if isinstance(child, ast.Import):
                paths = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                paths = [f"{child.module}.{alias.name}" for alias in child.names]
            elif isinstance(child, ast.Attribute):
                attrs, base = [], child
                while isinstance(base, ast.Attribute):
                    attrs.append(base.attr)
                    base = base.value
                if isinstance(base, ast.Name) and base.id in bound:
                    paths = [".".join([bound[base.id], *reversed(attrs)])]
            for path in paths:
                if path.partition(".")[0] == "scipy" and (name := private(path)):
                    found.add((child.lineno, name, in_function))
            visit(child, in_function
                  or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return sorted(found)


def test_the_only_private_scipy_name_is_the_csr_kernel():
    # simulate's step calls scipy.sparse._sparsetools.csr_matvec, the kernel
    # behind CSR @ vector, directly; no other private scipy name is used, and
    # that one is imported on the first simulate call only
    found = {(p.name, name, in_function) for p in PACKAGE
             for _, name, in_function in private_scipy_names(p.read_text())}
    assert found == {("simulator.py", "scipy.sparse._sparsetools", True)}


def test_the_scan_finds_private_scipy_names():
    source = (
        "import numpy as np\n"
        "import scipy\n"
        "import scipy.sparse._sputils\n"
        "from scipy.sparse import _sparsetools, csr_array\n"
        "from scipy._lib import doccer\n"
        "import scipy.linalg as la\n"
        "from scipy import sparse as sp\n"
        "from ._private import helper\n"
        "v = scipy.__version__\n"
        "def f():\n"
        "    from scipy.sparse._sparsetools import csr_matvec\n"
        "    return sp._base, la.blas, np._core, sp.csr_array, scipy.sparse._sputils.isdense\n"
        "class C:\n"
        "    def g(self):\n"
        "        return _sparsetools.csr_matvec\n"
    )
    assert private_scipy_names(source) == [
        (3, "scipy.sparse._sputils", False), (4, "scipy.sparse._sparsetools", False),
        (5, "scipy._lib", False), (11, "scipy.sparse._sparsetools", True),
        (12, "scipy.sparse._base", True), (12, "scipy.sparse._sputils", True),
        (15, "scipy.sparse._sparsetools", True)]


# Run in a fresh interpreter: the test process has scipy.sparse loaded
# (conftest.py imports it), and earlier tests load more.
NUMPY_ONLY_RUN = """
import contextlib, io, json, sys
import numpy as np
import phwell
from phwell import cli, halfline, simulator
from phwell.corpus import CORPUS

HEAVY = ("scipy.linalg", "scipy.sparse", "scipy.interpolate", "scipy.optimize",
         "scipy.special", "scipy.signal")
out = {"after_import": [m for m in HEAVY if m in sys.modules]}
cfg = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    out["codes"] = [cli.main(argv) for argv in (
        ["analyze", cfg, "--json"], ["oracle", cfg],
        ["corpus", "--run", "wave_interval_damped"], ["sweep", "--count", "2"])]
out["after_checker"] = [m for m in HEAVY if m in sys.modules]
trace = simulator.simulate(CORPUS["wave_interval_damped"].system(),
                           simulator.smooth_bump(0.5, 0.25, 2), t_final=0.05, nx=32)
out["energies_finite"] = bool(np.isfinite(trace.energy).all())
t = np.linspace(0.0, 30.0, 601)
_, out["residual"] = halfline.solve_resolvent_halfline(
    halfline.unit_decomposition(1, 1), np.array([[0.5]]), np.vstack([np.exp(-t)] * 2),
    L=30.0)
out["after_evidence"] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(out))
"""


def test_checker_commands_load_numpy_only(tmp_path):
    # import phwell, then analyze, oracle, corpus and sweep: no scipy
    # module that costs import time; simulate and the resolvent then load
    # scipy.sparse and scipy.linalg themselves
    cfg = tmp_path / "wave.json"
    write_config(CORPUS["wave_interval_damped"].system(), cfg)
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN, str(cfg)],
                          capture_output=True, text=True, cwd=ROOT / "src")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["after_import"] == []
    assert out["codes"] == [0, 0, 0, 0]
    assert out["after_checker"] == []
    assert out["energies_finite"]
    assert out["residual"] <= 1e-3
    assert {"scipy.linalg", "scipy.sparse"} <= set(out["after_evidence"])


def cli_imports(source: str) -> list:
    """Lines of the source that import the command-line module phwell.cli.

    Relative (from .cli import ..., from . import cli) or absolute
    (import phwell.cli, from phwell.cli import ..., from phwell import cli).
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = [module, *(f"{module.rstrip('.')}.{alias.name}" for alias in node.names)]
        else:
            continue
        if {".cli", "phwell.cli"} & set(names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "cli.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_package_module_imports_the_cli(path):
    # the library never loads its front end: import phwell stays free of
    # argparse and the corpus, and python -m phwell.cli runs without a warning
    assert cli_imports(path.read_text()) == []


def test_the_scan_finds_cli_imports():
    source = (
        "from . import analyze, corpus\n"
        "from .cli import analyze\n"
        "from . import cli\n"
        "import phwell.cli\n"
        "from phwell.cli import main\n"
        "from phwell import cli as front\n"
        "from .client import fetch\n"
        "import phwell.clip\n"
        "def f():\n"
        "    from .cli import build_parser\n"
    )
    assert cli_imports(source) == [2, 3, 4, 5, 6, 10]


def test_python_m_cli_runs_without_a_warning():
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "phwell.cli", "--help"],
                          capture_output=True, text=True, cwd=ROOT / "src")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: phwell")


IMPORT_RUN = """
import json, sys
import phwell
out = {"loaded": [m for m in ("phwell.cli", "phwell.corpus", "argparse") if m in sys.modules]}
from phwell import cli
out["same_analyze"] = phwell.analyze is cli.analyze
print(json.dumps(out))
"""


def test_import_phwell_leaves_the_command_line_unloaded():
    proc = subprocess.run([sys.executable, "-c", IMPORT_RUN],
                          capture_output=True, text=True, cwd=ROOT / "src")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [], "same_analyze": True}

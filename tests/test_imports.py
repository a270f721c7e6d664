"""Import guards: every exported name exists, no module imports a name it
never uses, no function imports a module but two, and scipy loads only
where it runs.

Only the Friedman p-value (``evalstats.friedman``, run by ``compare``)
uses scipy, and it imports it inside the function.  Every other command,
twin SVM fits included, must run in a fresh interpreter without loading
it, so that a new module-level import cannot quietly bring back its
start-up time and memory.  The fork pool (``harness._forked``) imports
multiprocessing where it starts.  No other function imports anything: a
fit that imported a module on first use would inflate the time of CV
job 0, which alone decides whether the other jobs fork
(``harness._run_jobs``).
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import twinlearn

MODULES = ["twinlearn"] + [f"twinlearn.{m.name}" for m in pkgutil.iter_modules(twinlearn.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def unused_imports(source: str) -> list[str]:
    """Names the module ``source`` imports at any level but never reads and
    does not list in ``__all__``; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used | exported)


def test_the_unused_import_guard_sees_unused_names():
    source = "from __future__ import annotations\nimport os, sys as system\n" \
             "from json import dumps, loads\nimport xml.dom\n__all__ = ['loads']\n" \
             "def f():\n    from math import pi, tau\n    return os.sep, tau\n"
    assert unused_imports(source) == ["dumps (line 3)", "pi (line 7)", "system (line 2)",
                                      "xml (line 4)"]


SOURCES = sorted(os.path.join(SRC, "twinlearn", name)
                 for name in os.listdir(os.path.join(SRC, "twinlearn")) if name.endswith(".py"))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(_read(path)) == []


def function_imports(source: str) -> list[tuple[str, str]]:
    """(function, module) for each import inside a function body of the
    module ``source``, credited to the innermost enclosing function; a
    relative module keeps its leading dots."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Import) and function:
                found.update((function, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and function:
                found.add((function, "." * child.level + (child.module or "")))
            else:
                visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found)


def test_the_function_import_guard_sees_nested_imports():
    source = "import os\nclass A:\n    def m(self):\n        if os:\n            import json\n" \
             "def f():\n    def g():\n        from .data import x\n    import xml.dom, re\n"
    assert function_imports(source) == [("f", "re"), ("f", "xml.dom"), ("g", ".data"),
                                        ("m", "json")]


# (file, function, module): the only imports a function body may hold
LAZY_IMPORTS = {("harness.py", "_forked", "multiprocessing"),
                ("harness.py", "_forked", "concurrent.futures"),
                ("evalstats.py", "friedman", "scipy.special")}


def test_no_function_imports_a_module_but_two():
    found = {(os.path.basename(path), function, module)
             for path in SOURCES for function, module in function_imports(_read(path))}
    assert found - LAZY_IMPORTS == set()

PRELUDE = """
import sys

def check(step):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, f"{step} loaded {loaded[:3]}"
"""


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         PRELUDE + textwrap.dedent(script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture
def gappy_csv(tmp_path):
    """36 rows of 3 classes (8/14/14) in 3 features, with 5 empty cells."""
    rng = np.random.default_rng(3)
    labels = np.repeat([0, 1, 2], [8, 14, 14])
    centers = np.array([[2.5, 0.0, 0.0], [-2.5, 0.0, 0.0], [0.0, 2.5, 0.0]])
    feats = centers[labels] + 0.7 * rng.standard_normal((labels.size, 3))
    gaps = {(1, 0), (9, 2), (17, 1), (25, 0), (33, 2)}
    lines = ["f0,f1,f2,label"]
    for i, (row, label) in enumerate(zip(feats, labels)):
        cells = ["" if (i, j) in gaps else repr(float(v)) for j, v in enumerate(row)]
        lines.append(",".join(cells + [str(label)]))
    path = tmp_path / "gappy.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_commands_without_twin_svm_or_compare_never_load_scipy(tmp_path, gappy_csv):
    proc = _run("""
        import os
        import twinlearn
        import twinlearn.cli
        check("import twinlearn")
        from twinlearn.cli import main

        data, out = sys.argv[1], sys.argv[2]
        cv = ["cv", "--data", data, "--folds", "2", "--grid", "epochs=20"]
        assert main(cv + ["--model", "twin_nn", "--out", os.path.join(out, "a.json")]) == 0
        check("cv twin_nn")
        assert main(cv + ["--model", "twin_nn_mc", "--out", os.path.join(out, "b.json")]) == 0
        check("cv twin_nn_mc")
        complete = os.path.join(out, "complete.csv")
        assert main(["impute", "--data", data, "--out", complete]) == 0
        check("impute")
        model = os.path.join(out, "rfnn.json")
        assert main(["train", "--data", complete, "--model", "rfnn",
                     "--grid", "epochs=20", "--out", model]) == 0
        check("train rfnn")
        assert main(["predict", "--data", complete, "--model-file", model,
                     "--out", os.path.join(out, "p.txt")]) == 0
        check("predict rfnn")
        print("no scipy")
    """, gappy_csv, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("no scipy")


def test_twin_svm_never_loads_scipy(tmp_path, gappy_csv):
    proc = _run("""
        import os
        from twinlearn.cli import main
        check("import twinlearn.cli")

        data, out = sys.argv[1], sys.argv[2]
        complete = os.path.join(out, "complete.csv")
        assert main(["impute", "--data", data, "--out", complete]) == 0
        for kind in ("twsvm_linear", "twsvm_rbf"):
            assert main(["cv", "--data", data, "--folds", "2", "--model", kind,
                         "--out", os.path.join(out, kind + "_cv.json")]) == 0
            check("cv " + kind)
            model = os.path.join(out, kind + ".json")
            assert main(["train", "--data", complete, "--model", kind, "--out", model]) == 0
            check("train " + kind)
            assert main(["predict", "--data", complete, "--model-file", model,
                         "--out", os.path.join(out, kind + ".txt")]) == 0
            check("predict " + kind)
        print("no scipy")
    """, gappy_csv, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("no scipy")


def test_compare_loads_scipy(tmp_path):
    scores = tmp_path / "scores.csv"
    rows = ["dataset,twin_nn,rfnn,twsvm_linear"]
    rows += [f"d{i},{0.9 + 0.01 * i},{0.8 + 0.02 * i},{0.85 - 0.01 * i}" for i in range(5)]
    scores.write_text("\n".join(rows) + "\n")
    proc = _run("""
        from twinlearn.cli import main
        check("import twinlearn.cli")
        assert main(["compare", "--scores", sys.argv[1]]) == 0
        assert "scipy.special" in sys.modules
        print("scipy loaded")
    """, str(scores))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("scipy loaded")

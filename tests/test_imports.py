"""What a fresh interpreter imports: only the printed residual loads SciPy.

Convertibility verdicts come from a NumPy least-squares solve, and every
other command is closed-form linear algebra, so ``import waylab``, ``compare``,
``deterministic_convertible`` and every command but ``convert`` must leave
``scipy`` out of ``sys.modules``.  Only an LP solve, run when a certificate's
``residual`` is first read (as ``convert`` does to print it), imports
``scipy.optimize``.  Each test runs in a new interpreter, because this one has
long since imported whatever the other tests needed.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Runs the perfbench CLI variants named in argv in-process and prints, per
# variant, whether its exit code and stdout sha256 match the recorded ones
# and which scipy modules are loaded after it.
RUN_VARIANTS = r"""
import hashlib, importlib.util, json, sys, tempfile
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

bench = Path(sys.argv[1])
spec = importlib.util.spec_from_file_location("waylab_bench_workloads", bench / "workloads.py")
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads
spec.loader.exec_module(workloads)
digests = json.loads((bench / "cli_digests.json").read_text())
report = {"before": scipy_modules(), "runs": []}
with tempfile.TemporaryDirectory() as tmp:
    for key in sys.argv[2:]:
        form, i = key.rsplit("/", 1)
        argv, files = workloads.cli_variant(form, int(i))
        paths = {name: str(Path(tmp) / f"{name}.json") for name in files}
        for name, text in files.items():
            Path(paths[name]).write_text(text)
        code, stdout = workloads.cli_in_process([a.format(**paths) for a in argv])
        want = digests[key]
        report["runs"].append({
            "key": key, "exit": code, "recorded_exit": want["exit"],
            "digest_matches": hashlib.sha256(stdout).hexdigest() == want["sha256"],
            "scipy": scipy_modules()})
print(json.dumps(report))
"""


def fresh_python(*args):
    """Run ``python *args`` in a new interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def run_variants(*keys):
    return fresh_python("-c", RUN_VARIANTS, str(PERFBENCH), *keys)


def test_import_waylab_loads_no_scipy():
    loaded = fresh_python("-c", "import json, sys, waylab, waylab.cli; print(json.dumps("
                          "[m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    assert loaded == []


# Decides a pair and compares two states, then reads the certificate's
# residual, and prints the scipy modules loaded after each stage.
VERDICTS_THEN_RESIDUAL = r"""
import json, sys
from waylab import ChargeDistribution, compare, deterministic_convertible, uniform_state

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"before": scipy_modules()}
ordering = compare(uniform_state(3), uniform_state(1))
cert = deterministic_convertible(ChargeDistribution({0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}),
                                 ChargeDistribution({0: 0.5, 1: 0.5}))
report["verdict"] = [ordering.value, cert.feasible, sorted(cert.weights)]
report["after_verdicts"] = scipy_modules()
report["residual"] = cert.residual
report["after_residual"] = scipy_modules()
print(json.dumps(report))
"""


def test_verdicts_load_no_scipy_until_residual_is_read():
    report = fresh_python("-c", VERDICTS_THEN_RESIDUAL)
    assert report["verdict"] == ["a_to_b", True, [0, 2]]
    assert report["before"] == report["after_verdicts"] == []
    assert "scipy.optimize" in report["after_residual"]
    assert report["residual"] <= 1e-8


def test_commands_without_lp_load_no_scipy():
    report = run_variants("twirl/0", "discriminate_uniform/0", "discriminate_coherent/0",
                          "curves_fig2/0", "curves_fig3/0", "circuit/0", "ozawa_model/0",
                          "ozawa_bound/0")
    assert report["before"] == []
    for run in report["runs"]:
        assert run["exit"] == run["recorded_exit"] == 0, run
        assert run["digest_matches"], run
        assert run["scipy"] == [], run


def test_convert_loads_lp_solver_on_first_use():
    report = run_variants("convert_feasible/0", "convert_infeasible/0")
    assert report["before"] == []
    feasible, infeasible = report["runs"]
    assert (feasible["exit"], infeasible["exit"]) == (0, 1)
    for run in (feasible, infeasible):
        assert run["exit"] == run["recorded_exit"], run
        assert run["digest_matches"], run
        assert "scipy.optimize" in run["scipy"], run


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, leaving out ``__future__`` and ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read and name not in exported)


def test_unused_imports_are_detected():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == ["os (line 1)"]
    assert unused_imports("from __future__ import annotations\n"
                          "from .a import b\n__all__ = ['b']\n") == []


def test_src_modules_have_no_unused_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "waylab").glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def unread_locals(source: str) -> list[str]:
    """Names a function assigns but never reads, in it or in a function nested in it.

    Names that start with ``_`` are exempt, as are ``global`` and
    ``nonlocal`` names, which other scopes read.
    """
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        shared = {name for node in nodes if isinstance(node, (ast.Global, ast.Nonlocal))
                  for name in node.names}
        read = {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found |= {f"{node.id} (line {node.lineno})" for node in nodes
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                  and not node.id.startswith("_") and node.id not in read | shared}
    return sorted(found)


def test_unread_locals_are_detected():
    source = ("def f(xs):\n"
              "    total, unused = 0, 1\n"
              "    for x in xs:\n"
              "        total += x\n"
              "    dead = total\n"
              "    _, kept = xs\n"
              "    def g():\n"
              "        return kept\n"
              "    return g\n"
              "\n"
              "count = 0\n"
              "def h():\n"
              "    global count\n"
              "    count = 1\n")
    assert unread_locals(source) == ["dead (line 5)", "unused (line 2)"]


def test_src_modules_have_no_unread_locals():
    found = {path.name: unread_locals(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "waylab").glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions that no module in ``sources`` references.

    A reference is any name or attribute read, or a ``from`` import, outside
    the function's own definition.
    """
    defined, referenced = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = {getattr(stmt, "name", None)}
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                defined.append((module, stmt.name))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                else:
                    continue
                referenced |= names - own
    return sorted(f"{module}.{name}" for module, name in defined if name not in referenced)


def test_unreferenced_private_functions_are_detected():
    sources = {"a": "def _used():\n    pass\n\n"
                    "def _dead():\n    return _dead()\n\n"
                    "def _imported():\n    pass\n",
               "b": "from .a import _imported\n\n"
                    "def public():\n    return _used()\n"}
    assert unreferenced_private_functions(sources) == ["a._dead"]


def test_src_private_functions_are_all_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "waylab").glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


TOLERANCE_NAMES = {"EPS_NUM", "FEASIBILITY_TOL"}


def bare_tolerance_raises(source: str) -> list[int]:
    """Lines of ``if`` statements that raise on a bare tolerance comparison.

    The test is a single ``<``, ``<=``, ``>`` or ``>=`` with ``EPS_NUM``,
    ``FEASIBILITY_TOL`` or a float literal (negated or not) on either side, and
    the body is a lone ``raise``.  Such a guard lets NaN through, since every
    ordering comparison with NaN is false; ``graded._require`` does not.
    """
    def is_tolerance(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (isinstance(node, ast.Name) and node.id in TOLERANCE_NAMES
                or isinstance(node, ast.Attribute) and node.attr in TOLERANCE_NAMES
                or isinstance(node, ast.Constant) and isinstance(node.value, float))

    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)):
            continue
        test = node.test
        if (len(test.ops) == 1 and isinstance(test.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                and (is_tolerance(test.left) or is_tolerance(test.comparators[0]))
                and len(node.body) == 1 and isinstance(node.body[0], ast.Raise)):
            found.append(node.lineno)
    return found


def test_bare_tolerance_raises_are_detected():
    source = ("if err > EPS_NUM:\n    raise ValueError('err')\n"
              "if p < -EPS_NUM:\n    raise ValueError('p')\n"
              "if fit >= 1e-9:\n    raise ValueError('fit')\n"
              "if g.FEASIBILITY_TOL < r:\n    raise ValueError('r')\n"
              "if not err <= EPS_NUM:\n    raise ValueError('nan-safe')\n"
              "if err > EPS_NUM:\n    return 0\n"
              "if alpha < 0:\n    raise ValueError('integer bound')\n"
              "_require(err, EPS_NUM, 'err')\n")
    assert bare_tolerance_raises(source) == [1, 3, 5, 7]


def test_src_tolerance_checks_all_go_through_require():
    found = {path.name: bare_tolerance_raises(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "waylab").glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_benchmark_trace_hooks_resolve():
    # perfbench/spans.py wraps waylab functions by dotted path; a renamed or
    # moved one would only surface when the benchmark runs
    spec = importlib.util.spec_from_file_location("waylab_bench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for key, module, path in spans.WRAPPED:
        importlib.import_module(module)
        try:
            _, _, fn = spans._resolve(module, path)
        except (AttributeError, KeyError):
            missing.append(f"{key}: {module}.{path}")
            continue
        if not callable(getattr(fn, "__func__", fn)):
            missing.append(f"{key}: {module}.{path} is not callable")
    assert missing == []

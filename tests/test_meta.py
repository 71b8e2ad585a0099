"""Meta-tests: repository-wide conventions.

These keep the codebase honest as it grows: every protocol message
declares its accounting category, every public module is documented, and
the experiment scripts stay registered in the pytest suite.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

VALID_CATEGORIES = {"consensus", "lease", "client", "leader-election"}


def _all_modules():
    prefix = repro.__name__ + "."
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        yield importlib.import_module(info.name)


def test_every_module_has_a_docstring():
    undocumented = [
        module.__name__ for module in _all_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert not undocumented, undocumented


def test_every_message_class_declares_a_category():
    missing = []
    message_modules = [
        "repro.core.messages",
        "repro.leader.omega",
        "repro.leader.enhanced",
        "repro.baselines.common",
        "repro.baselines.multipaxos",
        "repro.baselines.raft",
        "repro.baselines.vr",
        "repro.baselines.megastore",
        "repro.baselines.pql",
        "repro.baselines.spanner",
    ]
    for module_name in message_modules:
        module = importlib.import_module(module_name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module_name:
                continue
            if not hasattr(cls, "__dataclass_fields__"):
                continue
            if name in ("Estimate", "LogEntry", "Snapshot"):
                continue  # value types, not wire messages
            category = getattr(cls, "category", None)
            if category not in VALID_CATEGORIES:
                missing.append(f"{module_name}.{name} -> {category!r}")
    assert not missing, missing


def test_every_experiment_script_is_in_the_pytest_suite():
    bench_dir = Path(repro.__file__).resolve().parents[2] / "benchmarks"
    scripts = {
        path.stem for path in bench_dir.glob("exp_*.py")
    }
    registered_source = (bench_dir / "test_experiments.py").read_text()
    unregistered = {
        name for name in scripts if f'"{name}"' not in registered_source
    }
    assert not unregistered, (
        f"experiments missing from test_experiments.py: {unregistered}"
    )


def test_public_classes_have_docstrings():
    undocumented = []
    for module in _all_modules():
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__ or name.startswith("_"):
                continue
            if not (cls.__doc__ or "").strip():
                undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, undocumented


def test_one_module_owns_the_process_pool():
    # One process pool, one place that forks: everything parallel goes
    # through repro.analysis.parallel (chaos soak --workers, run_cells).
    importers = set()
    for module in _all_modules():
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "multiprocessing" for n in names):
                importers.add(module.__name__)
    assert importers == {"repro.analysis.parallel"}


def test_one_learner_owns_the_shared_role_code():
    # Replicas and leaseholders share one store/apply/snapshot/catch-up/
    # read path (repro.core.learner): each of these is defined once.
    core = Path(repro.__file__).resolve().parent / "core"
    source = "\n".join(p.read_text() for p in sorted(core.glob("*.py")))
    shared = ["_on_commit", "_on_batch_request", "_on_batch_reply",
              "_ensure_catchup", "_fetch_task", "_make_snapshot",
              "_compute_k_hat", "_wait", "_noop"]
    counts = {name: len(re.findall(rf"\bdef {name}\(", source))
              for name in shared}
    assert counts == {name: 1 for name in shared}, counts
    assert "LocalReadMixin" not in source and "readpath" not in source

"""Run every experiment at reduced scale and assert its claims.

Each test calls one experiment's ``run`` once and asserts every claim
the experiment checks.  ``pytest benchmarks/test_experiments.py``
therefore regenerates and verifies the complete claim table of
EXPERIMENTS.md at smoke scale; run the ``exp_*.py`` scripts directly for
the full-scale numbers.
"""

import importlib

import pytest

EXPERIMENTS = [
    # (module, scale, seeds)
    ("exp_read_locality", 0.25, (1,)),
    ("exp_nonblocking_reads", 0.5, (1,)),
    ("exp_blocking_bound", 0.5, (1,)),
    ("exp_leaseholder_failure", 1.0, (1,)),
    ("exp_lease_complexity", 0.5, (1,)),
    ("exp_steady_writes", 0.75, (1,)),
    ("exp_megastore_writes", 1.0, (1,)),
    ("exp_commit_wait", 0.5, (1,)),
    ("exp_spanner_reads", 1.0, (1,)),
    ("exp_raft_reads", 0.5, (1,)),
    ("exp_lower_bound", 1.0, (11,)),
    ("exp_robustness", 1.0, (3,)),
    ("exp_failover", 1.0, (1,)),
    ("exp_read_ratio_sweep", 1.0, (1,)),
    ("exp_leader_placement", 0.5, (1,)),
    # Design-choice ablations (DESIGN.md section 7 footnotes).
    ("exp_ablation_lease_period", 1.0, (1,)),
    ("exp_ablation_conflict_awareness", 1.0, (1,)),
    ("exp_ablation_batching", 0.5, (1,)),
]


@pytest.mark.parametrize(
    "module_name,scale,seeds",
    EXPERIMENTS,
    ids=[name for name, _, _ in EXPERIMENTS],
)
def test_experiment_claims(module_name, scale, seeds):
    module = importlib.import_module(module_name)
    result = module.run(scale=scale, seeds=seeds)
    failed = [name for name, ok in result["claims"].items() if not ok]
    assert not failed, (
        f"{module_name}: failed claims: {failed}\n"
        + "\n".join(t.render() for t in result["tables"])
    )


def test_experiments_deterministic_across_runs_and_workers(monkeypatch):
    # Same seed -> byte-identical tables, and a parallel run must merge
    # to exactly what a serial run produces.
    module = importlib.import_module("exp_steady_writes")

    def rendered(result):
        return "\n".join(t.render() for t in result["tables"])

    first = rendered(module.run(scale=0.5, seeds=(1, 2)))
    second = rendered(module.run(scale=0.5, seeds=(1, 2)))
    assert first == second
    monkeypatch.setenv("REPRO_WORKERS", "1")
    serial = rendered(module.run(scale=0.5, seeds=(1, 2)))
    assert serial == first

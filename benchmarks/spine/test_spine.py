"""Tests of the spine benchmark itself (``pytest benchmarks/spine``; not
part of the tier-1 ``testpaths``).  Every run is a ``--smoke`` run:
about one second of measurement per workload.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from common import TMP_ROOT, Contract, require_source  # noqa: E402

import compare  # noqa: E402

CONTRACT = Contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
# Simulated quantities: a pure function of the seed.
COUNTS = {
    "sim_write": [
        "sim.events_per_op", "sim.msgs_per_op", "core.consensus_msgs_per_op",
        "core.lease_msgs_per_op", "core.ops_per_batch",
        "core.commit_latency_sim_ms_p50", "core.read_blocked_frac",
        "leader.msgs_per_sim_s"],
    "sim_chaos": [
        "sim.events_per_op", "sim.msgs_per_op", "core.consensus_msgs_per_op",
        "core.lease_msgs_per_op", "core.client_msgs_per_op",
        "core.ops_per_batch", "core.commit_latency_sim_ms_p50",
        "leader.msgs_per_sim_s", "leader.changes_per_schedule",
        "shard.handoff_sim_ms_p50", "verify.configs_explored_per_history",
        "durable.wal_records_per_op", "durable.syncs_per_op"],
}


@functools.lru_cache(maxsize=None)
def smoke(workload: str, seed: int, trace: int, attempt: int = 0) -> tuple:
    """(stdout lines, full record) of one smoke run; cached per
    arguments, ``attempt`` forcing a fresh run of the same ones."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--smoke", "--trace", str(trace),
             "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return proc.stdout.splitlines(), json.loads(out.read_text())


def test_contract_names_and_limits() -> None:
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert data["paths"] == ["benchmarks/spine"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in data[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(data["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in data["workloads"])
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in data["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", CONTRACT.workloads)
def test_smoke_prints_every_metric(workload: str, trace: int) -> None:
    lines, record = smoke(workload, 3, trace)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    expected = CONTRACT.per_layer if trace else CONTRACT.end_to_end
    assert list(last["metrics"]) == list(expected)
    for name, metric in last["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]["unit"]
        assert isinstance(metric["value"], float)
        if not trace:
            assert metric["value"] > 0, name  # end-to-end: never 0
        # ... and printed by name with unit and sample count above it.
        assert any(line.split()[:1] == [name] and " n=" in line
                   for line in lines[:-1]), name
    assert record["env"]["seed"] == 3 and record["env"]["nproc"] >= 1


def test_layers_that_do_no_work_read_zero() -> None:
    """The predictions ISSUE 11 asks to hold on the first numbers."""
    write = smoke("net_write", 3, 1)[1]["metrics"]
    assert write["durable.syncs_per_op"]["value"] == 0
    assert write["durable.wal_bytes_per_op"]["value"] == 0
    assert write["core.queue_wait_us"]["value"] > 0
    assert write["trace.tiling_residual_frac"]["value"] <= 0.10
    read = smoke("net_read", 3, 1)[1]["metrics"]
    assert read["core.consensus_msgs_per_op"]["value"] < 0.2
    for workload in ("sim_write", "sim_chaos"):
        metrics = smoke(workload, 3, 1)[1]["metrics"]
        assert all(m["value"] == 0 for name, m in metrics.items()
                   if name.startswith("net."))


@pytest.mark.parametrize("workload", ["sim_write", "sim_chaos"])
def test_counts_and_digests_repeat_exactly(workload: str) -> None:
    first = smoke(workload, 3, 1)[1]
    again = smoke(workload, 3, 1, attempt=1)[1]
    other = smoke(workload, 4, 1)[1]

    def counts(record: dict) -> list:
        return [record["metrics"][name]["value"] for name in COUNTS[workload]]

    assert counts(first) == counts(again)
    assert counts(first) != counts(other)
    assert first["extra"]["digest"] == again["extra"]["digest"]
    assert first["extra"]["digest"] != other["extra"]["digest"]
    # Seed 0's digest is the one committed in digests.json — checked by
    # the untraced run too, which the driver and compare.py mostly see.
    untraced = smoke(workload, 3, 0)[1]
    assert untraced["extra"]["digest"] == first["extra"]["digest"]
    for record in (first, untraced):
        assert record["extra"]["canonical_digest"]["recorded"] is not None
        assert record["extra"]["canonical_digest"]["changed"] is False
    assert first["metrics"]["sim.digest_changed"]["value"] == 0


def test_changed_simulated_behaviour_is_loud(tmp_path, monkeypatch) -> None:
    require_source()
    import simload
    from common import Result

    # A digest other than the recorded one: flagged, the run still counts.
    result = Result("sim_write", 3, 1.0, False)
    simload._digest_changed(result, "sim_write", "not-the-recorded-one")
    assert result.extra["canonical_digest"]["changed"] and result.correct
    # Nothing recorded to compare with: the run fails.
    monkeypatch.setattr(simload, "DIGESTS", tmp_path / "digests.json")
    simload._digest_changed(result, "sim_write", "any")
    assert not result.correct

    # compare.py shouts about either sign on untraced runs as well.
    base = smoke("sim_write", 3, 0)[1]
    flagged = json.loads(json.dumps(base))
    flagged["extra"]["canonical_digest"]["changed"] = True
    moved = json.loads(json.dumps(base))
    moved["extra"]["digest"] = "another"
    key = ("sim_write", 0)
    assert compare.alarms({key: [base]}, {key: [base]}) == []
    assert "digest_changed" in compare.alarms({key: [base]},
                                              {key: [flagged]})[0]
    assert "seed 3" in compare.alarms({key: [base]}, {key: [moved]})[0]


def test_nothing_left_behind_when_a_run_raises() -> None:
    require_source()
    import netload

    before = set(TMP_ROOT.iterdir()) if TMP_ROOT.exists() else set()
    procs = []
    with pytest.raises(RuntimeError, match="boom"):
        with netload.cluster(5, durable=True, clients=1) as cl:
            procs = list(cl.launcher.procs.values())
            assert (cl.workdir / "wal").is_dir()
            assert all(p.poll() is None for p in procs)
            raise RuntimeError("boom")
    assert len(procs) == netload.N + netload.L
    assert all(p.poll() is not None for p in procs)
    after = set(TMP_ROOT.iterdir()) if TMP_ROOT.exists() else set()
    assert after <= before


def test_missing_program_exits_nonzero_without_a_result(tmp_path) -> None:
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure."""
    target = tmp_path / "benchmarks" / "spine"
    target.mkdir(parents=True)
    for path in HERE.glob("*.*"):
        (target / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "sim_write",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_compare_verdicts() -> None:
    def judge(base: float, new: float, noise: float, better: str) -> str:
        return compare.verdict(base, new, better,
                               compare.resolved_bound(noise, 0.25))

    assert judge(100, 104, 0.02, "lower") == "unchanged"
    # Steady sides are judged at 10 %, not at the gate's 25 % ...
    assert judge(100, 115, 0.02, "lower") == "regressed"
    assert judge(100, 85, 0.02, "lower") == "improved"
    assert judge(100, 85, 0.02, "higher") == "regressed"
    # ... noisier ones at their own noise, and beyond the gate not at all.
    assert judge(100, 115, 0.20, "lower") == "unchanged"
    assert judge(100, 125, 0.20, "lower") == "regressed"
    assert judge(100, 150, 0.30, "lower") == "unresolved"


def test_compare_exit_code(tmp_path) -> None:
    record = smoke("sim_write", 3, 0)[1]
    rate = record["metrics"]["ops_per_s"]
    rate["windows"] = [rate["value"]] * 3  # a noise-free base
    slower = json.loads(json.dumps(record))
    slower["metrics"]["ops_per_s"].update(
        value=rate["value"] / 2, windows=[rate["value"] / 2] * 3)
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps({"runs": [record]}))
    new.write_text(json.dumps({"runs": [slower]}))

    def run(a: Path, b: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(HERE / "compare.py"), str(a), str(b)],
            capture_output=True, text=True, timeout=60)

    same = run(base, base)
    assert same.returncode == 0, same.stdout + same.stderr
    worse = run(base, new)
    assert worse.returncode == 1
    assert re.search(r"sim_write\s+ops_per_s.*regressed", worse.stdout)

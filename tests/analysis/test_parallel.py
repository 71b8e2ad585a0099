"""Tests for the parallel experiment runner."""

import os

import pytest

from repro.analysis.parallel import (
    WORKERS_ENV,
    WorkerCrash,
    default_workers,
    parallel_imap,
    parallel_map,
    parallel_starmap,
    run_cells,
)


def _square(x):
    return x * x


def _describe(system, extra, seed):
    return f"{system}/{extra}/{seed}"


def _fail_on(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _die_on(x):
    if x == 2:
        os._exit(13)  # no exception, no result: the worker just vanishes
    return x


def _interrupt_on(x):
    if x == 1:
        raise KeyboardInterrupt
    return x


class TestParallelMap:
    def test_matches_serial_map_order(self):
        items = list(range(20))
        assert parallel_map(_square, items) == [x * x for x in items]

    def test_serial_fallback_with_one_worker(self):
        items = list(range(8))
        assert parallel_map(_square, items, workers=1) == \
            [x * x for x in items]

    def test_parallel_equals_serial(self):
        items = list(range(16))
        assert parallel_map(_square, items, workers=4) == \
            parallel_map(_square, items, workers=1)

    def test_empty_and_single(self):
        assert parallel_map(_square, []) == []
        assert parallel_map(_square, [7]) == [49]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            parallel_map(_fail_on, [1, 2, 3, 4], workers=2)
        with pytest.raises(ValueError):
            parallel_map(_fail_on, [1, 2, 3, 4], workers=1)

    def test_worker_exception_carries_the_remote_traceback(self):
        with pytest.raises(ValueError) as excinfo:
            parallel_map(_fail_on, [1, 2, 3, 4], workers=2)
        cause = excinfo.value.__cause__
        assert isinstance(cause, WorkerCrash)
        assert "worker traceback" in str(cause)
        assert "_fail_on" in str(cause)  # the worker-side frame, by name


class TestPoolTeardown:
    """A worker that dies without reporting must raise, not hang."""

    def test_map_surfaces_a_vanished_worker(self):
        with pytest.raises(WorkerCrash, match="died without returning"):
            parallel_map(_die_on, [0, 1, 2, 3], workers=2)

    def test_imap_surfaces_a_vanished_worker(self):
        with pytest.raises(WorkerCrash, match="died without returning"):
            list(parallel_imap(_die_on, [0, 1, 2, 3], workers=2))

    def test_imap_streams_in_order_and_survives_early_break(self):
        seen = []
        for value in parallel_imap(_square, range(10), workers=2):
            seen.append(value)
            if len(seen) == 3:
                break
        assert seen == [0, 1, 4]

    def test_keyboard_interrupt_in_a_cell_reaches_the_parent(self):
        with pytest.raises(KeyboardInterrupt):
            parallel_map(_interrupt_on, [0, 1, 2], workers=2)
        # ... and as an ordinary exception the serial path raises too.
        with pytest.raises(KeyboardInterrupt):
            parallel_map(_interrupt_on, [0, 1, 2], workers=1)


class TestStarmapAndCells:
    def test_starmap_order(self):
        cells = [("a", 1, 2), ("b", 3, 4)]
        assert parallel_starmap(_describe, cells, workers=2) == \
            ["a/1/2", "b/3/4"]

    def test_run_cells_groups_by_system_in_seed_order(self):
        grouped = run_cells(_describe, ("cht", "pql"), (5, 6, 7), "w",
                            workers=3)
        assert grouped == {
            "cht": ["cht/w/5", "cht/w/6", "cht/w/7"],
            "pql": ["pql/w/5", "pql/w/6", "pql/w/7"],
        }

    def test_run_cells_serial_matches_parallel(self):
        serial = run_cells(_describe, ("a", "b"), (1, 2), 0, workers=1)
        parallel = run_cells(_describe, ("a", "b"), (1, 2), 0, workers=4)
        assert serial == parallel


class TestWorkerConfig:
    def test_env_var_overrides(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert default_workers() == 1
        monkeypatch.setenv(WORKERS_ENV, "junk")
        assert default_workers() == (os.cpu_count() or 1)

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == (os.cpu_count() or 1)

"""Parallel experiment execution.

Every experiment in this repository is a grid of independent simulation
cells — typically ``(system, seed)`` pairs, each a pure function of its
arguments.  This module fans those cells out over a ``multiprocessing``
pool and merges the results deterministically: results come back in the
order of the input cells regardless of which worker finished first, so a
parallel run produces byte-identical tables to a serial one.

Workers are forked (POSIX), so experiment modules loaded via ``sys.path``
manipulation (the ``benchmarks/`` scripts) resolve in the children without
any extra bootstrapping.  On platforms without ``fork`` — or when
``REPRO_WORKERS=1`` / ``serial=True`` is requested — everything degrades
to a plain in-process loop with identical results.

Worker failures surface, they never hang.  Each cell runs inside a
carrier that ships the worker's traceback back with the result, so a
raising cell re-raises here with the *worker's* stack chained on (as a
:class:`WorkerCrash` cause) instead of the pool's opaque re-raise.  And
the parent polls worker liveness while it waits: a worker that dies
without reporting — ``os._exit``, a segfault, the OOM killer — turns
into an immediate :class:`WorkerCrash` naming the lost cell, where a
bare ``Pool.map``/``imap`` would block forever on a result that can no
longer arrive.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from pickle import PicklingError
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

__all__ = ["WorkerCrash", "default_workers", "parallel_imap",
           "parallel_map", "parallel_starmap", "run_cells"]

#: Environment knob: cap the worker count (1 forces serial execution).
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` if set, else the CPU count."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


class _Star:
    """Picklable adapter turning ``fn(*args)`` into a one-argument call."""

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn

    def __call__(self, args: tuple) -> Any:
        return self.fn(*args)


#: Seconds between worker-liveness polls while waiting on a result.
_POLL_INTERVAL = 0.1


class WorkerCrash(RuntimeError):
    """A pool worker failed.

    Raised directly when a worker died without reporting (killed,
    ``os._exit``, segfault) — its in-flight cell is lost and waiting
    longer cannot recover it.  Chained as the ``__cause__`` of a cell's
    own exception otherwise, carrying the worker-side traceback that a
    plain pool re-raise discards.
    """


class _Carrier:
    """Worker-side wrapper: no exception escapes into the pool machinery.

    A raising cell comes back as an ``("error", exc, traceback)`` value
    — checked for picklability in the worker, where failing to pickle is
    survivable — so the parent controls the re-raise.  Catches
    ``BaseException``: a KeyboardInterrupt landing inside a cell must
    also travel home as a value, not kill the worker mid-task and leave
    the parent joining forever.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, item: Any) -> tuple:
        try:
            return ("ok", self.fn(item))
        except BaseException as exc:  # noqa: BLE001 — carried, not handled
            remote = traceback.format_exc()
            try:
                pickle.dumps(exc)
            except Exception:
                exc = None  # unpicklable; the traceback text still travels
            return ("error", exc, remote)


def _reraise(exc: Optional[BaseException], remote: str, index: int) -> None:
    crash = WorkerCrash(
        f"cell {index} failed in a pool worker\n"
        f"--- worker traceback ---\n{remote}"
    )
    if exc is None:
        raise crash
    raise exc from crash


def _collect(pool: Any, handles: list, fn: Callable) -> Iterator[Any]:
    """Yield each carried result in submission order, watching the pool.

    ``Pool`` replaces a dead worker with a fresh one but never re-queues
    the task it was running, so the naive ``handle.get()`` would block
    forever.  The parent instead polls: when the pool's worker pids
    change, some worker died abnormally and its cell is lost — raise
    rather than wait.
    """
    baseline = {proc.pid for proc in getattr(pool, "_pool", [])}
    for index, handle in enumerate(handles):
        while True:
            try:
                tagged = handle.get(timeout=_POLL_INTERVAL)
                break
            except multiprocessing.TimeoutError:
                current = {proc.pid for proc in getattr(pool, "_pool", [])}
                if baseline and current != baseline:
                    raise WorkerCrash(
                        f"a pool worker died without returning a result "
                        f"while cell {index} of {fn!r} was outstanding "
                        f"(worker pids {sorted(baseline)} -> "
                        f"{sorted(current)}); killed or crashed hard — "
                        "its traceback, if any, went to stderr"
                    ) from None
        status = tagged[0]
        if status == "ok":
            yield tagged[1]
        else:
            _reraise(tagged[1], tagged[2], index)


def parallel_imap(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: Optional[int] = None,
) -> Iterator[Any]:
    """Yield ``fn(x)`` for each item *in input order*, computing ahead.

    ``fn`` must be picklable (a module-level function or a picklable
    callable object).  Results stream back as the consumer iterates:
    the pool keeps working ahead on later items while the caller
    processes earlier ones, and abandoning the generator (e.g. ``break``
    on the first interesting result) terminates outstanding work.  The
    chaos soak uses this so verification of schedule *k* overlaps
    simulation of schedules *k+1..k+workers* — with a deterministic,
    serial-identical result order.  Falls back to a serial loop when the
    pool cannot help (one item, one worker) or cannot start (no fork
    support).
    """
    items = list(items)
    if workers is None:
        workers = default_workers()
    workers = min(workers, len(items))
    ctx = _fork_context()
    if workers <= 1 or len(items) <= 1 or ctx is None:
        for item in items:
            yield fn(item)
        return
    try:
        pool = ctx.Pool(processes=workers)
    except OSError:  # pragma: no cover - resource limits
        for item in items:
            yield fn(item)
        return
    try:
        # One task per submission (the chunksize=1 analogue): cells are
        # coarse (whole simulations), so even load-balancing beats
        # batching — and per-cell handles let _collect name the cell
        # that failed.
        carrier = _Carrier(fn)
        handles = [pool.apply_async(carrier, (item,)) for item in items]
        yield from _collect(pool, handles, fn)
        pool.close()
    finally:
        # Reached on exhaustion, early break, worker crash, and
        # KeyboardInterrupt alike; terminate-before-join discards
        # whatever tasks the abandoned handles still held, and is a
        # no-op after close() + full drain.
        pool.terminate()
        pool.join()


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: Optional[int] = None,
) -> list[Any]:
    """``[fn(x) for x in items]`` over the :func:`parallel_imap` pool."""
    items = list(items)
    try:
        return list(parallel_imap(fn, items, workers))
    except PicklingError:  # pragma: no cover - unpicklable fn/items
        return [fn(item) for item in items]


def parallel_starmap(
    fn: Callable[..., Any],
    argtuples: Iterable[tuple],
    workers: Optional[int] = None,
) -> list[Any]:
    """``[fn(*args) for args in argtuples]`` over a process pool."""
    return parallel_map(_Star(fn), argtuples, workers=workers)


def run_cells(
    measure: Callable[..., Any],
    systems: Sequence[str],
    seeds: Sequence[int],
    *extra: Any,
    workers: Optional[int] = None,
) -> dict[str, list[Any]]:
    """Run ``measure(system, *extra, seed)`` for every (system, seed) cell.

    The full grid executes concurrently; the merge is deterministic:
    ``result[system][i]`` is the cell for ``seeds[i]``, exactly as a
    nested serial loop would produce.
    """
    cells = [(system, *extra, seed) for system in systems for seed in seeds]
    flat = parallel_starmap(measure, cells, workers=workers)
    grouped: dict[str, list[Any]] = {}
    per_system = len(seeds)
    for i, system in enumerate(systems):
        grouped[system] = flat[i * per_system:(i + 1) * per_system]
    return grouped

"""Differential testing: the iterative engine vs the reference checker.

``tests/verify/_reference.py`` preserves the original Wing & Gong search
exactly as shipped.  These hypothesis suites generate random small
histories — mixed pending/complete, single- and multi-key, linearizable
and seeded-violation cases — and assert the new engine (iterative core +
quiescence segmentation) returns the identical verdict on every one.
Across the suites, well over 1000 distinct histories are checked per
run (300 + 300 + 200 + 200 + 100 examples).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objects.kvstore import KVStoreSpec, delete, get, increment, put
from repro.objects.register import RegisterSpec, cas, read, write
from repro.verify.history import History, HistoryEntry
from repro.verify.linearizability import check_linearizable

from ._reference import check_linearizable_reference

REGISTER = RegisterSpec(initial=0)
KV = KVStoreSpec()


def _assert_same_verdict(spec, entries, partition=False):
    history = History(entries)
    new = check_linearizable(spec, history, partition_by_key=partition)
    old = check_linearizable_reference(spec, history,
                                       partition_by_key=partition)
    assert not new.undecided
    assert bool(new) == bool(old), (
        f"engines disagree: new={new!r} reference={old!r} on {entries}"
    )
    if new.ok and new.witness is not None:
        _assert_witness_valid(spec, entries, new.witness)


def _assert_witness_valid(spec, entries, witness):
    """A returned witness must be a real linearization: a subset of the
    history (all completed ops included) whose sequential execution
    matches every observed response and respects real-time order."""
    completed = [e for e in entries if not e.pending]
    assert len([e for e in witness if not e.pending]) == len(completed)
    state = spec.initial_state()
    for entry in witness:
        state, response = spec.apply_any(state, entry.op)
        if not entry.pending and not entry.response_unknown:
            assert response == entry.response, (entry, response)
    for i, early in enumerate(witness):
        for late in witness[i + 1:]:
            assert not (
                late.responded_at is not None
                and late.responded_at < early.invoked_at
            ), f"witness violates real-time order: {early} after {late}"


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def register_histories(draw):
    """Random register histories: overlapping intervals, pending ops,
    response_unknown entries, both valid and invalid responses."""
    n_ops = draw(st.integers(min_value=1, max_value=6))
    entries = []
    for i in range(n_ops):
        start = draw(st.floats(min_value=0, max_value=30))
        duration = draw(st.floats(min_value=0.0, max_value=12))
        is_pending = draw(st.booleans()) and draw(st.booleans())
        unknown = not is_pending and draw(
            st.booleans()) and draw(st.booleans()) and draw(st.booleans())
        kind = draw(st.sampled_from(["read", "write", "cas"]))
        if kind == "write":
            op = write(draw(st.integers(min_value=0, max_value=2)))
            response = None
        elif kind == "cas":
            op = cas(draw(st.integers(min_value=0, max_value=2)),
                     draw(st.integers(min_value=0, max_value=2)))
            response = draw(st.integers(min_value=0, max_value=2))
        else:
            op = read()
            response = draw(st.integers(min_value=0, max_value=2))
        entries.append(
            HistoryEntry(
                op=op,
                response=None if (is_pending or unknown) else response,
                invoked_at=start,
                responded_at=None if is_pending else start + duration,
                pid=i,
                response_unknown=unknown,
            )
        )
    return entries


@st.composite
def kv_histories(draw):
    """Random multi-key KV histories (single-key ops only, so both the
    whole-history and the partitioned check paths apply)."""
    n_ops = draw(st.integers(min_value=1, max_value=7))
    entries = []
    for i in range(n_ops):
        start = draw(st.floats(min_value=0, max_value=40))
        duration = draw(st.floats(min_value=0.0, max_value=10))
        is_pending = draw(st.booleans()) and draw(st.booleans())
        key = draw(st.sampled_from(["a", "b"]))
        kind = draw(st.sampled_from(["get", "put", "increment", "delete"]))
        if kind == "get":
            op = get(key)
            response = draw(st.sampled_from([None, 0, 1, 2]))
        elif kind == "put":
            op = put(key, draw(st.integers(min_value=0, max_value=2)))
            response = None
        elif kind == "increment":
            op = increment(key)
            response = draw(st.integers(min_value=0, max_value=3))
        else:
            op = delete(key)
            response = None
        entries.append(
            HistoryEntry(
                op=op,
                response=None if is_pending else response,
                invoked_at=start,
                responded_at=None if is_pending else start + duration,
                pid=i,
            )
        )
    return entries


@st.composite
def sequential_kv_runs(draw):
    """Histories generated by actually executing ops one at a time with
    occasional overlap: linearizable by construction, with natural
    quiescence points the segmenter should exploit."""
    n_ops = draw(st.integers(min_value=2, max_value=10))
    state = KV.initial_state()
    entries = []
    time = 0.0
    for i in range(n_ops):
        key = draw(st.sampled_from(["a", "b"]))
        kind = draw(st.sampled_from(["get", "put", "increment"]))
        if kind == "get":
            op = get(key)
        elif kind == "put":
            op = put(key, draw(st.integers(min_value=0, max_value=3)))
        else:
            op = increment(key)
        state, response = KV.apply(state, op)
        # Sometimes stretch the interval back so ops overlap, sometimes
        # leave a clean quiescence gap before the next one.
        stretch = draw(st.floats(min_value=0.0, max_value=3.0))
        entries.append(
            HistoryEntry(op=op, response=response,
                         invoked_at=max(0.0, time - stretch),
                         responded_at=time + 1.0, pid=i)
        )
        time += draw(st.sampled_from([0.5, 2.0, 5.0]))
    return entries


# ----------------------------------------------------------------------
# Differential suites
# ----------------------------------------------------------------------


@given(register_histories())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_register_verdicts_match_reference(entries):
    _assert_same_verdict(REGISTER, entries)


@given(kv_histories())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kv_whole_history_verdicts_match_reference(entries):
    _assert_same_verdict(KV, entries)


@given(kv_histories())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_kv_partitioned_verdicts_match_reference(entries):
    _assert_same_verdict(KV, entries, partition=True)


@given(sequential_kv_runs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sequential_runs_linearizable_in_both_engines(entries):
    _assert_same_verdict(KV, entries)
    assert check_linearizable(KV, History(entries))


@given(sequential_kv_runs(), st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_seeded_violations_match_reference(entries, data):
    """Corrupt one response; both engines must agree on the outcome."""
    index = data.draw(st.integers(min_value=0, max_value=len(entries) - 1))
    target = entries[index]
    corrupted = HistoryEntry(
        op=target.op,
        response=999,  # value never written by any generated op
        invoked_at=target.invoked_at,
        responded_at=target.responded_at,
        pid=target.pid,
    )
    mutated = entries[:index] + [corrupted] + entries[index + 1:]
    _assert_same_verdict(KV, mutated)


def test_segmentation_off_matches_reference_on_concurrent_batch():
    """segment=False exercises the raw iterative core on one big search."""
    entries = [
        HistoryEntry(op=write(i), response=None, invoked_at=0.0,
                     responded_at=50.0, pid=i)
        for i in range(5)
    ] + [HistoryEntry(op=read(), response=3, invoked_at=60.0,
                      responded_at=61.0, pid=9)]
    history = History(entries)
    assert bool(check_linearizable(REGISTER, history, segment=False)) == \
        bool(check_linearizable_reference(REGISTER, history))


# ----------------------------------------------------------------------
# Fingerprint-bearing specs: bank, lock, queue
# ----------------------------------------------------------------------


@st.composite
def bank_histories(draw):
    """Random bank histories over two accounts, including the coupling
    operations (transfer, total) that forbid partitioning — exercised
    whole-history, where memoization runs on BankSpec.fingerprint."""
    from repro.objects.bank import (
        balance, deposit, total, transfer, withdraw,
    )
    n_ops = draw(st.integers(min_value=1, max_value=6))
    entries = []
    for i in range(n_ops):
        start = draw(st.floats(min_value=0, max_value=30))
        duration = draw(st.floats(min_value=0.0, max_value=10))
        is_pending = draw(st.booleans()) and draw(st.booleans())
        account = draw(st.sampled_from(["a", "b"]))
        kind = draw(st.sampled_from(
            ["balance", "deposit", "withdraw", "transfer", "total"]
        ))
        amount = draw(st.integers(min_value=1, max_value=3))
        if kind == "balance":
            op = balance(account)
            response = draw(st.integers(min_value=0, max_value=4))
        elif kind == "deposit":
            op = deposit(account, amount)
            response = None
        elif kind == "withdraw":
            op = withdraw(account, amount)
            response = draw(st.sampled_from([0, amount]))
        elif kind == "transfer":
            op = transfer("a", "b", amount)
            response = draw(st.booleans())
        else:
            op = total()
            response = draw(st.integers(min_value=0, max_value=6))
        entries.append(
            HistoryEntry(
                op=op,
                response=None if is_pending else response,
                invoked_at=start,
                responded_at=None if is_pending else start + duration,
                pid=i,
            )
        )
    return entries


@st.composite
def lock_queue_histories(draw):
    """Random single-object lock or queue histories (the un-partitionable
    specs); their fingerprint hooks drive memoization here."""
    from repro.objects.lock import LockSpec, acquire, owner, release
    from repro.objects.queue import QueueSpec, dequeue, enqueue, peek

    use_lock = draw(st.booleans())
    n_ops = draw(st.integers(min_value=1, max_value=6))
    entries = []
    for i in range(n_ops):
        start = draw(st.floats(min_value=0, max_value=25))
        duration = draw(st.floats(min_value=0.0, max_value=10))
        is_pending = draw(st.booleans()) and draw(st.booleans())
        if use_lock:
            who = draw(st.sampled_from(["p", "q"]))
            kind = draw(st.sampled_from(["acquire", "release", "owner"]))
            if kind == "acquire":
                op, response = acquire(who), draw(st.booleans())
            elif kind == "release":
                op, response = release(who), draw(st.booleans())
            else:
                op = owner()
                response = draw(st.sampled_from([None, "p", "q"]))
        else:
            kind = draw(st.sampled_from(["enqueue", "dequeue", "peek"]))
            if kind == "enqueue":
                op = enqueue(draw(st.integers(min_value=0, max_value=2)))
                response = None
            else:
                op = dequeue() if kind == "dequeue" else peek()
                response = draw(st.sampled_from([None, 0, 1, 2]))
        entries.append(
            HistoryEntry(
                op=op,
                response=None if is_pending else response,
                invoked_at=start,
                responded_at=None if is_pending else start + duration,
                pid=i,
            )
        )
    spec = LockSpec() if use_lock else QueueSpec()
    return spec, entries


@given(bank_histories())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_bank_verdicts_match_reference(entries):
    from repro.objects.bank import BankSpec
    _assert_same_verdict(BankSpec(), entries)


@given(lock_queue_histories())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_lock_and_queue_verdicts_match_reference(spec_entries):
    spec, entries = spec_entries
    _assert_same_verdict(spec, entries)


def test_bank_partitioned_check_refused_when_transfer_present():
    """partition_by_key over a history containing an un-partitionable
    operation must refuse (undecided/error), never silently split."""
    import pytest
    from repro.objects.bank import BankSpec, deposit, transfer
    entries = [
        HistoryEntry(op=deposit("a", 2), response=None,
                     invoked_at=0.0, responded_at=1.0, pid=0),
        HistoryEntry(op=transfer("a", "b", 1), response=True,
                     invoked_at=2.0, responded_at=3.0, pid=1),
    ]
    with pytest.raises(ValueError):
        check_linearizable(BankSpec(), History(entries),
                           partition_by_key=True)

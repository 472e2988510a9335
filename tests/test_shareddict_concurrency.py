"""Barrier-based concurrency stress suite for the shared dictionaries.

The cluster-scoped interning tables (:mod:`repro.relational.shareddict`)
are mutated from concurrent request threads once a resident service keeps
many sessions alive over one cluster.  Interning is a
check-then-act sequence (probe ``code_of``, read ``len(values)``, publish
both), so without per-dictionary locks two threads can assign **two codes
to one value** or **one code to two values** — silently corrupting every
coded shipment that follows.  Likewise :func:`shared_dict_on` can build
and install two dictionaries for the same cluster key, splitting the
cluster's value↔code space in half.

Every test here drives the exact primitive through a thread barrier (all
threads released at once, with a tiny interpreter switch interval to
maximize interleavings) and then asserts the **bijectivity contract**:

* ``len(values) == len(code_of)`` — no duplicate appends;
* ``values[code_of[v]] == v`` for every interned value — codes decode to
  the value they were assigned for;
* every code any thread was handed equals the table's final code for that
  value — no thread ever shipped a code that later stopped meaning its
  value.

These tests demonstrably fail on the pre-lock implementation (PRs 3-6)
and must stay green forever after; they run in the CI chaos job.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.relational.shareddict import (
    SharedComboDictionary,
    SharedPairDictionary,
    shared_dict_on,
)

N_THREADS = 8
N_VALUES = 4000
#: re-align the walkers every this-many interns so all threads stay
#: contending on the *same fresh values*; measured on the pre-lock code
#: this lifts the corruption rate an order of magnitude (≈1.4 per 10^3
#: first-time interns), making every round fail with p ≈ 0.99
RESYNC_EVERY = 128
#: a handful of rounds pushes each stress test's pre-fix failure
#: probability past 99.99% while the whole (post-fix) suite stays fast
ROUNDS = 8


@pytest.fixture(autouse=True)
def _tight_thread_switching():
    """Shrink the bytecode-switch interval so interleavings actually happen.

    The default 5 ms interval lets a whole intern call finish inside one
    scheduling slice on a fast machine, hiding the race the suite exists
    to catch.
    """
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def hammer(n_threads: int, work) -> list:
    """Run ``work(thread_index)`` on ``n_threads`` barrier-released threads.

    Re-raises the first worker exception; returns the per-thread results.
    """
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def run(index: int) -> None:
        barrier.wait()
        try:
            results[index] = work(index)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    alive = [t for t in threads if t.is_alive()]
    assert not alive, f"{len(alive)} stress threads hung"
    if errors:
        raise errors[0]
    return results


def overlapping_values(_thread_index: int) -> list[str]:
    """Every thread interns the same value set, in the same order.

    Same-order walks keep all threads contending on the *same fresh
    value* at any moment — the adversarial schedule for a get-or-assign
    race (rotated or shuffled walks mostly intern disjoint values at any
    instant and hide it).
    """
    return [f"value-{i}" for i in range(N_VALUES)]


def lockstep(sync: threading.Barrier, position: int) -> None:
    """Re-align the walkers every ``RESYNC_EVERY`` interns.

    Without this the threads drift apart after a few hundred interns and
    stop probing the same fresh values; the 30 s timeout breaks the
    barrier (instead of hanging the suite) if a sibling thread dies.
    """
    if position % RESYNC_EVERY == 0:
        sync.wait(30)


def assert_bijective(code_of: dict, values: list, witnessed: list[dict]) -> None:
    """The shared-table contract every stress test checks."""
    assert len(values) == len(code_of), (
        f"table corrupted: {len(values)} appended values but "
        f"{len(code_of)} codes — a race double-appended"
    )
    for value, code in code_of.items():
        assert values[code] == value, (
            f"code {code} maps to {values[code]!r}, assigned for {value!r}"
        )
    for per_thread in witnessed:
        for value, code in per_thread.items():
            assert code_of[value] == code, (
                f"a thread shipped code {code} for {value!r} but the table "
                f"settled on {code_of[value]} — two codes for one value"
            )


def test_pair_dictionary_intern_x_y_is_bijective_under_threads():
    for _ in range(ROUNDS):
        shared = SharedPairDictionary(lhs_width=2)
        sync = threading.Barrier(N_THREADS)

        def work(index: int) -> tuple[dict, dict]:
            xs, ys = {}, {}
            for position, value in enumerate(overlapping_values(index)):
                lockstep(sync, position)
                x = (value, "x")
                y = (value,)
                xs[x] = shared.intern_x(x)
                ys[y] = shared.intern_y(y)
            return xs, ys

        results = hammer(N_THREADS, work)
        assert_bijective(
            shared.x_code_of, shared.x_values, [xs for xs, _ in results]
        )
        assert_bijective(
            shared.y_code_of, shared.y_values, [ys for _, ys in results]
        )


def test_combo_dictionary_intern_is_bijective_under_threads():
    for _ in range(ROUNDS):
        shared = SharedComboDictionary()
        sync = threading.Barrier(N_THREADS)

        def work(index: int) -> dict:
            intern = shared.intern
            witnessed = {}
            for position, value in enumerate(overlapping_values(index)):
                lockstep(sync, position)
                witnessed[(value, "combo")] = intern((value, "combo"))
            return witnessed

        witnessed = hammer(N_THREADS, work)
        assert_bijective(shared.code_of, shared.values, witnessed)


def test_translate_concurrent_with_interning_stays_consistent():
    """Site translations racing per-combination interning (the service's
    initial-run-vs-update overlap) must agree on every code."""
    for _ in range(ROUNDS):
        shared = SharedPairDictionary(lhs_width=1)
        combos = [((f"x{i % 500}",) + (f"y{i % 37}",)) for i in range(1500)]

        def work(index: int):
            if index % 2:
                # half the threads translate whole fragments...
                return ("pairs", shared.translate(index, combos))
            # ...the other half intern single delta combinations
            out = {}
            for combo in combos:
                out[combo] = (
                    shared.intern_x(combo[:1]),
                    shared.intern_y(combo[1:]),
                )
            return ("interned", out)

        results = hammer(N_THREADS, work)
        assert len(shared.x_values) == len(shared.x_code_of)
        assert len(shared.y_values) == len(shared.y_code_of)
        for kind, payload in results:
            if kind == "pairs":
                for combo, (x_code, y_code) in zip(combos, payload):
                    assert shared.x_values[x_code] == combo[:1]
                    assert shared.y_values[y_code] == combo[1:]
            else:
                for combo, (x_code, y_code) in payload.items():
                    assert shared.x_code_of[combo[:1]] == x_code
                    assert shared.y_code_of[combo[1:]] == y_code


class _Owner:
    """A plain (dict-carrying, weakref-able) cluster stand-in."""


def test_shared_dict_on_cache_creation_is_atomic():
    """All threads asking one owner for one key must get one dictionary."""
    for _ in range(ROUNDS):
        owner = _Owner()

        def work(index: int):
            return shared_dict_on(
                owner, ("pairs", "cfd1"), lambda: SharedPairDictionary(1)
            )

        results = hammer(N_THREADS, work)
        assert all(shared is results[0] for shared in results), (
            "shared_dict_on built more than one dictionary for the same "
            "cluster key — the cluster's value↔code space split"
        )


def test_shared_dict_on_many_keys_under_threads():
    """Each distinct key settles on exactly one dictionary, concurrently."""
    owner = _Owner()
    keys = [("pairs", f"cfd{i}") for i in range(64)]

    def work(index: int):
        return {
            key: shared_dict_on(owner, key, SharedComboDictionary)
            for key in keys
        }

    results = hammer(N_THREADS, work)
    for key in keys:
        first = results[0][key]
        assert all(per_thread[key] is first for per_thread in results)

"""Acceptance gate: every advertised guarantee, one test per criterion.

The suite builds its corpora once (200 pseudo-random closed webs, the
exhaustive list of non-elliptic webs for every admissible sign string
of length at most 8, the twelve-strand flower) and each test asserts
one criterion's verdict, printing the engine's summary line so the
log shows what was measured and how long it took.
"""

from __future__ import annotations

import pytest

import sl3web.verify
from sl3web.catalog import FLOWER_SIGNS, flower
from sl3web.errors import TheoremViolationError
from sl3web.verify import _characterisation_work, run_all


@pytest.fixture(scope="module")
def results():
    table = {r.number: r for r in run_all(max_boundary=8, jobs=1)}
    for r in table.values():
        print(r.line)
    return table


def check(results, number):
    r = results[number]
    print(r.line)
    assert not r.theorem_violation, r.detail
    assert r.ok, r.detail
    assert r.seconds <= r.budget


def test_criterion_1_bracket_axioms(results):
    check(results, 1)


def test_criterion_2_confluence_and_symmetry(results):
    check(results, 2)


def test_criterion_3_characterisation_boundary_up_to_8(results):
    check(results, 3)


def test_criterion_4_digon_arc_control(results):
    check(results, 4)


def test_criterion_5_flow_matches_brute_force(results):
    check(results, 5)


def test_criterion_6_admissible_red_graph_structure(results):
    check(results, 6)


def test_criterion_7_degree_bookkeeping(results):
    check(results, 7)


def test_criterion_8_face_colouring(results):
    check(results, 8)


def test_criterion_9_twelve_sign_stress_search(results):
    check(results, 9)


def test_criterion_3_accepts_the_decomposable_flower():
    # non-elliptic yet decomposable: the criterion asks for an exact red
    # graph and a decomposition instead of an indecomposable verdict
    assert _characterisation_work(FLOWER_SIGNS, [flower()]) == (1, 81, 1)


def test_criterion_3_needs_an_exact_red_graph(monkeypatch):
    monkeypatch.setattr(sl3web.verify, "find_exact_red_graph", lambda web: None)
    with pytest.raises(TheoremViolationError, match="no exact red graph"):
        _characterisation_work(FLOWER_SIGNS, [flower()])


def test_criterion_3_uses_at_most_one_process_per_core(monkeypatch):
    # a fake pool records its size; no real pool of that size is started
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sl3web.verify, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(sl3web.verify.os, "cpu_count", lambda: 3)
    detail = sl3web.verify._c3_characterisation(4, 3000)
    assert sizes == [3]
    assert "--jobs 3000 capped at 3, one process per core" in detail
    assert sl3web.verify._c3_characterisation(4, 2) == detail.split(";")[0]
    assert sizes == [3, 2]


def test_criterion_3_budget_grows_with_the_webs_per_worker(monkeypatch):
    monkeypatch.setattr(sl3web.verify.os, "cpu_count", lambda: 2)
    assert sl3web.verify._c3_budget(8, 1) == 600.0
    assert sl3web.verify._c3_budget(8, 2) == 600.0
    # a passing run at length 12 on 2 cores once took 460.6 s of a fixed 600
    assert sl3web.verify._c3_budget(12, 2) > 1.5 * 460.6
    assert sl3web.verify._c3_budget(12, 1) == 2 * sl3web.verify._c3_budget(12, 2)
    assert sl3web.verify._c3_budget(12, 3000) == sl3web.verify._c3_budget(12, 2)

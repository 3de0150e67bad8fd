"""End-to-end verification suite.

Each criterion exercises one advertised guarantee of the library on a
reproducible corpus: hand-built webs, the exhaustive list of
non-elliptic webs with short boundaries, a pseudo-random family of
closed webs, and the twelve-strand flower web.  A criterion fails on a
wrong answer or a blown time budget; contradictions with a proved
statement are reported as theorem violations so the command line can
exit loudly.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from random import Random

from . import catalog
from .bracket import (
    bracket,
    classify,
    collapse_digon,
    remove_circle,
    smooth_square,
    split_elliptic,
)
from .errors import TheoremViolationError
from .generate import (
    canonical_form,
    generate_all_non_elliptic,
    generate_closed,
    invariant_dimension,
)
from .laurent import LaurentPoly, quantum_integer
from .redgraph import (
    _reach,
    brute_force_fitting_orientation,
    count_fitting_orientations,
    decompose,
    dual_graph,
    enumerate_red_graphs,
    find_exact_red_graph,
    find_fitting_orientation,
    g_reduction,
    is_admissible,
    is_exact,
    minimal_admissible_subgraph,
    orientation_index_sum,
    projection_degree_shift,
)
from .web import face_colouring, find_elliptic_face, is_admissible_sequence, regions

CORPUS_SEED = 7041
CORPUS_SIZE = 200
# criterion 3's time budget: C3_SECONDS_PER_WEB for each non-elliptic web
# a worker checks, and at least C3_MIN_BUDGET.  Passing runs at boundary
# length 12 on 2 cores spent 0.4-1.0 ms per web and worker.
C3_SECONDS_PER_WEB = 0.002
C3_MIN_BUDGET = 600.0


@dataclass
class CriterionResult:
    number: int
    title: str
    ok: bool
    seconds: float
    budget: float
    detail: str
    theorem_violation: bool = False

    @property
    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return (
            f"criterion {self.number}: {mark} ({self.seconds:.1f}s / budget {self.budget:.0f}s) "
            f"{self.title}: {self.detail}"
        )


def _closed_corpus(size: int = CORPUS_SIZE):
    return generate_closed(size, seed=CORPUS_SEED)


def _sign_strings(max_boundary: int):
    for n in range(max_boundary + 1):
        for signs in itertools.product("+-", repeat=n):
            if is_admissible_sequence(signs):
                yield signs


# ---------------------------------------------------------------------------
# criteria


def _c1_axioms(closed):
    q3 = quantum_integer(3)
    q2 = quantum_integer(2)
    assert bracket(catalog.circle_web()) == q3
    assert bracket(catalog.empty_web()) == LaurentPoly.one()
    assert bracket(catalog.theta()) == q2 * q3
    assert bracket(catalog.circle_web(2)) == q3 * q3
    theta = catalog.theta()
    _kind, digon = find_elliptic_face(theta)
    assert bracket(theta) == q2 * bracket(collapse_digon(theta, digon))
    checked = {"circle": 0, "digon": 1, "square": 0}
    for web in closed:
        hit = find_elliptic_face(web)
        if hit is None:
            assert not web.vertices and not web.edges and not web.circles
            continue
        kind, face = hit
        if kind == "circle":
            assert bracket(web) == q3 * bracket(remove_circle(web))
        elif kind == "digon":
            assert bracket(web) == q2 * bracket(collapse_digon(web, face))
        else:
            a, b = smooth_square(web, face)
            assert bracket(web) == bracket(a) + bracket(b)
        checked[kind] += 1
    if not checked["square"]:
        for web in closed:
            for face in regions(web):
                if face.is_disk and face.side_count == 4 and not face.is_circle_interior:
                    a, b = smooth_square(web, face)
                    assert bracket(web) == bracket(a) + bracket(b)
                    checked["square"] += 1
    assert checked["square"] > 0, "no square faces in the corpus"
    return f"relation checks: {checked}"


def _c2_confluence(closed):
    orders = 0
    for i, web in enumerate(closed):
        reference = bracket(web)
        assert reference.is_symmetric(), web
        for k in range(20):
            rng = Random(1000 * i + k)
            assert bracket(web, rng=rng) == reference
            orders += 1
    return f"{len(closed)} webs x 20 orders = {orders} evaluations, all equal and symmetric"


def _characterisation_work(signs, webs=None):
    """Check the characterisation on the non-elliptic webs over `signs`:
    a decomposable verdict needs an exact red graph and a decomposition
    along it, an indecomposable one admits no admissible red graph."""
    if webs is None:
        webs = generate_all_non_elliptic(signs)
    red_count = 0
    decomposable = 0
    for web in webs:
        vc = classify(web)
        for red in enumerate_red_graphs(web, dual_graph(web)):
            red_count += 1
            if vc.indecomposable and is_admissible(red):
                raise TheoremViolationError(
                    f"admissible red graph {red.faces} on an indecomposable "
                    f"non-elliptic web over {''.join(signs)}"
                )
        if vc.indecomposable:
            continue
        decomposable += 1
        if find_exact_red_graph(web) is None:
            raise TheoremViolationError(
                f"decomposable non-elliptic web over {''.join(signs)} with bracket "
                f"{vc.poly} has no exact red graph"
            )
        if not decompose(web).factors:
            raise TheoremViolationError(
                f"decomposable non-elliptic web over {''.join(signs)} decomposed into nothing"
            )
    return len(webs), red_count, decomposable


def _workers(jobs: int) -> int:
    # more workers than cores gain nothing, and a fork pool starts them all at once
    return min(jobs, os.cpu_count() or 1)


def _c3_budget(max_boundary: int, jobs: int) -> float:
    """Seconds allowed for criterion 3, in proportion to the webs it
    checks per worker."""
    webs = sum(invariant_dimension(signs) for signs in _sign_strings(max_boundary))
    return max(C3_MIN_BUDGET, C3_SECONDS_PER_WEB * webs / _workers(jobs))


def _c3_characterisation(max_boundary: int, jobs: int, ne_corpus=None):
    strings = list(_sign_strings(max_boundary))
    workers = _workers(jobs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_characterisation_work, strings))
    else:
        counts = [
            _characterisation_work(signs, None if ne_corpus is None else ne_corpus[signs])
            for signs in strings
        ]
    total_webs, total_red, total_decomposable = map(sum, zip((0, 0, 0), *counts))
    return (
        f"{len(strings)} sign strings, {total_webs} non-elliptic webs "
        f"({total_decomposable} decomposable), {total_red} red graphs, 0 counterexamples"
        + (f"; --jobs {jobs} capped at {workers}, one process per core" if workers < jobs else "")
    )


def _c4_digon_arc():
    web = catalog.digon_arc()
    vc = classify(web)
    assert not vc.indecomposable and vc.level == 1, vc
    reds = list(enumerate_red_graphs(web))
    assert len(reds) == 1, [r.faces for r in reds]
    red = reds[0]
    assert is_admissible(red) and red.level == 1
    assert find_fitting_orientation(red) is not None
    assert brute_force_fitting_orientation(red) is not None
    assert count_fitting_orientations(red) == 1
    reduced = g_reduction(web, red)
    assert web.vertex_count - reduced.vertex_count == 2
    assert canonical_form(reduced) == canonical_form(catalog.arc())
    shifts = sorted(s for _w, s in split_elliptic(web))
    assert shifts == [-1, 1], shifts
    dec = decompose(web)
    assert dec.complete
    assert sorted(s for _w, s in dec.factors) == [-1, 1]
    assert all(canonical_form(w) == canonical_form(catalog.arc()) for w, _s in dec.factors)
    return "one red graph, admissible, level 1, one fitting orientation, reduces to the arc, shifts {-1,+1}"


def _red_graph_pool(max_boundary: int, ne_corpus):
    """Every red graph of every corpus web, flagged by whether its web
    is non-elliptic (the structural theorems only speak about those)."""
    pool = []
    for signs in _sign_strings(max_boundary):
        for web in ne_corpus[signs]:
            dual = dual_graph(web)
            for red in enumerate_red_graphs(web, dual):
                pool.append((web, red, True))
    flower = catalog.flower()
    dual = dual_graph(flower)
    for red in enumerate_red_graphs(flower, dual):
        pool.append((flower, red, True))
    web = catalog.digon_arc()
    for red in enumerate_red_graphs(web):
        pool.append((web, red, False))
    return pool


def _c5_flow_vs_brute(pool):
    checked = 0
    skipped = 0
    for _web, red, _ne in pool:
        if len(red.edges) > 16:
            skipped += 1
            continue
        flow = find_fitting_orientation(red)
        brute = brute_force_fitting_orientation(red)
        assert (flow is None) == (brute is None), red.faces
        checked += 1
    assert checked > 0
    return f"{checked} red graphs agree, {skipped} skipped for size"


def _girth(red) -> int | None:
    """Shortest cycle length in the red graph, None if acyclic.
    Parallel edges count as 2-cycles."""
    links = Counter(tuple(sorted(red.dual.sides[i])) for i in red.edges)
    if any(n > 1 for n in links.values()):
        return 2
    neighbours: dict[int, list[int]] = {f: [] for f in red.faces}
    for a, b in links:
        neighbours[a].append(b)
        neighbours[b].append(a)
    best = None
    for src in red.faces:
        dist = {src: 0}
        parent = {src: None}
        queue = [src]
        for u in queue:
            for v in neighbours[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cycle = dist[u] + dist[v] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def _c6_structure(pool):
    admissible = 0
    minimal_checked = 0
    girth_checked = 0
    for _web, red, non_elliptic in pool:
        if not non_elliptic:
            continue
        g = _girth(red)
        if g is not None:
            girth_checked += 1
            assert g >= 6, (red.faces, g)
        if not is_admissible(red):
            continue
        admissible += 1
        assert red.is_fair()
        assert len(red.faces) >= 2
        assert len(red.edges) >= 2
        assert _girth(red) is not None, "admissible red graph is a forest"
        minimal = minimal_admissible_subgraph(red)
        minimal_checked += 1
        assert is_exact(minimal), minimal.faces
        # strongly connected: one face reaches every face, forwards and backwards
        orientation = find_fitting_orientation(minimal)
        reverse = {i: (head, tail) for i, (tail, head) in orientation.items()}
        start = minimal.faces[0]
        everything = frozenset(minimal.faces)
        assert _reach(minimal, orientation, start) == everything, minimal.faces
        assert _reach(minimal, reverse, start) == everything, minimal.faces
    assert admissible > 0, "structure checks were vacuous"
    return (
        f"girth>=6 on {girth_checked} cyclic red graphs; {admissible} admissible, "
        f"{minimal_checked} minimal ones exact and strongly connected"
    )


def _c7_degrees(pool):
    rng = Random(99)
    checked = 0
    for _web, red, _ne in pool:
        assert projection_degree_shift(red) == 2 * red.level
        for _ in range(3):
            orientation = {
                i: (a, b) if rng.random() < 0.5 else (b, a)
                for i, (a, b) in ((j, red.dual.sides[j]) for j in red.edges)
            }
            assert orientation_index_sum(red, orientation) == red.level
        if is_admissible(red):
            assert (projection_degree_shift(red) == 0) == is_exact(red)
        checked += 1
    return f"{checked} red graphs: shift = 2*level, level orientation-independent"


def _c8_colouring(webs):
    checked = 0
    for web in webs:
        colouring = face_colouring(web, 0)
        for (a, b) in dual_graph(web).sides:
            assert colouring[a] != colouring[b]
        shifted = face_colouring(web, 1)
        assert all(
            shifted[r.id] == (colouring[r.id] + 1) % 3 for r in regions(web)
        )
        checked += 1
    return f"{checked} webs: adjacent regions coloured differently, base shifts pointwise"


def _c9_stress():
    flower = catalog.flower()
    exact = find_exact_red_graph(flower)
    assert exact is not None and exact.level == 0
    vc = classify(flower)
    assert not vc.indecomposable
    assert count_fitting_orientations(exact) >= 1
    witness = (
        f"hand-built witness: exact red graph on faces {exact.faces}, "
        f"lambda {count_fitting_orientations(exact)}, bracket degree "
        f"{vc.poly.degree} with leading coefficient {vc.poly.leading_coefficient}"
    )
    webs = generate_all_non_elliptic(catalog.FLOWER_SIGNS)
    hit = None
    for web in sorted(webs, key=lambda w: w.vertex_count):
        red = find_exact_red_graph(web)
        if red is not None:
            hit = (web, red)
            break
    assert hit is not None, "no web over the twelve-sign string admits an exact red graph"
    web, red = hit
    vc = classify(web)
    assert not vc.indecomposable
    assert count_fitting_orientations(red) >= 1
    same = canonical_form(web) == canonical_form(flower)
    return (
        f"searched {len(webs)} webs, found {web.vertex_count}-vertex witness "
        f"(matches the hand-built one: {same}), exact red graph on {len(red.faces)} faces, "
        f"lambda {count_fitting_orientations(red)}; {witness}"
    )


# ---------------------------------------------------------------------------
# driver


def run_all(
    max_boundary: int = 8,
    jobs: int = 1,
    corpus_size: int = CORPUS_SIZE,
) -> list[CriterionResult]:
    closed = _closed_corpus(corpus_size)
    ne_corpus = {signs: generate_all_non_elliptic(signs) for signs in _sign_strings(min(max_boundary, 8))}
    results = []

    def run(number, title, budget, fn, *args):
        t0 = time.monotonic()
        try:
            detail = fn(*args)
            ok = True
            violation = False
        except TheoremViolationError as exc:
            detail = f"THEOREM VIOLATION: {exc}"
            ok = False
            violation = True
        except AssertionError as exc:
            detail = f"failed: {exc}"
            ok = False
            violation = False
        dt = time.monotonic() - t0
        if ok and dt > budget:
            ok = False
            detail += f" [over budget: {dt:.1f}s]"
        results.append(CriterionResult(number, title, ok, dt, budget, detail, violation))

    run(1, "bracket axioms", 1.0, _c1_axioms, closed)
    run(2, "confluence and symmetry", 30.0, _c2_confluence, closed)
    run(
        3,
        "characterisation at short boundaries",
        _c3_budget(max_boundary, jobs),
        _c3_characterisation,
        max_boundary,
        jobs,
        ne_corpus if max_boundary <= 8 else None,
    )
    run(4, "digon-arc control", 1.0, _c4_digon_arc)
    pool = _red_graph_pool(min(max_boundary, 8), ne_corpus)
    run(5, "flow matches brute force", 60.0, _c5_flow_vs_brute, pool)
    run(6, "structure of admissible red graphs", 60.0, _c6_structure, pool)
    run(7, "degree bookkeeping", 5.0, _c7_degrees, pool)
    colour_webs = closed + [catalog.flower(), catalog.digon_arc(), catalog.cube()]
    run(8, "face colouring", 5.0, _c8_colouring, colour_webs)
    run(9, "decomposable web search at twelve signs", 60.0, _c9_stress)
    return results

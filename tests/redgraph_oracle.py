"""Slow versions of sl3web.redgraph's red-graph searches, kept as
independent test oracles.

`enumerate_red_graphs` is the recursive enumeration used before the walk
ran on an explicit stack.  Each red graph is built from its faces alone,
so its red edges come from a scan of every dual edge, and its index is
computed from the excesses ed(f) = deg_D(f) - 2 deg_G(f) rather than from
the degree sum.  `minimal_admissible_subgraph` is the subset scan used
before the scan read indices off face bitmasks: it builds a red graph for
every subset.  `find_exact_red_graph` is the exact-red-graph search used
before the walk was bounded by the index: it scores every red graph, then
shrinks the best one with that scan.
"""

from __future__ import annotations

import itertools

from sl3web.errors import SizeGuardError, TheoremViolationError
from sl3web.redgraph import (
    MINIMAL_SCAN_FACE_LIMIT,
    RedGraph,
    _reach,
    dual_graph,
    find_fitting_orientation,
    is_admissible,
)
from sl3web.web import _elliptic_face


def enumerate_red_graphs(dual):
    """Every red graph of the dual graph, include-first over the disk
    faces, with the corner rule checked incrementally."""
    disk = dual.disk_faces()
    by_face: dict[int, list[int]] = {f: [] for f in disk}
    for vid, corners in dual.corners.items():
        for c in corners:
            if c in by_face:
                by_face[c].append(vid)
    count = {vid: 0 for vid in dual.corners}

    def rec(i: int, chosen: list[int]):
        if i == len(disk):
            if chosen:
                yield RedGraph(dual, chosen)
            return
        f = disk[i]
        blocked = False
        for vid in by_face[f]:
            count[vid] += 1
            if count[vid] > 2:
                blocked = True
        if not blocked:
            chosen.append(f)
            yield from rec(i + 1, chosen)
            chosen.pop()
        for vid in by_face[f]:
            count[vid] -= 1
        yield from rec(i + 1, chosen)

    yield from rec(0, [])


def level(red: RedGraph) -> int:
    """The index I(G) = 2|F| - |E| - (1/2) sum ed(f)."""
    return 2 * len(red.faces) - len(red.edges) - sum(red.ed(f) for f in red.faces) // 2


def minimal_admissible_subgraph(red: RedGraph) -> RedGraph:
    """A minimal admissible red graph inside an admissible one: shrinks
    along out-reachable face sets, then builds every subset smallest-first
    and returns the first one of index >= 0 with a fitting orientation."""
    orientation = find_fitting_orientation(red)
    if orientation is None:
        raise ValueError("minimal_admissible_subgraph needs an admissible red graph")
    while True:
        smallest = min((_reach(red, orientation, f) for f in red.faces), key=len)
        if len(smallest) == len(red.faces):
            break
        red = RedGraph(red.dual, smallest)
        orientation = {i: d for i, d in orientation.items() if i in set(red.edges)}
    if len(red.faces) > MINIMAL_SCAN_FACE_LIMIT:
        raise SizeGuardError(
            f"{len(red.faces)} faces after shrinking; subset scan capped at "
            f"{MINIMAL_SCAN_FACE_LIMIT}"
        )
    for size in range(1, len(red.faces)):
        for combo in itertools.combinations(red.faces, size):
            candidate = RedGraph(red.dual, combo)
            if candidate.level >= 0 and find_fitting_orientation(candidate) is not None:
                return candidate
    return red


def find_exact_red_graph(web):
    """An exact red graph of a non-elliptic web, or None: scans every red
    graph, takes the first admissible one of maximal index and shrinks it
    to a minimal admissible subgraph, with the same cross-checks as
    sl3web.redgraph.find_exact_red_graph."""
    dual = dual_graph(web)
    if _elliptic_face(dual) is not None:
        raise ValueError("find_exact_red_graph expects a non-elliptic web")
    best = None
    max_nonneg = None
    for g in enumerate_red_graphs(dual):
        if g.level >= 0 and (max_nonneg is None or g.level > max_nonneg):
            max_nonneg = g.level
        if is_admissible(g) and (best is None or g.level > best.level):
            best = g
    if best is None:
        if max_nonneg is not None:
            raise TheoremViolationError(
                f"a red graph of index {max_nonneg} >= 0 exists but none is admissible"
            )
        return None
    if max_nonneg is not None and max_nonneg > best.level:
        raise TheoremViolationError(
            f"red graph of index {max_nonneg} exists but the best admissible "
            f"index is {best.level}"
        )
    minimal = minimal_admissible_subgraph(best)
    if minimal.level != 0:
        raise TheoremViolationError(
            f"minimal admissible red graph has index {minimal.level}, not 0"
        )
    return minimal

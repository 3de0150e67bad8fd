"""Slow versions of sl3web.redgraph's red-graph searches, kept as
independent test oracles.

`enumerate_red_graphs` is the recursive enumeration used before the walk
ran on an explicit stack.  Each red graph is built from its faces alone,
so its red edges come from a scan of every dual edge, and its index is
computed from the excesses ed(f) = deg_D(f) - 2 deg_G(f) rather than from
the degree sum.  `find_exact_red_graph` is the exact-red-graph search
used before the walk was bounded by the index: it scores every red graph.
"""

from __future__ import annotations

from sl3web.errors import TheoremViolationError
from sl3web.redgraph import RedGraph, dual_graph, is_admissible, minimal_admissible_subgraph
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


def find_exact_red_graph(web):
    """An exact red graph of a non-elliptic web, or None: scans every red
    graph, takes the first admissible one of maximal index and shrinks it
    to a minimal admissible subgraph, with the same cross-checks as
    sl3web.redgraph.find_exact_red_graph."""
    dual = dual_graph(web)
    if _elliptic_face(dual.table) is not None:
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

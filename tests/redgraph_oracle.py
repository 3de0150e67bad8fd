"""The recursive red-graph enumeration that sl3web.redgraph used before
it ran on an explicit stack, kept as an independent test oracle.

Each red graph is built from its faces alone, so its red edges come from
a scan of every dual edge, and its index is computed from the excesses
ed(f) = deg_D(f) - 2 deg_G(f) rather than from the degree sum.
"""

from __future__ import annotations

from sl3web.redgraph import RedGraph


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

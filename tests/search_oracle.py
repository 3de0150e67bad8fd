"""The search generator that sl3web.generate used before growth by the
Khovanov–Kuperberg bijection, kept as an independent test oracle.

Non-elliptic webs over a sign string are built bottom-up with a frontier
sweep.  The frontier holds the loose strand ends; a move either caps two
adjacent opposite strands, joins two adjacent like strands in a new
vertex, or bridges two adjacent opposite strands with a rung (an H).
Every non-elliptic web admits such a construction: a non-elliptic web
always carries a cap, a join vertex or an H against its border, and
peeling it off keeps the web non-elliptic, so reversing the peeling
order rebuilds the web with these three moves.

Each gap between neighbouring frontier strands tracks how many edges its
region has accumulated, so a branch is pruned the moment a move would
seal a face with fewer than six sides.  Gaps that touch the border are
flagged: sealing those makes border regions, which may be small.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from sl3web.errors import SizeGuardError
from sl3web.generate import canonical_form, invariant_dimension
from sl3web.web import MINUS, PLUS, SINK, SOURCE, Web, is_admissible_sequence, make_web


@dataclass(frozen=True)
class _State:
    vertices: tuple  # (vid, kind, rotation) so far
    edges: tuple  # completed (tail, head) pairs
    frontier: tuple  # (anchor half below, sign) left to right
    gaps: tuple  # (sides, touches_border), len(frontier) + 1


def _flip(sign: str) -> str:
    return MINUS if sign == PLUS else PLUS


def _complete(anchor: int, sign: str, at_vertex: int) -> tuple[int, int]:
    """Finish a partial edge at a new vertex half; '+' strands point up
    (tail below), '-' strands point down (head below)."""
    return (anchor, at_vertex) if sign == PLUS else (at_vertex, anchor)


def _moves(state: _State, budget: int, nsigns: int):
    """Yield successor states within the vertex budget."""
    f = state.frontier
    gaps = state.gaps
    base = nsigns + len(state.vertices) * 3  # every vertex owns three halves
    vid = len(state.vertices)
    for i in range(len(f) - 1):
        (a_l, s_l), (a_r, s_r) = f[i], f[i + 1]
        inner_sides, inner_border = gaps[i + 1]
        if s_l != s_r:
            # cap: the two stubs become one edge arching over the sealed gap
            if inner_border or inner_sides + 1 > 4:
                edge = (a_l, a_r) if s_l == PLUS else (a_r, a_l)
                merged = (gaps[i][0] + gaps[i + 2][0] + 1, gaps[i][1] or gaps[i + 2][1])
                yield _State(
                    state.vertices,
                    state.edges + (edge,),
                    f[:i] + f[i + 2 :],
                    gaps[:i] + (merged,) + gaps[i + 3 :],
                )
            # H: two new vertices joined by a rung, stubs continue swapped
            if len(state.vertices) + 2 <= budget and (inner_border or inner_sides + 3 > 4):
                rungl, upl, hl, upr, rungr, hr = range(base, base + 6)
                if s_l == PLUS:
                    u = (vid, SINK, (rungl, upl, hl))
                    v = (vid + 1, SOURCE, (upr, rungr, hr))
                    rung = (rungr, rungl)
                else:
                    u = (vid, SOURCE, (rungl, upl, hl))
                    v = (vid + 1, SINK, (upr, rungr, hr))
                    rung = (rungl, rungr)
                yield _State(
                    state.vertices + (u, v),
                    state.edges
                    + (_complete(a_l, s_l, hl), _complete(a_r, s_r, hr), rung),
                    f[:i] + ((upl, s_r), (upr, s_l)) + f[i + 2 :],
                    gaps[:i]
                    + (
                        (gaps[i][0] + 1, gaps[i][1]),
                        (1, False),
                        (gaps[i + 2][0] + 1, gaps[i + 2][1]),
                    )
                    + gaps[i + 3 :],
                )
        else:
            # join: both strands run into one new vertex, one stub leaves
            if len(state.vertices) + 1 <= budget and (inner_border or inner_sides + 2 > 4):
                up, hl, hr = base, base + 1, base + 2
                kind = SINK if s_l == PLUS else SOURCE
                v = (vid, kind, (up, hl, hr))
                yield _State(
                    state.vertices + (v,),
                    state.edges + (_complete(a_l, s_l, hl), _complete(a_r, s_r, hr)),
                    f[:i] + ((up, _flip(s_l)),) + f[i + 2 :],
                    gaps[:i]
                    + (
                        (gaps[i][0] + 1, gaps[i][1]),
                        (gaps[i + 2][0] + 1, gaps[i + 2][1]),
                    )
                    + gaps[i + 3 :],
                )


def _relabel(boundary_halves, frontier_anchors, vertices, edges):
    """Deterministic relabelling by breadth-first traversal seeded from
    the border (and frontier, for partial webs)."""
    partner = {}
    for t, h in edges:
        partner[t] = h
        partner[h] = t
    rot_of: dict[int, tuple] = {}
    vert_of: dict[int, int] = {}
    for vid, _k, rot in vertices:
        for h in rot:
            rot_of[h] = rot
            vert_of[h] = vid
    label: dict[int, int] = {}

    def assign(h):
        if h not in label:
            label[h] = len(label)

    queue = []
    for h in boundary_halves:
        assign(h)
        queue.append(h)
    for a in frontier_anchors:
        assign(a)
        queue.append(a)
    seen_v = set()
    k = 0
    while k < len(queue):
        h = queue[k]
        k += 1
        p = partner.get(h)
        if p is None:
            continue
        assign(p)
        v = vert_of.get(p)
        if v is not None and v not in seen_v:
            seen_v.add(v)
            rot = rot_of[p]
            j = rot.index(p)
            for x in (rot[(j + 1) % 3], rot[(j + 2) % 3]):
                assign(x)
                queue.append(x)
    return label


def _cyc(rot: tuple) -> tuple:
    k = min(range(len(rot)), key=lambda i: rot[i])
    return rot[k:] + rot[:k]


def _state_key(state: _State, nsigns: int):
    """Fingerprint that collides exactly when two histories have built
    the same partial picture with the same frontier and gap data."""
    label = _relabel(
        range(nsigns), (a for a, _s in state.frontier), state.vertices, state.edges
    )
    vs = tuple(
        sorted(
            (min(label[h] for h in rot), kind, _cyc(tuple(label[h] for h in rot)))
            for _vid, kind, rot in state.vertices
        )
    )
    es = tuple(sorted((label[t], label[h]) for t, h in state.edges))
    fr = tuple((label[a], s) for a, s in state.frontier)
    return (vs, es, fr, state.gaps)


def generate_non_elliptic(
    signs,
    max_vertices: int,
    deadline: float | None = None,
) -> list[Web]:
    """All non-elliptic webs with the given boundary signs and at most
    max_vertices vertices, one representative per isomorphism class.

    Raises SizeGuardError when `deadline` (a time.monotonic() value)
    passes before the search space is exhausted.
    """
    signs = tuple(signs)
    if not is_admissible_sequence(signs):
        return []
    n = len(signs)
    start = _State(
        vertices=(),
        edges=(),
        frontier=tuple(enumerate(signs)),
        gaps=tuple((0, True) for _ in range(n + 1)),
    )
    seen = {_state_key(start, n)}
    stack = [start]
    found: dict = {}
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            raise SizeGuardError("generation budget exhausted")
        state = stack.pop()
        if not state.frontier:
            web = make_web(
                boundary=[(i, s) for i, s in enumerate(signs)],
                vertices=state.vertices,
                edges=state.edges,
            )
            found.setdefault(canonical_form(web), web)
            continue
        for nxt in _moves(state, max_vertices, n):
            key = _state_key(nxt, n)
            if key not in seen:
                seen.add(key)
                stack.append(nxt)
    return [found[k] for k in sorted(found)]


def generate_all_non_elliptic(signs, deadline: float | None = None) -> list[Web]:
    """Provably all non-elliptic webs over the signs, up to isomorphism.

    Doubles the vertex budget until the number of webs found reaches
    the invariant dimension, which it can never exceed (webs are a
    basis); exceeding it raises TheoremViolationError, falling short
    forever raises SizeGuardError at the deadline.
    """
    from sl3web.errors import TheoremViolationError

    signs = tuple(signs)
    want = invariant_dimension(signs)
    if not is_admissible_sequence(signs):
        return []
    bound = max(4, len(signs))
    while True:
        webs = generate_non_elliptic(signs, bound, deadline=deadline)
        if len(webs) > want:
            raise TheoremViolationError(
                f"{len(webs)} non-elliptic webs over {''.join(signs)} "
                f"but the invariant space has dimension {want}"
            )
        if len(webs) == want:
            return webs
        bound *= 2

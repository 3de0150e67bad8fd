"""Generation of webs.

Non-elliptic webs over a sign string are in bijection with the dominant
lattice paths that invariant_dimension counts (Khovanov–Kuperberg, "Web
bases for sl(3) are not dual canonical", arXiv:q-alg/9712046; see also
Tymoczko, arXiv:1005.5231).  Each boundary point gets a state 1, 0 or
-1; in fundamental-weight coordinates a '+' step adds (1,0), (-1,1) or
(0,-1) and a '-' step adds (0,1), (1,-1) or (-1,0) for these states.  A
state string is dominant when both coordinates stay nonnegative and the
path ends at (0,0).

Each dominant state string grows into its web bottom-up.  The frontier
holds the loose strand ends with their signs and states; at every step
the leftmost adjacent pair whose left state exceeds the right one is
closed off by one of three rules:

- arc: opposite signs with states (1,-1) become a cap;
- Y: like signs run into one new vertex, and the strand leaving it has
  the flipped sign and state 1 for (1,0), -1 for (0,-1), 0 for (1,-1);
- H: opposite signs with states (1,0) or (0,-1) are bridged by a rung,
  and the two strands continue with swapped signs and states (0,1) or
  (-1,0) respectively.

Every rule keeps the frontier's state string dominant, so growth stops
only at the empty frontier; a stuck frontier is a theorem violation.
"""

from __future__ import annotations

from random import Random

from .errors import SizeGuardError, TheoremViolationError
from .web import MINUS, PLUS, SINK, SOURCE, Web, _min_rotation, closure, is_admissible_sequence, make_web

# (state, weight change) of a step, per sign
_STEPS = {
    PLUS: ((1, (1, 0)), (0, (-1, 1)), (-1, (0, -1))),
    MINUS: ((1, (0, 1)), (0, (1, -1)), (-1, (-1, 0))),
}


def _complete(anchor: int, sign: str, at_vertex: int) -> tuple[int, int]:
    """Finish a partial edge at a new vertex half; '+' strands point up
    (tail below), '-' strands point down (head below)."""
    return (anchor, at_vertex) if sign == PLUS else (at_vertex, anchor)


def _dominant_paths(signs):
    """Yield every dominant state string over the signs as a tuple."""
    n = len(signs)
    # alive[i]: the weights after i steps from which (0,0) is reachable
    alive = [set() for _ in range(n)] + [{(0, 0)}]
    for i in range(n - 1, -1, -1):
        for a, b in alive[i + 1]:
            for _state, (da, db) in _STEPS[signs[i]]:
                if a >= da and b >= db:
                    alive[i].add((a - da, b - db))
    stack = [((0, 0), ())] if (0, 0) in alive[0] else []
    while stack:
        (a, b), states = stack.pop()
        i = len(states)
        if i == n:
            yield states
            continue
        for state, (da, db) in _STEPS[signs[i]]:
            weight = (a + da, b + db)
            if weight in alive[i + 1]:
                stack.append((weight, states + (state,)))


def _grow(signs, states) -> Web:
    """The non-elliptic web of a dominant state string."""
    n = len(signs)
    frontier = [(h, s, t) for h, (s, t) in enumerate(zip(signs, states))]
    vertices: list = []
    edges: list = []
    i = 0
    while frontier:
        while i + 1 < len(frontier) and frontier[i][2] <= frontier[i + 1][2]:
            i += 1
        if i + 1 == len(frontier):
            raise TheoremViolationError(
                f"growth of {''.join(signs)} with states {states} got stuck"
            )
        (a_l, s_l, t_l), (a_r, s_r, t_r) = frontier[i], frontier[i + 1]
        base = n + len(vertices) * 3  # every vertex owns three halves
        vid = len(vertices)
        if s_l == s_r:
            # Y: both strands run into one new vertex, one stub leaves
            up, hl, hr = base, base + 1, base + 2
            vertices.append((vid, SINK if s_l == PLUS else SOURCE, (up, hl, hr)))
            edges += (_complete(a_l, s_l, hl), _complete(a_r, s_r, hr))
            frontier[i : i + 2] = [(up, MINUS if s_l == PLUS else PLUS, t_l + t_r)]
        elif t_l - t_r == 2:
            # arc: the two stubs become one edge
            edges.append((a_l, a_r) if s_l == PLUS else (a_r, a_l))
            del frontier[i : i + 2]
        else:
            # H: two new vertices joined by a rung, stubs continue swapped
            rungl, upl, hl, upr, rungr, hr = range(base, base + 6)
            if s_l == PLUS:
                vertices += [(vid, SINK, (rungl, upl, hl)), (vid + 1, SOURCE, (upr, rungr, hr))]
                rung = (rungr, rungl)
            else:
                vertices += [(vid, SOURCE, (rungl, upl, hl)), (vid + 1, SINK, (upr, rungr, hr))]
                rung = (rungl, rungr)
            edges += (_complete(a_l, s_l, hl), _complete(a_r, s_r, hr), rung)
            frontier[i : i + 2] = [(upl, s_r, t_r), (upr, s_l, t_l)]
        i = max(i - 1, 0)  # pairs further left were checked and are unchanged
    return make_web(boundary=enumerate(signs), vertices=vertices, edges=edges)


def _relabel(start, vertices, edges):
    """Deterministic relabelling by breadth-first traversal seeded from
    the given half-edges."""
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
    for h in start:
        assign(h)
        queue.append(h)
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


def canonical_form(web: Web):
    """A relabelling-invariant fingerprint of a web.

    Canonical for webs all of whose components touch the border (which
    covers every non-elliptic web with boundary: any closed non-elliptic
    web is empty).  Closed components make the result merely
    deterministic, which is all the random closed corpus needs.
    """
    label = _relabel((h for h, _s in web.boundary), web.vertices, web.edges)
    for vid, _kind, rot in web.vertices:
        for h in rot:
            if h not in label:
                extra = _relabel((h,), web.vertices, web.edges)
                for x, v in sorted(extra.items(), key=lambda kv: kv[1]):
                    if x not in label:
                        label[x] = len(label)
    vs = tuple(
        sorted(
            (min(label[h] for h in rot), kind, _min_rotation(tuple(label[h] for h in rot)))
            for _vid, kind, rot in web.vertices
        )
    )
    es = tuple(sorted((label[t], label[h]) for t, h in web.edges))
    return (web.signs, vs, es, web.circles)


# webs one sign string may grow: its invariant dimension
MAX_WEBS = 200_000


def generate_non_elliptic(signs, max_vertices: int | None = None) -> list[Web]:
    """All non-elliptic webs with the given boundary signs, one per
    isomorphism class, sorted by canonical form; with max_vertices, only
    those with at most that many vertices.

    Grows one web per dominant state string.  Two strings growing the
    same web raise TheoremViolationError (the growth is a bijection), as
    does a count of grown webs other than the invariant dimension (the
    webs are a basis).  Signs with more than MAX_WEBS webs raise
    SizeGuardError before any is grown.
    """
    signs = tuple(signs)
    if not is_admissible_sequence(signs):
        return []
    want = invariant_dimension(signs)
    if want > MAX_WEBS:
        raise SizeGuardError(f"{want} webs over {''.join(signs)}; generation is capped at {MAX_WEBS}")
    found: dict = {}
    for states in _dominant_paths(signs):
        web = _grow(signs, states)
        key = canonical_form(web)
        if key in found:
            raise TheoremViolationError(
                f"two state strings over {''.join(signs)} grow the same web"
            )
        found[key] = web
    if len(found) != want:
        raise TheoremViolationError(
            f"{len(found)} non-elliptic webs over {''.join(signs)} "
            f"but the invariant space has dimension {want}"
        )
    return [
        found[k]
        for k in sorted(found)
        if max_vertices is None or found[k].vertex_count <= max_vertices
    ]


def invariant_dimension(signs) -> int:
    """Dimension of the sl3-invariant space of the tensor product of
    fundamental representations selected by the signs.

    Counts lattice paths: '+' adds a box to one row of a 3-row Young
    diagram, '-' adds a box to two distinct rows, full columns are
    struck; the coefficient of the empty diagram at the end is the
    dimension.  Webs with this boundary form a basis of that space, so
    this is the exact number of non-elliptic webs over the signs.
    """
    state = {(0, 0, 0): 1}
    for s in signs:
        nxt: dict = {}
        steps = ((0,), (1,), (2,)) if s == PLUS else ((0, 1), (0, 2), (1, 2))
        for lam, m in state.items():
            for idx in steps:
                mu = list(lam)
                for i in idx:
                    mu[i] += 1
                if mu[0] >= mu[1] >= mu[2]:
                    c = mu[2]
                    key = (mu[0] - c, mu[1] - c, mu[2] - c)
                    nxt[key] = nxt.get(key, 0) + m
        state = nxt
    return state.get((0, 0, 0), 0)


def generate_all_non_elliptic(signs) -> list[Web]:
    """Provably all non-elliptic webs over the signs, up to isomorphism:
    generate_non_elliptic with no vertex bound, whose count of webs is
    checked against the invariant dimension."""
    return generate_non_elliptic(signs)


# ---------------------------------------------------------------------------
# random closed webs


def inflate_edge(web: Web, edge_index: int) -> Web:
    """Replace an edge by the same edge interrupted by a digon."""
    t, h = web.edges[edge_index]
    base = (
        max(
            [x for e in web.edges for x in e]
            + [bh for bh, _s in web.boundary]
            + [x for _v, _k, r in web.vertices for x in r],
            default=0,
        )
        + 1
    )
    a1, a2, a3, b1, b2, b3 = range(base, base + 6)
    vid = max([v for v, _k, _r in web.vertices], default=0) + 1
    vertices = list(web.vertices) + [
        (vid, SINK, (a2, a1, a3)),
        (vid + 1, SOURCE, (b1, b2, b3)),
    ]
    edges = [e for i, e in enumerate(web.edges) if i != edge_index]
    edges += [(t, a1), (b1, a2), (b2, a3), (b3, h)]
    return make_web(web.boundary, vertices, edges, web.circles)


# vertices a random closed web may reach by inflating digons
CLOSED_MAX_VERTICES = 20


def generate_closed(count: int, seed: int) -> list[Web]:
    """Deterministic pseudo-random closed webs for stress testing.

    Each web is the closure of two generated non-elliptic webs over a
    random small sign string, optionally inflated with digons and padded
    with circles, so circles, digons and squares all occur.
    """
    rng = Random(seed)
    pool: dict[tuple, list[Web]] = {}
    out: list[Web] = []
    while len(out) < count:
        n = rng.choice([2, 3, 4])
        signs = tuple(rng.choice([PLUS, MINUS]) for _ in range(n))
        if not is_admissible_sequence(signs):
            continue
        if signs not in pool:
            pool[signs] = generate_non_elliptic(signs, max_vertices=8)
        webs = pool[signs]
        if not webs:
            continue
        closed = closure(rng.choice(webs), rng.choice(webs))
        for _ in range(rng.randrange(3)):
            if closed.edges and closed.vertex_count + 2 <= CLOSED_MAX_VERTICES:
                closed = inflate_edge(closed, rng.randrange(len(closed.edges)))
        if rng.random() < 0.3:
            closed = Web(closed.boundary, closed.vertices, closed.edges, closed.circles + 1)
        out.append(closed)
    return out

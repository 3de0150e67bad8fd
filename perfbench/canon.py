"""Web fingerprints and seeded variants, written independently of sl3web.

The benchmark checks program outputs against recorded references by
these fingerprints, so a rewrite of the program's own canonical form
cannot change what the checks compare.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

from sl3web.web import Web, make_web


def canon(web: Web) -> tuple:
    """Relabelling-invariant fingerprint of a web whose every component
    with vertices meets the border: half-edges are numbered in the order
    a breadth-first walk from the border points, left to right, reaches
    them, turning counterclockwise at each vertex."""
    partner = {}
    for t, h in web.edges:
        partner[t] = h
        partner[h] = t
    at = {h: (kind, rot) for _v, kind, rot in web.vertices for h in rot}
    label: dict[int, int] = {}
    queue = []
    for h, _s in web.boundary:
        label[h] = len(label)
        queue.append(h)
    for h in queue:
        p = partner[h]
        if p not in label:
            label[p] = len(label)
        if p in at:
            rot = at[p][1]
            i = rot.index(p)
            for x in (rot[(i + 1) % 3], rot[(i + 2) % 3]):
                if x not in label:
                    label[x] = len(label)
                    queue.append(x)
    if len(label) != len(partner):
        raise ValueError("canon needs every component to meet the border")
    vertices = []
    for _v, kind, rot in web.vertices:
        r = [label[h] for h in rot]
        i = r.index(min(r))
        vertices.append((kind, tuple(r[i:] + r[:i])))
    edges = sorted((label[t], label[h]) for t, h in web.edges)
    return ("".join(web.signs), tuple(sorted(vertices)), tuple(edges), web.circles)


def digest(fingerprints) -> str:
    """Order-independent hash of a collection of fingerprints."""
    text = json.dumps(sorted(json.dumps(f) for f in fingerprints))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rotate(web: Web, k: int) -> Web:
    """Move the first k boundary points to the right end (cutting the
    border circle elsewhere gives an equivalent web)."""
    if not web.boundary:
        return web
    k %= len(web.boundary)
    return make_web(web.boundary[k:] + web.boundary[:k], web.vertices, web.edges, web.circles)


def relabel(web: Web, rng: Random) -> Web:
    """The same web with fresh random half-edge and vertex ids."""
    halves = [h for h, _s in web.boundary]
    halves += [h for _v, _k, rot in web.vertices for h in rot]
    ids = rng.sample(range(10 * len(halves) + 10), len(halves))
    new = dict(zip(halves, ids))
    vids = rng.sample(range(10 * len(web.vertices) + 10), len(web.vertices))
    return make_web(
        [(new[h], s) for h, s in web.boundary],
        [(vid, k, tuple(new[h] for h in rot)) for vid, (_v, k, rot) in zip(vids, web.vertices)],
        [(new[t], new[h]) for t, h in web.edges],
        web.circles,
    )

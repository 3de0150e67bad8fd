"""Frozen inputs and their recorded references.

`data/flower.json` holds the non-elliptic webs over the flower boundary
and, for each, the seed-commit answers of the characterisation sweep.
`data/gen.json` holds, per admissible sign string of length 8 and 9, the
number of webs, an order-free digest of their fingerprints, and the seed
generator's passes (which put a string in its class).
`data/polyhex.json` holds the polyhex patch pool with its answers, and
`data/cli.json` the expected CLI reports.  `python3 perfbench/rebuild.py`
writes all four from the program at hand.
"""

from __future__ import annotations

import json
import os

from sl3web import catalog
from sl3web.generate import invariant_dimension
from sl3web.io import save_web
from sl3web.web import SINK, SOURCE, Web, is_non_elliptic, make_web, validate

from canon import canon

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
FLOWER_SIGNS = "+--++--++--+"
KIND_CODE = {SINK: 0, SOURCE: 1}
CODE_KIND = {0: SINK, 1: SOURCE}


class CorpusError(Exception):
    """A frozen input failed its certification."""


def encode_web(web: Web) -> list:
    """[boundary halves, flat vertex records, flat edges]; signs are kept
    once per corpus."""
    return [
        [h for h, _s in web.boundary],
        [x for vid, kind, rot in web.vertices for x in (vid, KIND_CODE[kind], *rot)],
        [x for e in web.edges for x in e],
    ]


def decode_web(record, signs: str) -> Web:
    halves, flat_v, flat_e = record
    vertices = [
        (flat_v[i], CODE_KIND[flat_v[i + 1]], tuple(flat_v[i + 2 : i + 5]))
        for i in range(0, len(flat_v), 5)
    ]
    edges = [(flat_e[i], flat_e[i + 1]) for i in range(0, len(flat_e), 2)]
    return make_web(list(zip(halves, signs)), vertices, edges)


def poly_terms(poly) -> list:
    return [[e, c] for e, c in poly.items()]


def factor_records(factors, unrotate=None) -> list:
    """Decomposition factors as sorted [fingerprint text, shift] pairs."""
    out = []
    for web, shift in factors:
        if unrotate is not None:
            web = unrotate(web)
        out.append([json.dumps(canon(web)), shift])
    return sorted(out)


def read(name: str) -> dict:
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def write(name: str, doc: dict):
    os.makedirs(DATA, exist_ok=True)
    with open(os.path.join(DATA, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def load_flower_corpus() -> tuple[list[Web], list[dict]]:
    """The frozen flower-boundary corpus, certified: as many webs as the
    invariant dimension, each valid and non-elliptic, fingerprints
    pairwise distinct."""
    doc = read("flower.json")
    signs = doc["signs"]
    webs = [decode_web(r, signs) for r in doc["webs"]]
    want = invariant_dimension(signs)
    if len(webs) != want or len(doc["refs"]) != want:
        raise CorpusError(f"{len(webs)} webs over {signs}, invariant dimension {want}")
    prints = set()
    for i, web in enumerate(webs):
        if validate(web):
            raise CorpusError(f"corpus web {i} is invalid")
        if not is_non_elliptic(web):
            raise CorpusError(f"corpus web {i} is elliptic")
        prints.add(canon(web))
    if len(prints) != want:
        raise CorpusError("corpus webs are not pairwise distinct")
    return webs, doc["refs"]


CLI_WEBS = ("circle_web", "theta", "cube", "tripod", "digon_arc", "double_digon_arc", "flower")
BROKEN_WEB = {
    "boundary": [{"half_edge": 100, "sign": "-"}, {"half_edge": 101, "sign": "+"}],
    "vertices": [],
    "edges": [[100, 101]],
}


def write_cli_webs(directory: str) -> dict:
    """Write the CLI workload's web files; returns name -> path."""
    paths = {}
    for name in CLI_WEBS:
        paths[name] = os.path.join(directory, f"{name}.json")
        save_web(getattr(catalog, name)(), paths[name])
    paths["broken"] = os.path.join(directory, "broken.json")
    with open(paths["broken"], "w", encoding="utf-8") as fh:
        json.dump(BROKEN_WEB, fh)
    return paths

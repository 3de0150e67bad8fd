"""Reading and writing webs.

The text format is JSON: boundary entries carry a half-edge id and a
sign, vertices carry id, kind and counterclockwise rotation, edges are
[tail, head] pairs of half-edge ids, and vertexless circles are given
as records with a count.  A circle record may carry a region hint;
nesting does not affect any computed quantity here (the bracket is
multiplicative, colourings are determined per placement), so hints are
accepted and ignored and circles are treated as sitting side by side in
the unbounded region.
"""

from __future__ import annotations

import json

from .errors import InvalidWebError
from .web import MINUS, PLUS, SINK, SOURCE, Web, make_web

_KINDS = {"sink": SINK, "source": SOURCE}


def _require(cond: bool, msg: str):
    if not cond:
        raise InvalidWebError(msg)


def _list(data: dict, key: str) -> list:
    value = data.get(key, [])
    _require(isinstance(value, list), f"{key} must be a list")
    return value


def _as_half(x, where: str) -> int:
    _require(isinstance(x, int) and not isinstance(x, bool), f"{where}: half-edge id must be an integer, got {x!r}")
    return x


def web_from_json(data) -> Web:
    """Build a Web from parsed JSON data.  Checks the shape of the data;
    geometric validity is the caller's concern (see validate)."""
    _require(isinstance(data, dict), "web document must be a JSON object")
    unknown = set(data) - {"boundary", "vertices", "edges", "circles"}
    _require(not unknown, f"unknown fields: {sorted(unknown)}")

    boundary = []
    for i, entry in enumerate(_list(data, "boundary")):
        _require(isinstance(entry, dict), f"boundary[{i}] must be an object")
        _require(
            set(entry) == {"half_edge", "sign"},
            f"boundary[{i}] must have exactly the fields half_edge and sign",
        )
        sign = entry["sign"]
        _require(sign in (PLUS, MINUS), f"boundary[{i}]: sign must be '+' or '-', got {sign!r}")
        boundary.append((_as_half(entry["half_edge"], f"boundary[{i}]"), sign))

    vertices = []
    for i, entry in enumerate(_list(data, "vertices")):
        _require(isinstance(entry, dict), f"vertices[{i}] must be an object")
        _require(
            set(entry) == {"id", "kind", "rotation"},
            f"vertices[{i}] must have exactly the fields id, kind and rotation",
        )
        vid = entry["id"]
        _require(isinstance(vid, int) and not isinstance(vid, bool), f"vertices[{i}]: id must be an integer")
        kind = entry["kind"]
        _require(
            isinstance(kind, str) and kind in _KINDS,
            f"vertices[{i}]: kind must be 'sink' or 'source', got {kind!r}",
        )
        rot = entry["rotation"]
        _require(isinstance(rot, list) and len(rot) == 3, f"vertices[{i}]: rotation must list 3 half-edges")
        vertices.append((vid, _KINDS[kind], tuple(_as_half(h, f"vertices[{i}].rotation") for h in rot)))

    edges = []
    for i, pair in enumerate(_list(data, "edges")):
        _require(isinstance(pair, list) and len(pair) == 2, f"edges[{i}] must be a [tail, head] pair")
        edges.append((_as_half(pair[0], f"edges[{i}]"), _as_half(pair[1], f"edges[{i}]")))

    circles = 0
    for i, entry in enumerate(_list(data, "circles")):
        _require(isinstance(entry, dict), f"circles[{i}] must be an object")
        _require(
            "count" in entry and set(entry) <= {"count", "region_hint"},
            f"circles[{i}] must have a count and at most a region_hint",
        )
        k = entry["count"]
        _require(isinstance(k, int) and not isinstance(k, bool) and k >= 0, f"circles[{i}]: count must be a nonnegative integer")
        circles += k

    return make_web(boundary, vertices, edges, circles)


def web_to_json(web: Web) -> dict:
    kind_name = {SINK: "sink", SOURCE: "source"}
    doc = {
        "boundary": [{"half_edge": h, "sign": s} for h, s in web.boundary],
        "vertices": [
            {"id": vid, "kind": kind_name[kind], "rotation": list(rot)}
            for vid, kind, rot in web.vertices
        ],
        "edges": [[t, h] for t, h in web.edges],
        "circles": [{"count": web.circles}] if web.circles else [],
    }
    return doc


def loads_web(text: str) -> Web:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidWebError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidWebError("not valid JSON: nested too deeply") from exc
    return web_from_json(data)


def dumps_web(web: Web) -> str:
    return json.dumps(web_to_json(web), indent=2) + "\n"


def load_web(path: str) -> Web:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidWebError(f"{path}: not UTF-8 text: {exc}") from exc
    return loads_web(text)


def save_web(web: Web, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_web(web))


# ---------------------------------------------------------------------------
# DOT export


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def web_dot(web: Web) -> str:
    """The web as a directed graph: round nodes for sinks, squares for
    sources, small points along the bottom rank for boundary ends."""
    owner = {}
    for vid, _kind, rot in web.vertices:
        for h in rot:
            owner[h] = f"v{vid}"
    lines = ["digraph web {", "  rankdir=BT;"]
    for vid, kind, _rot in web.vertices:
        shape = "circle" if kind == SINK else "box"
        lines.append(f"  v{vid} [shape={shape}, label={_quote(str(vid))}];")
    if web.boundary:
        for i, (h, s) in enumerate(web.boundary):
            owner[h] = f"b{i}"
            lines.append(f"  b{i} [shape=plaintext, label={_quote(s)}];")
        rank = "; ".join(f"b{i}" for i in range(len(web.boundary)))
        lines.append("  { rank=same; " + rank + "; }")
    for t, h in web.edges:
        lines.append(f"  {owner[t]} -> {owner[h]} [label={_quote(f'{t}-{h}')}];")
    for i in range(web.circles):
        lines.append(f"  c{i} [shape=doublecircle, label={_quote('O')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dual_dot(web: Web, red=None) -> str:
    """The dual graph: one node per region, one edge per web edge.  When
    a red graph is given its faces are filled red and its edges drawn
    bold; other faces stay grey."""
    from .redgraph import dual_graph

    dual = red.dual if red is not None else dual_graph(web)
    selected = set(red.faces) if red is not None else set()
    red_edges = set(red.edges) if red is not None else set()
    lines = ["graph dual {"]
    for region in dual.table.regions:
        rid = region.id
        label = str(rid)
        attrs = [f"label={_quote(label)}"]
        if rid in selected:
            attrs.append('style=filled, fillcolor="red"')
        elif region.is_unbounded:
            attrs.append("shape=doubleoctagon")
        elif not region.is_disk:
            attrs.append('style=dashed')
        lines.append(f"  r{rid} [{', '.join(attrs)}];")
    for i, (a, b) in enumerate(dual.sides):
        style = ' [color="red", penwidth=2]' if i in red_edges else ""
        lines.append(f"  r{a} -- r{b}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Outside-in tracing of sl3web's public functions.

`Tracer.install()` replaces every public module-level function of the
layer modules, in every sl3web namespace that binds it (so both
`sl3web.web.region_table` and the name imported into
`sl3web.redgraph` are wrapped), by a wrapper that records a span:
name, start, end, parent span and the benchmark item being processed.
Generator functions get one span per resumption, so the time a consumer
spends between two yields is not charged to the generator.  Spans stay
in memory until `write()`; `uninstall()` puts the original functions
back.  No file of the program is changed.
"""

from __future__ import annotations

import csv
import gzip
import inspect
import sys
import time
from types import FunctionType

LAYERS = ("generate", "web", "bracket", "laurent", "redgraph", "io", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        # one row per span: name index, start ns, end ns, parent, item,
        # time covered by direct children, outermost-of-its-name flag,
        # outermost-of-its-layer flag, result tag
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._depth_name: list[int] = []
        self._depth_layer: dict[str, int] = {}
        self._patches: list[tuple] = []  # (module, name, original, wrapper)

    def set_item(self, item: int):
        """Tag the spans that follow with the benchmark item `item`."""
        self.item = item

    # -- installation -----------------------------------------------------

    def install(self):
        if not self._patches:
            self._patches = self._find_patches()
        for mod, attr, _fn, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn, _wrapper in self._patches:
            setattr(mod, attr, fn)

    def _find_patches(self) -> list[tuple]:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"sl3web.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (
                    isinstance(fn, FunctionType)
                    and not attr.startswith("_")
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        patches = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "sl3web" or name.startswith("sl3web.")):
                continue
            for attr, value in vars(mod).items():
                if isinstance(value, FunctionType) and value in wrappers:
                    patches.append((mod, attr, value, wrappers[value]))
        return patches

    def _wrap(self, fn, name: str, layer: str):
        idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self._depth_name.append(0)
        self._depth_layer.setdefault(layer, 0)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    row = tracer._enter(idx, layer)
                    try:
                        value = next(inner)
                    except StopIteration:
                        tracer._exit(row, idx, layer, None)
                        return
                    except BaseException:
                        tracer._exit(row, idx, layer, "raised")
                        raise
                    tracer._exit(row, idx, layer, 1)
                    yield value

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            row = tracer._enter(idx, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(row, idx, layer, "raised")
                raise
            tracer._exit(row, idx, layer, _tag(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _enter(self, idx: int, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        row = [
            idx,
            0,
            0,
            parent,
            self.item,
            0,
            self._depth_name[idx] == 0,
            self._depth_layer[layer] == 0,
            None,
        ]
        self._depth_name[idx] += 1
        self._depth_layer[layer] += 1
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[1] = time.perf_counter_ns()
        return row

    def _exit(self, row: list, idx: int, layer: str, tag):
        row[2] = time.perf_counter_ns()
        row[8] = tag
        self._stack.pop()
        self._depth_name[idx] -= 1
        self._depth_layer[layer] -= 1
        if row[3] >= 0:
            self.spans[row[3]][5] += row[2] - row[1]

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict:
        """Per function name: calls, inclusive ns of outermost spans, self
        ns, and the result tags seen; per layer: outermost busy ns."""
        by_name: dict[str, dict] = {}
        by_layer: dict[str, int] = {}
        for idx, start, end, _parent, _item, child, outer_name, outer_layer, tag in self.spans:
            name = self.names[idx]
            s = by_name.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0, "tags": {}})
            s["calls"] += 1
            if outer_name:
                s["busy_ns"] += end - start
            s["self_ns"] += end - start - child
            s["tags"][tag] = s["tags"].get(tag, 0) + 1
            if outer_layer:
                layer = self.layer_of[idx]
                by_layer[layer] = by_layer.get(layer, 0) + end - start
        return {"functions": by_name, "layers": by_layer}

    def parents_named(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        names = self.names
        count = 0
        for idx, _s, _e, p, *_rest in self.spans:
            if names[idx] == child and p >= 0 and names[self.spans[p][0]] == parent:
                count += 1
        return count

    def write(self, path: str):
        """All spans as gzip'd CSV: name, start and end (ns), parent row,
        item id."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["row", "name", "start_ns", "end_ns", "parent", "item"])
            for i, (idx, start, end, parent, item, *_rest) in enumerate(self.spans):
                out.writerow([i, self.names[idx], start, end, parent, item])


def _tag(result):
    """What a span remembers of its function's result: None, a length, or
    a plain marker."""
    if result is None:
        return None
    if isinstance(result, (list, tuple)):
        return len(result)
    return "value"

"""The four workloads.  Each is a closed loop in one process, one
operation at a time; the seed draws the inputs and the program sees only
the inputs.

gen      generate_all_non_elliptic over sign strings of length 8 and 9.
         Almost all time is in the generate layer.
sweep    the characterisation sweep over the 513 frozen webs on the
         flower boundary: classify, exact red graph search, decompose
         when decomposable.  Many shallow brackets and a red-graph search
         dominated by region_table.
polyhex  compact polyhex webs built here: a small tier (8-9 hexagons,
         full characterisation; deep square branching in the bracket)
         and a large tier (11-14 hexagons, red-graph search and
         g_reduction; thousands of red graphs, max-flow bound).
cli      cold `python -m sl3web.cli` calls on catalog webs, so import,
         io and cli are measured.

Program functions are always called through their module (for example
`redgraph.decompose`) so the tracer's wrappers see the benchmark's own
calls too.
"""

from __future__ import annotations

import io
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from random import Random

from sl3web import bracket, generate, redgraph
from sl3web.web import validate

import corpus
from canon import canon, digest, relabel, rotate
from harness import Op, program_env
from polyhex import polyhex_web

FLOW_SAMPLE = 40  # red graphs per flow-vs-brute-force check
BRUTE_EDGE_LIMIT = 14


# ---------------------------------------------------------------------------
# shared checks


def characterise(web):
    """classify, exact red graph search, and decompose when decomposable."""
    vc = bracket.classify(web)
    red = redgraph.find_exact_red_graph(web)
    dec = None if vc.indecomposable else redgraph.decompose(web)
    return vc, red, dec


def check_characterisation(result, ref, unrotate=None) -> list:
    vc, red, dec = result
    problems = []
    if vc.indecomposable != (red is None):
        problems.append(
            f"verdicts disagree: classify says indecomposable={vc.indecomposable}, "
            f"exact red graph {'missing' if red is None else 'found'}"
        )
    if corpus.poly_terms(vc.poly) != ref["poly"]:
        problems.append(f"self-pairing {vc.poly} differs from the reference")
    if vc.indecomposable != ref["indecomposable"] or vc.level != ref["level"]:
        problems.append(f"verdict {vc.indecomposable}/{vc.level} differs from the reference")
    if (red is not None) != ref["exact"]:
        problems.append("exact red graph existence differs from the reference")
    if red is not None and red.level != 0:
        problems.append(f"exact red graph has index {red.level}")
    if dec is not None:
        if dec.complete != ref["complete"]:
            problems.append("decomposition completeness differs from the reference")
        if corpus.factor_records(dec.factors, unrotate) != ref["factors"]:
            problems.append("decomposition factors differ from the reference")
    return problems


def brute_force_fits(sides, faces, edges) -> bool:
    """Whether some orientation of the red edges keeps every face's
    in-degree within its cap, trying all 2^E orientations."""
    fs = set(faces)
    deg_d = dict.fromkeys(fs, 0)
    for a, b in sides:
        for x in (a, b):
            if x in fs:
                deg_d[x] += 1
    deg_g = dict.fromkeys(fs, 0)
    for i in edges:
        for x in sides[i]:
            deg_g[x] += 1
    cap = {f: 2 - (deg_d[f] - 2 * deg_g[f]) // 2 for f in fs}
    if any(c < 0 for c in cap.values()):
        return False
    pairs = [sides[i] for i in edges]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        indeg = dict.fromkeys(fs, 0)
        for (a, b), bit in zip(pairs, bits):
            indeg[b if bit else a] += 1
        if all(indeg[f] <= cap[f] for f in fs):
            return True
    return False


def check_flow_sample(web, rng: Random) -> list:
    """Max-flow fitting-orientation verdicts against brute force on a
    seeded sample of the web's red graphs with few edges."""
    reds = [r for r in redgraph.enumerate_red_graphs(web) if len(r.edges) <= BRUTE_EDGE_LIMIT]
    problems = []
    for red in rng.sample(reds, min(FLOW_SAMPLE, len(reds))):
        sides = red.dual.sides
        orientation = redgraph.find_fitting_orientation(red)
        if (orientation is not None) != brute_force_fits(sides, red.faces, red.edges):
            problems.append(f"flow and brute force disagree on faces {red.faces}")
        elif orientation is not None and (
            sorted(orientation) != sorted(red.edges)
            or any(set(orientation[i]) != set(sides[i]) for i in red.edges)
        ):
            problems.append(f"flow orientation of faces {red.faces} does not orient the red edges")
    return problems


# ---------------------------------------------------------------------------
# gen


class Gen:
    """A fixed panel of PER_CLASS strings from each of three classes:
    length 8, length 9 done in one pass of the seed generator, and
    length 9 needing two (a third of the ops, two thirds of the time).
    Every round visits the whole panel in a seeded order, each string
    cut at a fresh seeded point of its boundary circle, so no two
    visits of a string in a run look alike to a cache.  With a fixed
    panel every seed measures the same work; the cut moves an op's time
    by about 15 % and the medians absorb it.  The p70 tail falls in the
    two-pass class; at least three rounds leave ten samples beyond it."""

    name = "gen"
    modules = ("sl3web.generate",)
    tail_pct = 70.0
    min_ops = 36
    PER_CLASS = 4

    def build(self, seed: int):
        self.rng = Random(seed)
        strings = corpus.read("gen.json")["strings"]
        classes: dict[tuple, list] = {}
        for s in strings:
            key = (len(s["signs"]), 1 if len(s["signs"]) == 8 else s["passes"])
            classes.setdefault(key, []).append(s)
        self.panel = []
        for key in sorted(classes):
            members = sorted(classes[key], key=lambda s: s["signs"])
            step = len(members) / self.PER_CLASS
            self.panel += [members[int((i + 0.5) * step)] for i in range(self.PER_CLASS)]
        # each string's cuts in a seeded order, none repeated before all are used
        self.cuts = [self.rng.sample(range(len(s["signs"])), len(s["signs"])) for s in self.panel]

    def rounds(self):
        visit = 0
        while True:
            ops = [self._op(ref, cuts[visit % len(cuts)]) for ref, cuts in zip(self.panel, self.cuts)]
            self.rng.shuffle(ops)
            yield ops
            visit += 1

    @staticmethod
    def _op(ref, cut: int) -> Op:
        signs = ref["signs"][cut:] + ref["signs"][:cut]
        n = len(signs)

        def check(webs):
            problems = []
            want = generate.invariant_dimension(signs)
            if len(webs) != want or len(webs) != ref["count"]:
                problems.append(f"{len(webs)} webs, invariant dimension {want}, reference {ref['count']}")
            if any(w.signs != tuple(signs) for w in webs):
                problems.append("a web has other boundary signs")
                return problems
            # cut back to the recorded string before fingerprinting
            prints = [canon(rotate(w, n - cut)) for w in webs]
            if len(set(prints)) != len(prints):
                problems.append("duplicate webs")
            if digest(prints) != ref["digest"]:
                problems.append("webs differ from the reference")
            return problems

        return Op(signs, ref["signs"], lambda: generate.generate_all_non_elliptic(signs), check, len)


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """Every round visits the whole frozen corpus, freshly relabelled and
    in a fresh order, so no two visits of a web look alike to a cache."""

    name = "sweep"
    modules = ("sl3web.redgraph",)
    tail_pct = 99.0
    min_ops = 0
    FLOW_CHECKS = 3

    def build(self, seed: int):
        self.rng = Random(seed)
        self.webs, self.refs = corpus.load_flower_corpus()
        # the largest webs have the most red graphs to sample from
        big = sorted(range(len(self.webs)), key=lambda i: -len(self.webs[i].vertices))
        self.flow_ids = set(self.rng.sample(big[: 4 * self.FLOW_CHECKS], self.FLOW_CHECKS))

    def rounds(self):
        flow_ids = self.flow_ids
        while True:
            order = self.rng.sample(range(len(self.webs)), len(self.webs))
            yield [self._op(i, relabel(self.webs[i], self.rng), i in flow_ids) for i in order]
            flow_ids = ()

    def _op(self, i: int, web, flow_check: bool) -> Op:
        ref = self.refs[i]
        flow_rng = Random(self.rng.random()) if flow_check else None

        def check(result):
            problems = check_characterisation(result, ref)
            if flow_rng is not None:
                problems += check_flow_sample(web, flow_rng)
            return problems

        return Op(f"flower:{i}", f"flower:{i}", lambda: characterise(web), check)


# ---------------------------------------------------------------------------
# polyhex


class Polyhex:
    """Every round visits each of the seven pool shapes once (8 and 9
    hexagons in the small tier, 11 to 14 in the large one), with the
    boundary cut at a seeded leg, fresh labels and a seeded order; the
    webs are built here.  The shapes' costs lie apart, so the median and
    the tail each sit on one shape."""

    name = "polyhex"
    modules = ("sl3web.redgraph",)
    tail_pct = 70.0
    min_ops = 0

    def build(self, seed: int):
        self.rng = Random(seed)
        self.shapes = corpus.read("polyhex.json")["shapes"]
        small = [i for i, s in enumerate(self.shapes) if s["tier"] == "small"]
        self.flow_id = self.rng.choice(small)

    def rounds(self):
        flow_id = self.flow_id
        while True:
            ops = [self._op(i, shape, i == flow_id) for i, shape in enumerate(self.shapes)]
            self.rng.shuffle(ops)
            yield ops
            flow_id = None

    def _op(self, i: int, shape, flow_check: bool) -> Op:
        patch = [tuple(h) for h in shape["patch"]]
        base = polyhex_web(patch)
        n = len(base.boundary)
        cut = self.rng.randrange(n)
        web = relabel(rotate(base, cut), self.rng)
        ref = shape["ref"]
        kind = f"polyhex:{i}:{shape['size']}hex"
        item = f"{kind}:{cut}"

        if shape["tier"] == "small":
            flow_rng = Random(self.rng.random()) if flow_check else None

            def check(result):
                problems = check_characterisation(result, ref, lambda w: rotate(w, n - cut))
                if flow_rng is not None:
                    problems += check_flow_sample(web, flow_rng)
                return problems

            return Op(item, kind, lambda: characterise(web), check)

        def run():
            red = redgraph.find_exact_red_graph(web)
            return red, None if red is None else redgraph.g_reduction(web, red)

        def check(result):
            red, reduced = result
            problems = []
            if (red is not None) != ref["exact"]:
                problems.append("exact red graph existence differs from the reference")
            if reduced is not None:
                if red.level != 0:
                    problems.append(f"exact red graph has index {red.level}")
                if validate(reduced):
                    problems.append("reduced web is invalid")
                if reduced.signs != web.signs:
                    problems.append("reduction changed the boundary")
                if len(reduced.vertices) >= len(web.vertices):
                    problems.append("reduction removed no vertex")
            return problems

        return Op(item, kind, run, check)


# ---------------------------------------------------------------------------
# cli


class Cli:
    """Every round makes each recorded CLI call once, in a seeded order,
    each in a fresh interpreter.  With `in_process` set (traced runs) the
    calls go to sl3web.cli.main in this process instead."""

    name = "cli"
    modules = ("sl3web.cli",)
    tail_pct = 80.0
    min_ops = 0

    def __init__(self, root: str, src: str):
        self.root = root
        self.src = src
        self.workdir = None
        self.in_process = False

    def build(self, seed: int):
        self.rng = Random(seed)
        self.close()
        self.workdir = tempfile.mkdtemp(prefix=".perfbench-cli-", dir=self.root)
        self.paths = corpus.write_cli_webs(self.workdir)
        self.calls = corpus.read("cli.json")["calls"]
        self.env = program_env(self.src)
        if self.in_process:
            import sl3web.cli  # noqa: F401  (imported here, not inside a timed call)

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def rounds(self):
        while True:
            yield [self._op(ref) for ref in self.rng.sample(self.calls, len(self.calls))]

    def _op(self, ref) -> Op:
        argv = [ref["verb"], self.paths[ref["web"]], "--format", "structured"]

        def run():
            if self.in_process:
                from sl3web import cli

                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                return code, out.getvalue()
            done = subprocess.run(
                [sys.executable, "-m", "sl3web.cli", *argv],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            return done.returncode, done.stdout

        def check(result):
            code, out = result
            if code != ref["exit"]:
                return [f"exit code {code}, expected {ref['exit']}"]
            try:
                report = json.loads(out)
            except json.JSONDecodeError:
                return ["output is not JSON"]
            want = dict(ref["report"])
            # problem texts are free wording: only their presence is checked
            if "problem" in want:
                want.pop("problem")
                if not report.pop("problem", None):
                    return ["invalid web reported without a problem"]
            return [] if report == want else ["report differs from the reference"]

        call = f"cli:{ref['verb']}:{ref['web']}"
        return Op(call, call, run, check)


def make(name: str, root: str, src: str):
    if name == "cli":
        return Cli(root, src)
    return {"gen": Gen, "sweep": Sweep, "polyhex": Polyhex}[name]()

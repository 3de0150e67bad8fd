"""Rebuild the frozen inputs and references under perfbench/data.

    python3 perfbench/rebuild.py [flower|gen|polyhex|cli|all]

The references are the answers of the program at hand, so rebuild only
from a commit whose outputs are trusted; the benchmark then flags any
later change of answer.  `flower` takes about 80 s and `gen` about 150 s
on a 2-core x86 machine.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import sys
import time
from contextlib import redirect_stdout
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from sl3web import generate as gen_mod  # noqa: E402
from sl3web.bracket import classify  # noqa: E402
from sl3web.generate import generate_all_non_elliptic, invariant_dimension  # noqa: E402
from sl3web.redgraph import decompose, find_exact_red_graph  # noqa: E402
from sl3web.web import is_admissible_sequence  # noqa: E402

import corpus  # noqa: E402
from canon import canon, digest  # noqa: E402
from polyhex import grow_compact, polyhex_web  # noqa: E402

POOL_SEED = 20131  # fixed: the pool is data, the run seed only draws variants of it
# seven shapes whose costs lie apart (roughly 0.1 to 1 s at the seed
# commit), so the median and the tail of a round each fall on one shape;
# the small tier runs both the indecomposable and the decompose path, the
# large tier needs an exact red graph to reduce along
POOL = (
    (8, "indecomposable"),
    (8, "decomposable"),
    (9, "indecomposable"),
    (11, "exact"),
    (12, "exact"),
    (13, "exact"),
    (14, "exact"),
)


def characterise_refs(web) -> dict:
    vc = classify(web)
    red = find_exact_red_graph(web)
    ref = {
        "poly": corpus.poly_terms(vc.poly),
        "indecomposable": vc.indecomposable,
        "level": vc.level,
        "exact": red is not None,
    }
    if not vc.indecomposable:
        dec = decompose(web)
        ref["complete"] = dec.complete
        ref["factors"] = corpus.factor_records(dec.factors)
    return ref


def rebuild_flower():
    t = time.perf_counter()
    webs = generate_all_non_elliptic(corpus.FLOWER_SIGNS)
    print(f"flower: {len(webs)} webs generated in {time.perf_counter() - t:.1f} s")
    refs = [characterise_refs(w) for w in webs]
    corpus.write(
        "flower.json",
        {"signs": corpus.FLOWER_SIGNS, "webs": [corpus.encode_web(w) for w in webs], "refs": refs},
    )
    corpus.load_flower_corpus()
    print(f"flower: {sum(not r['indecomposable'] for r in refs)} decomposable")


def rebuild_gen():
    """Per sign string: web count, fingerprint digest, and the passes the
    generator at hand makes (`generate_non_elliptic` calls), which put
    the string in its class."""
    original = gen_mod.generate_non_elliptic
    passes = 0

    def counting(*args, **kwargs):
        nonlocal passes
        passes += 1
        return original(*args, **kwargs)

    gen_mod.generate_non_elliptic = counting
    strings = []
    try:
        for n in (8, 9):
            for bits in itertools.product("+-", repeat=n):
                signs = "".join(bits)
                if not is_admissible_sequence(signs):
                    continue
                passes = 0
                webs = generate_all_non_elliptic(signs)
                assert len(webs) == invariant_dimension(signs)
                strings.append(
                    {
                        "signs": signs,
                        "count": len(webs),
                        "digest": digest(canon(w) for w in webs),
                        "passes": passes,
                    }
                )
    finally:
        gen_mod.generate_non_elliptic = original
    corpus.write("gen.json", {"strings": strings})
    print(f"gen: {len(strings)} sign strings")


def rebuild_polyhex():
    rng = Random(POOL_SEED)
    shapes = []
    for size, want in POOL:
        while True:
            patch = grow_compact(size, rng)
            web = polyhex_web(patch)
            if want == "exact":
                ref = {"exact": find_exact_red_graph(web) is not None}
                if ref["exact"]:
                    break
            else:
                ref = characterise_refs(web)
                if ref["indecomposable"] == (want == "indecomposable"):
                    break
        tier = "large" if want == "exact" else "small"
        shapes.append({"size": size, "tier": tier, "patch": sorted(patch), "ref": ref})
    corpus.write("polyhex.json", {"pool_seed": POOL_SEED, "shapes": shapes})
    print(f"polyhex: {len(shapes)} shapes")


CLI_CALLS = (
    [("validate", w) for w in corpus.CLI_WEBS + ("broken",)]
    + [("bracket", w) for w in ("circle_web", "theta", "cube")]
    + [("classify", w) for w in ("tripod", "digon_arc", "double_digon_arc", "flower")]
    + [("redgraphs", w) for w in ("tripod", "digon_arc", "flower")]
)


def rebuild_cli():
    import tempfile

    from sl3web.cli import main

    refs = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = corpus.write_cli_webs(tmp)
        for verb, name in CLI_CALLS:
            out = io.StringIO()
            with redirect_stdout(out):
                code = main([verb, paths[name], "--format", "structured"])
            refs.append({"verb": verb, "web": name, "exit": code, "report": json.loads(out.getvalue())})
    corpus.write("cli.json", {"calls": refs})
    print(f"cli: {len(refs)} calls")


def main(argv):
    which = argv[0] if argv else "all"
    steps = {"flower": rebuild_flower, "gen": rebuild_gen, "polyhex": rebuild_polyhex, "cli": rebuild_cli}
    if which != "all" and which not in steps:
        print(f"usage: rebuild.py [{'|'.join(steps)}|all]", file=sys.stderr)
        return 2
    for name, step in steps.items():
        if which in ("all", name):
            step()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

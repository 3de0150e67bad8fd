"""Command-line interface.

Reports are line-oriented `key: value` text; `--format structured`
switches every verb to a single JSON document on stdout.  Exit codes:
0 success, 2 unreadable or invalid input, 3 precondition violated,
4 computation contradicted a proved statement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InvalidWebError, SizeGuardError, TheoremViolationError


def _emit(report: dict, fmt: str):
    if fmt == "structured":
        print(json.dumps(report, indent=2))
        return

    def lines(key, value):
        if isinstance(value, dict):
            for k, v in value.items():
                lines(f"{key}.{k}" if key else k, v)
        elif isinstance(value, list):
            for v in value:
                lines(key, v)
        else:
            print(f"{key}: {value}")

    lines("", report)


def _web_summary(web) -> dict:
    return {
        "boundary": "".join(s for _h, s in web.boundary) or "(closed)",
        "vertices": web.vertex_count,
        "edges": len(web.edges),
        "circles": web.circles,
    }


def cmd_validate(args) -> int:
    from .io import load_web
    from .web import is_boundary_connected, is_non_elliptic, validate

    web = load_web(args.file)
    problems = validate(web)
    report = {"valid": "yes" if not problems else "no", **_web_summary(web)}
    if problems:
        report["problem"] = problems
        _emit(report, args.format)
        return 2
    report["non_elliptic"] = "yes" if is_non_elliptic(web) else "no"
    report["boundary_connected"] = "yes" if is_boundary_connected(web) else "no"
    _emit(report, args.format)
    return 0


def cmd_bracket(args) -> int:
    from random import Random

    from .bracket import bracket
    from .io import load_web

    web = load_web(args.file)
    rng = Random(args.seed) if args.seed is not None else None
    value = bracket(web, rng=rng)
    _emit({"bracket": str(value)}, args.format)
    return 0


def cmd_classify(args) -> int:
    from .bracket import classify
    from .io import load_web

    web = load_web(args.file)
    vc = classify(web)
    report = {
        "verdict": "indecomposable" if vc.indecomposable else "decomposable",
        "boundary_weight": vc.weight,
        "bracket": str(vc.poly),
    }
    if not vc.indecomposable:
        report["level"] = vc.level
    _emit(report, args.format)
    return 0


def _red_record(red, admissible: bool) -> dict:
    from .redgraph import count_fitting_orientations, enumerate_pairings, projection_degree_shift

    record = {
        "faces": ",".join(str(f) for f in red.faces),
        "edges": len(red.edges),
        "index": red.level,
        "admissible": "yes" if admissible else "no",
        "exact": "yes" if admissible and red.level == 0 else "no",
    }
    if admissible:
        record["fitting_orientations"] = count_fitting_orientations(red)
        record["degree_shift"] = projection_degree_shift(red)
        record["pairings"] = len(enumerate_pairings(red))
    return record


def cmd_redgraphs(args) -> int:
    from .io import load_web
    from .redgraph import dual_graph, enumerate_red_graphs, is_admissible

    web = load_web(args.file)
    dual = dual_graph(web)
    records = []
    for red in enumerate_red_graphs(web, dual):
        # one orientation search per red graph; exact is admissible at index 0
        admissible = is_admissible(red)
        if args.admissible and not admissible:
            continue
        if args.exact and not (admissible and red.level == 0):
            continue
        records.append(_red_record(red, admissible))
    report = {
        "disk_faces": ",".join(str(f) for f in dual.disk_faces()) or "(none)",
        "count": len(records),
        "red_graph": records,
    }
    _emit(report, args.format)
    return 0


def _parse_faces(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise InvalidWebError(f"--faces wants comma-separated integers, got {text!r}")


def cmd_reduce(args) -> int:
    from .io import load_web, save_web, web_to_json
    from .redgraph import enumerate_pairings, g_reduction, projection_degree_shift, red_graph_from_faces

    web = load_web(args.file)
    red = red_graph_from_faces(web, _parse_faces(args.faces))
    pairings = enumerate_pairings(red)
    if not 0 <= args.pairing < len(pairings):
        raise ValueError(f"pairing index {args.pairing} out of range; {len(pairings)} available")
    reduced = g_reduction(web, red, pairings[args.pairing])
    report = {
        "degree_shift": projection_degree_shift(red),
        **{f"reduced_{k}": v for k, v in _web_summary(reduced).items()},
    }
    if args.out:
        save_web(reduced, args.out)
        report["written"] = args.out
    elif args.format == "structured":
        report["web"] = web_to_json(reduced)
    _emit(report, args.format)
    return 0


def cmd_decompose(args) -> int:
    from .io import load_web, save_web
    from .redgraph import decompose

    web = load_web(args.file)
    dec = decompose(web)
    records = []
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    for i, (factor, shift) in enumerate(dec.factors):
        rec = {"shift": shift, **_web_summary(factor)}
        if args.out:
            path = os.path.join(args.out, f"factor-{i:03d}.json")
            save_web(factor, path)
            rec["written"] = path
        records.append(rec)
    _emit(
        {"complete": "yes" if dec.complete else "no", "count": len(records), "factor": records},
        args.format,
    )
    return 0


def cmd_generate(args) -> int:
    from .generate import generate_all_non_elliptic
    from .io import save_web

    signs = tuple(args.signs)
    if any(s not in "+-" for s in signs):
        raise InvalidWebError(f"signs must be a string over +-, got {args.signs!r}")
    # the generator has checked its count against the invariant dimension
    webs = generate_all_non_elliptic(signs)
    expected = len(webs)
    if args.max_vertices is not None:
        webs = [web for web in webs if web.vertex_count <= args.max_vertices]
    exhaustive = len(webs) == expected
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    records = []
    for i, web in enumerate(webs):
        rec = _web_summary(web)
        if args.out:
            path = os.path.join(args.out, f"web-{i:03d}.json")
            save_web(web, path)
            rec["written"] = path
        records.append(rec)
    _emit(
        {
            "count": len(webs),
            "invariant_dimension": expected,
            "exhaustive": "yes" if exhaustive else "no",
            "web": records,
        },
        args.format,
    )
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(
        max_boundary=args.max_boundary,
        jobs=args.jobs,
        corpus_size=args.corpus_size,
    )
    if args.format == "structured":
        print(
            json.dumps(
                [
                    {
                        "criterion": r.number,
                        "title": r.title,
                        "ok": r.ok,
                        "seconds": round(r.seconds, 2),
                        "budget": r.budget,
                        "detail": r.detail,
                    }
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        for r in results:
            print(r.line)
    if any(r.theorem_violation for r in results):
        return 4
    return 0 if all(r.ok for r in results) else 1


def cmd_export(args) -> int:
    from .io import dual_dot, dumps_web, load_web, web_dot
    from .web import require_valid

    if args.kind == "web" and args.faces is not None:
        raise InvalidWebError("--faces overlays a red graph on the dual; it needs --kind dual")
    web = load_web(args.file)
    require_valid(web)
    if args.kind == "web":
        text = web_dot(web) if args.dot else dumps_web(web)
    else:
        from .redgraph import red_graph_from_faces

        red = None if args.faces is None else red_graph_from_faces(web, _parse_faces(args.faces))
        text = dual_dot(web, red)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"written: {args.dot}")
    else:
        sys.stdout.write(text)
    return 0


def _at_least(low: int):
    """An argparse type for whole numbers of at least `low`."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be a whole number of at least {low}, got {text!r}")
        return int(text)

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl3web",
        description="Webs, their bracket, red graphs and reductions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=["text", "structured"], default="text")
        return p

    p = add("validate", cmd_validate, "check a web file and report its shape")
    p.add_argument("file")

    p = add("bracket", cmd_bracket, "evaluate the bracket of a closed web")
    p.add_argument("file")
    p.add_argument("--seed", type=int, help="randomize the reduction order")

    p = add("classify", cmd_classify, "virtual (in)decomposability of a web")
    p.add_argument("file")

    p = add("redgraphs", cmd_redgraphs, "list red graphs of a web")
    p.add_argument("file")
    p.add_argument("--admissible", action="store_true", help="admissible ones only")
    p.add_argument("--exact", action="store_true", help="exact ones only")

    p = add("reduce", cmd_reduce, "reduce a web along a red graph")
    p.add_argument("file")
    p.add_argument("--faces", required=True, help="comma-separated face region ids")
    p.add_argument("--pairing", type=int, default=0, help="index of the grey pairing")
    p.add_argument("--out", help="write the reduced web here")

    p = add("decompose", cmd_decompose, "split a web into indecomposable pieces")
    p.add_argument("file")
    p.add_argument("--out", help="directory for the factor webs")

    p = add("generate", cmd_generate, "non-elliptic webs over a sign string")
    p.add_argument("signs", help="boundary signs, e.g. '+--+'")
    p.add_argument("--max-vertices", type=_at_least(0), help="keep only webs with at most N vertices; omit for all")
    p.add_argument("--out", help="directory for the web files")

    p = add("verify", cmd_verify, "run the acceptance suite")
    p.add_argument("--max-boundary", type=_at_least(0), default=8)
    p.add_argument("--jobs", type=_at_least(1), default=1, help="processes, at most one per core")
    p.add_argument("--corpus-size", type=_at_least(1), default=200)

    p = add("export", cmd_export, "write a web back out as JSON or DOT")
    p.add_argument("file")
    p.add_argument("--kind", choices=["web", "dual"], default="web")
    p.add_argument("--faces", help="overlay this red graph on the dual")
    p.add_argument("--dot", help="write DOT here instead of JSON to stdout")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TheoremViolationError as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        return 4
    except InvalidWebError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

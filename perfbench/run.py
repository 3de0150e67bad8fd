"""sl3web benchmark.

    python3 perfbench/run.py --workload gen|sweep|polyhex|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src only.
With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = (5, 25)  # least and most set-ups per run
SETUP_SECONDS = 3.0
IMPORT_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description="sl3web benchmark")
    p.add_argument("--workload", required=True, choices=("gen", "sweep", "polyhex", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Put ./src first on the path and make sure sl3web comes from there."""
    if not os.path.isfile(os.path.join(SRC, "sl3web", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {SRC}/sl3web")
    sys.path.insert(0, SRC)
    import sl3web

    if not os.path.abspath(sl3web.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: sl3web was imported from {sl3web.__file__}, not {SRC}")


def set_up(workload, seed: int, harness) -> float:
    """One set-up: import time in a fresh interpreter + time to build or
    load the inputs here."""
    imp = harness.fresh_import_seconds(workload.modules, SRC, ROOT)
    t = time.perf_counter()
    workload.build(seed)
    return imp + time.perf_counter() - t


def close(workload):
    method = getattr(workload, "close", None)
    if method is not None:
        method()


def end_to_end(workload, seed: int, seconds: float, harness) -> dict:
    """setup_s is the median of several set-ups.  The first builds the
    workload; the others build throwaway copies between operations,
    spread evenly over the busy time, so the median sees the same spells
    of the machine as the other metrics.  Short set-ups are repeated
    more, until the repeats add up to about SETUP_SECONDS."""
    import workloads

    setups = [set_up(workload, seed, harness)]
    repeats = min(max(round(SETUP_SECONDS / setups[0]), SETUP_REPEATS[0]), SETUP_REPEATS[1])

    def set_up_copy():
        copy = workloads.make(workload.name, ROOT, SRC)
        try:
            setups.append(set_up(copy, seed, harness))
        finally:
            close(copy)

    def between_ops(busy: float):
        if len(setups) < repeats and busy >= seconds * len(setups) / repeats:
            set_up_copy()

    records, busy = harness.measure(workload.rounds(), seconds, workload.min_ops, between_ops)
    while len(setups) < repeats:
        set_up_copy()
    setup_s = harness.median(setups)
    failed = harness.failures(records)
    lat = [r.seconds for r in records]
    tail_value, beyond = harness.percentile(lat, workload.tail_pct)
    items = sum(r.items for r in records)
    rss = harness.peak_rss_mb(children=workload.name == "cli")
    print(
        f"workload={workload.name} seed={seed} set-ups={len(setups)} ops={len(records)} "
        f"items={items} busy_s={busy:.3f} op_tail_ms=p{workload.tail_pct:g} with {beyond} of "
        f"{len(records)} samples beyond it, failed_frac={failed / len(records):.4f}"
    )
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": harness.typical_rate(records), "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * harness.median(lat), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * tail_value, "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def import_times() -> tuple[float, float]:
    """Medians over fresh interpreters of the time to import sl3web.cli and
    the part of it spent importing networkx (from -X importtime), in ms."""
    from harness import median, program_env

    code = (
        "import time, sys\n"
        "t = time.perf_counter()\n"
        "import sl3web.cli\n"
        "sys.stdout.write(repr(time.perf_counter() - t))\n"
    )
    totals, nx = [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            cwd=ROOT,
            env=program_env(SRC),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        totals.append(1000 * float(out.stdout))
        m = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*networkx\s*$", out.stderr, re.M)
        nx.append(int(m.group(1)) / 1000 if m else 0.0)
    return median(totals), median(nx)


def traced(workload, seed: int, seconds: float, harness) -> dict:
    """Each operation runs twice, once untraced and once under the
    tracer, alternating which goes first, until the untraced busy time
    reaches half the run length.  Pairing the two runs of an operation
    keeps slow spells of the machine out of the tracing overhead; the
    per-layer metrics come from the traced runs."""
    from spans import Tracer

    if workload.name == "cli":
        workload.in_process = True
    workload.build(seed)
    tracer = Tracer()
    plain, spanned = [], []
    plain_busy = 0.0
    for ops in workload.rounds():
        if plain_busy >= seconds / 2:
            break
        for op in ops:
            runs = {}
            for with_spans in (False, True) if len(plain) % 2 else (True, False):
                if with_spans:
                    tracer.set_item(len(plain))
                    tracer.install()
                    try:
                        runs[True] = harness.run_op(op)
                    finally:
                        tracer.uninstall()
                else:
                    runs[False] = harness.run_op(op)
            for record, result in runs.values():
                harness.check(op, record, result)  # untraced, so checks leave no spans
            plain.append(runs[False][0])
            spanned.append(runs[True][0])
            plain_busy += plain[-1].seconds
    spanned_busy = sum(r.seconds for r in spanned)
    failed = harness.failures(plain + spanned)
    items = max(sum(r.items for r in spanned), 1)
    import_ms, import_nx_ms = import_times()
    metrics = layer_metrics(tracer, items)
    functions = tracer.summary()["functions"]
    for name, f in sorted(functions.items(), key=lambda kv: -kv[1]["self_ns"])[:8]:
        print(
            f"self {f['self_ns'] / 1e6 / items:10.4f} ms/item  "
            f"calls {f['calls'] / items:10.2f}/item  {name}"
        )
    main_ms = harness.median([r.seconds for r in plain]) * 1000 if workload.name == "cli" else 0.0
    metrics.update(
        {
            "cli.import_ms": (import_ms, "ms"),
            "cli.import_networkx_ms": (import_nx_ms, "ms"),
            "cli.main_ms": (main_ms, "ms"),
            "trace.overhead_frac": (spanned_busy / plain_busy - 1, "ratio"),
        }
    )
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.csv.gz")
    tracer.write(path)
    print(
        f"workload={workload.name} seed={seed} traced ops={len(spanned)} items={items} "
        f"spans={len(tracer.spans)} written to {os.path.relpath(path, ROOT)}"
    )
    return {
        "correct": failed == 0,
        "attempted": len(plain) + len(spanned),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(tracer, items: int) -> dict:
    """Per-layer figures of the traced pass, per item of the workload
    where the name does not say otherwise."""
    summary = tracer.summary()
    fn = summary["functions"]
    empty = {"calls": 0, "busy_ns": 0, "self_ns": 0, "tags": {}}

    def f(name):
        return fn.get(name, empty)

    def busy(name):
        return f(name)["busy_ns"] / 1e9 / items

    def self_s(name):
        return f(name)["self_ns"] / 1e9 / items

    def per_item(name):
        return f(name)["calls"] / items

    def ratio(num, den):
        return num / den if den else 0.0

    gen_all = f("generate.generate_all_non_elliptic")
    returned = sum(k * n for k, n in gen_all["tags"].items() if isinstance(k, int))
    built = tracer.parents_named("web.make_web", "generate.generate_non_elliptic")
    passes = tracer.parents_named(
        "generate.generate_non_elliptic", "generate.generate_all_non_elliptic"
    )
    flow = f("redgraph.find_fitting_orientation")
    fitting = flow["calls"] - flow["tags"].get(None, 0) - flow["tags"].get("raised", 0)
    reds = f("redgraph.enumerate_red_graphs")["tags"].get(1, 0)
    return {
        "generate.busy_s": (summary["layers"].get("generate", 0) / 1e9 / items, "s/item"),
        "generate.canonical_form.busy_s": (busy("generate.canonical_form"), "s/item"),
        "generate.passes": (ratio(passes, gen_all["calls"]), "1/call"),
        "generate.kept_ratio": (ratio(returned, built), "ratio"),
        "web.validate.calls_per_item": (per_item("web.validate"), "1/item"),
        "web.validate.busy_s": (busy("web.validate"), "s/item"),
        "web.region_table.calls_per_item": (per_item("web.region_table"), "1/item"),
        "web.region_table.busy_s": (busy("web.region_table"), "s/item"),
        "web.closure.busy_s": (busy("web.closure"), "s/item"),
        "bracket.bracket.busy_s": (self_s("bracket.bracket"), "s/item"),
        "bracket.bracket.calls": (per_item("bracket.bracket"), "1/item"),
        "bracket.split_elliptic.busy_s": (busy("bracket.split_elliptic"), "s/item"),
        "redgraph.decompose.busy_s": (busy("redgraph.decompose"), "s/item"),
        "redgraph.g_reduction.busy_s": (busy("redgraph.g_reduction"), "s/item"),
        "redgraph.red_graphs": (reds / items, "1/item"),
        "redgraph.flow.calls": (flow["calls"] / items, "1/item"),
        "redgraph.flow.us_per_call": (ratio(flow["busy_ns"] / 1e3, flow["calls"]), "us"),
        "redgraph.admissible_ratio": (ratio(fitting, flow["calls"]), "ratio"),
        "redgraph.find_exact.busy_s": (self_s("redgraph.find_exact_red_graph"), "s/item"),
        "redgraph.dual_graph.busy_s": (busy("redgraph.dual_graph"), "s/item"),
        "redgraph.minimal.busy_s": (busy("redgraph.minimal_admissible_subgraph"), "s/item"),
        "io.load_web.busy_s": (busy("io.load_web"), "s/item"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    load_program()
    sys.path.insert(0, HERE)
    import harness
    import workloads

    workload = workloads.make(args.workload, ROOT, SRC)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    try:
        if args.trace:
            result = traced(workload, args.seed, args.seconds, harness)
        else:
            result = end_to_end(workload, args.seed, args.seconds, harness)
    finally:
        close(workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

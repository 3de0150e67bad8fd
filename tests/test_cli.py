from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import sl3web.bracket
import sl3web.redgraph
from sl3web.catalog import arc, circle_web, cube, digon_arc, flower, tripod
from sl3web.cli import main
from sl3web.generate import canonical_form
from sl3web.io import load_web, save_web


@pytest.fixture
def webs(tmp_path):
    paths = {}
    for name, build in [
        ("circle", circle_web),
        ("arc", arc),
        ("tripod", tripod),
        ("digon_arc", digon_arc),
        ("flower", flower),
    ]:
        path = tmp_path / f"{name}.json"
        save_web(build(), str(path))
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate(webs, capsys):
    code, out = run(capsys, "validate", webs["flower"])
    assert code == 0
    assert "valid: yes" in out
    assert "non_elliptic: yes" in out


def test_validate_rejects_broken_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not a web")
    assert main(["validate", str(path)]) == 2


def test_bracket_circle(webs, capsys):
    code, out = run(capsys, "bracket", webs["circle"])
    assert code == 0
    assert "bracket: q^2+1+q^-2" in out


def test_bracket_seeded(webs, capsys):
    code_a, out_a = run(capsys, "bracket", webs["circle"], "--seed", "5")
    code_b, out_b = run(capsys, "bracket", webs["circle"], "--seed", "9")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_bracket_requires_closed(webs, capsys):
    assert main(["bracket", webs["arc"]]) == 3


def test_classify_digon_arc(webs, capsys):
    code, out = run(capsys, "classify", webs["digon_arc"])
    assert code == 0
    assert "verdict: decomposable" in out
    assert "level: 1" in out
    assert "bracket: q^4+3q^2+4+3q^-2+q^-4" in out


def test_classify_structured(webs, capsys):
    code, out = run(capsys, "classify", webs["tripod"], "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "indecomposable"


def test_redgraphs_exact_tripod_empty(webs, capsys):
    code, out = run(capsys, "redgraphs", "--exact", webs["tripod"])
    assert code == 0
    assert "count: 0" in out


def test_redgraphs_digon_arc(webs, capsys):
    code, out = run(capsys, "redgraphs", webs["digon_arc"], "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["red_graph"][0]["admissible"] == "yes"
    assert doc["red_graph"][0]["index"] == 1


@pytest.mark.parametrize("flags", [(), ("--admissible",), ("--exact",)])
def test_redgraphs_searches_once_per_red_graph(webs, capsys, monkeypatch, flags):
    calls = 0
    solve = sl3web.redgraph.find_fitting_orientation

    def counted(red):
        nonlocal calls
        calls += 1
        return solve(red)

    monkeypatch.setattr(sl3web.redgraph, "find_fitting_orientation", counted)
    code, out = run(capsys, "redgraphs", webs["flower"], *flags, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert calls == 81  # the flower's red graphs
    assert doc["count"] == (81 if not flags else 1)
    exact = [r["faces"] for r in doc["red_graph"] if r["exact"] == "yes"]
    assert exact == ["12,13,14,15,16,17"]


def test_reduce_writes_arc(webs, tmp_path, capsys):
    out_path = tmp_path / "reduced.json"
    code, out = run(capsys, "reduce", webs["digon_arc"], "--faces", "1", "--out", str(out_path))
    assert code == 0
    assert "degree_shift: 2" in out
    assert canonical_form(load_web(str(out_path))) == canonical_form(arc())


def test_reduce_rejects_bad_faces(webs, capsys):
    assert main(["reduce", webs["digon_arc"], "--faces", "0"]) == 3


def test_decompose(webs, capsys):
    code, out = run(capsys, "decompose", webs["digon_arc"], "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] == "yes"
    assert sorted(f["shift"] for f in doc["factor"]) == [-1, 1]


def test_generate(capsys, tmp_path):
    code, out = run(capsys, "generate", "+--+", "--out", str(tmp_path))
    assert code == 0
    assert "count: 2" in out
    assert "exhaustive: yes" in out
    first = load_web(str(tmp_path / "web-000.json"))
    assert first.signs == tuple("+--+")


def test_generate_max_vertices_filters(capsys):
    code, out = run(capsys, "generate", "+--+", "--max-vertices", "0")
    assert code == 0
    assert "count: 1" in out
    assert "exhaustive: no" in out


def test_generate_rejects_garbage(capsys):
    assert main(["generate", "+x"]) == 2


def test_export_round_trip(webs, capsys):
    code, out = run(capsys, "export", webs["flower"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 24


def test_export_dot(webs, tmp_path, capsys):
    dot = tmp_path / "w.dot"
    code, _ = run(capsys, "export", webs["digon_arc"], "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph")
    code, _ = run(capsys, "export", webs["digon_arc"], "--kind", "dual", "--faces", "1", "--dot", str(dot))
    assert code == 0
    assert "fillcolor" in dot.read_text()


def test_missing_file_exit_code(capsys):
    assert main(["bracket", "/nonexistent/x.json"]) == 2


def test_bracket_size_guard_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cube.json"
    save_web(cube(), str(path))
    monkeypatch.setattr(sl3web.bracket, "MAX_SQUARE_BRANCHINGS", 0)
    assert main(["bracket", str(path)]) == 3
    assert "square branchings" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decompose", "{circles}"], "split_elliptic is capped"),
        (["generate", "+-" * 20], "generation is capped"),
    ],
    ids=["decompose", "generate"],
)
def test_size_guards_exit_3_without_a_traceback(argv, message, tmp_path):
    # 3^25 summands; an invariant dimension of 162,958,355,218,089 webs
    path = tmp_path / "circles.json"
    path.write_text('{"circles": [{"count": 25}]}')
    argv = [a.format(circles=path) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "sl3web.cli", *argv], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 3
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_utf8_file_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("kind", [[], ["--kind", "web"]])
def test_export_web_rejects_faces(webs, capsys, kind):
    assert main(["export", webs["flower"], *kind, "--faces", "1"]) == 2
    assert "--faces" in capsys.readouterr().err


@pytest.mark.parametrize("faces", ["", ","])
def test_export_dual_rejects_an_empty_face_list(webs, capsys, faces):
    assert main(["export", webs["digon_arc"], "--kind", "dual", "--faces", faces]) == 3
    assert "a red graph needs at least one face" in capsys.readouterr().err


def imported_modules(*argv) -> tuple[int, set[str]]:
    """Run `python -X importtime *argv` in a fresh interpreter; return its
    exit code and the names of every module it imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True
    )
    return proc.returncode, set(re.findall(r"^import time:.*\|\s*(\S+)\s*$", proc.stderr, re.M))


def test_cli_imports_only_what_the_verb_runs(webs):
    # the package root re-exports nothing, so it loads no web code
    code, names = imported_modules("-c", "import sl3web")
    assert code == 0
    assert "sl3web" in names
    assert not names & {"sl3web.web", "sl3web.laurent"}

    code, names = imported_modules("-c", "import sl3web.cli")
    assert code == 0
    assert "sl3web.cli" in names
    assert not names & {
        "sl3web.web",
        "sl3web.laurent",
        "sl3web.bracket",
        "sl3web.redgraph",
        "sl3web.generate",
        "sl3web.verify",
        "sl3web.catalog",
        "concurrent.futures",
        "multiprocessing",
        "networkx",
    }

    code, names = imported_modules("-m", "sl3web.cli", "validate", webs["flower"])
    assert code == 0
    assert "sl3web.io" in names
    assert not names & {"sl3web.bracket", "sl3web.redgraph"}

    code, names = imported_modules("-m", "sl3web.cli", "classify", webs["flower"])
    assert code == 0
    assert "sl3web.bracket" in names
    assert "sl3web.redgraph" not in names


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{flower}"],
        ["bracket", "{circle}", "--seed", "3"],
        ["classify", "{flower}"],
        ["redgraphs", "{digon_arc}"],
        ["reduce", "{digon_arc}", "--faces", "1"],
        ["decompose", "{digon_arc}"],
        ["generate", "+-+-"],
        ["verify", "--max-boundary", "4", "--corpus-size", "5"],
        ["export", "{digon_arc}", "--kind", "dual", "--faces", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_verb_runs_in_a_fresh_interpreter(argv, webs):
    argv = [a.format(**webs) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "sl3web.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_console_script_runs(webs):
    # the [project.scripts] entry point imports sl3web.cli as a module and calls main()
    script = (
        "import importlib, sys\n"
        "sys.argv[0] = 'sl3web'\n"
        "sys.exit(importlib.import_module('sl3web.cli').main())\n"
    )
    for argv, expected in [
        (["generate", "+-"], "count: 1"),
        (["validate", webs["flower"]], "valid: yes"),
    ]:
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert expected in proc.stdout


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_verify_rejects_jobs_below_one(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs: must be a whole number of at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--corpus-size", "0"], "--corpus-size: must be a whole number of at least 1"),
        (["verify", "--corpus-size", "-5"], "--corpus-size: must be a whole number of at least 1"),
        (["verify", "--max-boundary", "-1"], "--max-boundary: must be a whole number of at least 0"),
        (["generate", "+-+-", "--max-vertices", "-1"], "--max-vertices: must be a whole number of at least 0"),
    ],
)
def test_numeric_arguments_out_of_range_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err

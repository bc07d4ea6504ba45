import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wsatlab.cli import main, resolve_pattern
from wsatlab.graphs import make_clique, make_complete_bipartite, make_double_barbell, parse_edge_list


@pytest.fixture
def path4_file(tmp_path):
    f = tmp_path / "path4.el"
    f.write_text("4\n0 1\n1 2\n2 3\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_resolve_pattern_names(tmp_path):
    assert resolve_pattern("K5") == make_clique(5)
    assert resolve_pattern("K2,3") == make_complete_bipartite(2, 3)
    assert resolve_pattern("DD4") == make_double_barbell(4)
    f = tmp_path / "h.el"
    f.write_text("3\n0 1\n1 2\n0 2\n")
    assert resolve_pattern(str(f)) == make_clique(3)
    g6 = tmp_path / "h.g6"
    g6.write_text("C~")
    assert resolve_pattern(str(g6)) == make_clique(4)


def test_input_reads_graph6_without_suffix(capsys, tmp_path):
    """``--input`` reads either format, like ``--pattern``, whatever the
    file's suffix; a file in neither format names both errors."""
    k5 = tmp_path / "k5.txt"
    k5.write_text("D~{\n")
    for pattern in ("K3", str(k5)):
        code, out, _ = run(capsys, "percolate", "--input", str(k5), "--pattern", pattern)
        assert code == 0 and out == "yes 0\n"
    bad = tmp_path / "bad.el"
    bad.write_text("4\n0 9\n")
    code, out, err = run(capsys, "percolate", "--input", str(bad), "--pattern", "K3")
    assert code == 2 and out == ""
    assert "vertex out of range" in err and "graph6" in err


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--pattern", "K5", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    r = doc["result"]
    assert r["lambda"] == "8/3"
    assert r["xi"] == "1/3"
    assert r["vStar"] == [2]
    assert r["strictlyBalanced"] is True
    m = doc["manifest"]
    assert m["subcommand"] == "analyze"
    assert "duration_s" not in m
    assert m["version"]


def test_analyze_includes_timing_by_default(capsys):
    _, out, _ = run(capsys, "analyze", "--pattern", "K4")
    assert "duration_s" in json.loads(out)["manifest"]


def test_percolate_and_close(capsys, path4_file, tmp_path):
    code, out, _ = run(capsys, "percolate", "--input", path4_file,
                       "--pattern", "K3")
    assert code == 0 and out.split() == ["yes", "2"]

    trace_file = tmp_path / "trace.json"
    code, out, _ = run(capsys, "close", "--input", path4_file,
                       "--pattern", "K3", "--trace", str(trace_file))
    assert code == 0
    assert parse_edge_list(out).is_complete()
    trace = json.loads(trace_file.read_text())
    assert [r["t"] for r in trace["rounds"]] == [1, 2]


def test_witness_json(capsys, path4_file):
    code, out, _ = run(capsys, "witness", "--input", path4_file,
                       "--pattern", "K3", "--target", "0 3", "--rea",
                       "--no-timing")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["witnessEdges"] == [[0, 1], [1, 2], [2, 3]]
    assert r["k"] == 4 and r["size"] == 2
    assert len(r["rea"]) == 2


def test_witness_missing_target_fails(capsys, path4_file):
    code, _, err = run(capsys, "witness", "--input", path4_file,
                       "--pattern", "K4", "--target", "0 3")
    assert code == 1
    assert "not in the closure" in err


def test_witness_replay_failure_exits_1(capsys, path4_file, monkeypatch):
    from wsatlab import cli
    from wsatlab.witness import ReplayError

    def failing_replay(*args):
        raise ReplayError("support edge (0, 2) has no certificate")

    monkeypatch.setattr(cli, "rea_replay", failing_replay)
    code, out, err = run(capsys, "witness", "--input", path4_file,
                         "--pattern", "K3", "--target", "0 3", "--rea")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "no certificate" in err


def test_engine_value_error_exits_3_with_traceback(capsys, path4_file, monkeypatch):
    """A ValueError that is not an InputError is an internal failure, not a
    usage error."""
    from wsatlab import closure

    def broken_search(g, pair, h):
        raise ValueError(f"pair {pair} is already an edge")

    monkeypatch.setattr(closure, "find_completion", broken_search)
    code, out, err = run(capsys, "percolate", "--input", path4_file, "--pattern", "K3")
    assert code == 3 and out == ""
    assert "Traceback" in err and "already an edge" in err


def test_ladder_build_and_verify(capsys):
    code, out, _ = run(capsys, "ladder", "build", "--pattern", "K5",
                       "--height", "3", "--no-timing")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["n"] == 11 and len(r["edges"]) == 25

    code, out, _ = run(capsys, "ladder", "verify", "--pattern", "K5",
                       "--height", "2", "--no-timing")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["lemma"]["violations"] == [] and r["closure"]["violations"] == []


def test_ladder_count(capsys, tmp_path):
    from wsatlab.graphs import serialize_edge_list
    from wsatlab.ladders import build_ladder

    lad = build_ladder(make_clique(5), 1)
    host = tmp_path / "host.el"
    host.write_text(serialize_edge_list(lad.graph))
    code, out, _ = run(capsys, "ladder", "count", "--pattern", "K5",
                       "--height", "1", "--host", str(host), "--base", "0 1",
                       "--no-timing")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 6


def test_census(capsys):
    code, out, _ = run(capsys, "census", "--n", "4", "--pattern", "K4",
                       "--no-timing")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["percolating"] == 7 and r["total"] == 64


def test_curve_csv(capsys):
    code, out, _ = run(capsys, "curve", "--n", "10", "--pattern", "K3",
                       "--grid", "0,1", "--trials", "8", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p,trials,successes,fraction,ci_lo,ci_hi"
    assert lines[1].startswith("10,0,8,0,0")
    assert lines[2].startswith("10,1,8,8,1")


def test_pc_search_json(capsys):
    code, out, _ = run(capsys, "pc-search", "--n", "25", "--pattern", "K3",
                       "--trials", "40", "--seed", "2", "--tol", "0.25",
                       "--no-timing")
    assert code == 0
    r = json.loads(out)["result"]
    assert 0 < r["pHat"] < 1
    assert r["trialsPerProbe"] == 40


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "appendix", "--vmax", "4",
                       "--no-timing")
    assert code == 0
    assert json.loads(out)["result"]["violations"] == []


def test_usage_errors(capsys, path4_file):
    code, _, err = run(capsys, "analyze", "--pattern", "NOPE")
    assert code == 2 and "unknown pattern" in err
    code, _, err = run(capsys, "percolate", "--input", "/does/not/exist",
                       "--pattern", "K3")
    assert code == 2
    code, _, err = run(capsys, "ladder", "count", "--pattern", "K4",
                       "--height", "1")
    assert code == 2
    for pair in ("0 9", "2 2", "-1 2", "0 4"):
        code, _, err = run(capsys, "witness", "--input", path4_file,
                           "--pattern", "K3", "--target", pair)
        assert code == 2 and "distinct vertices" in err
        code, _, err = run(capsys, "ladder", "count", "--pattern", "K3",
                           "--height", "1", "--host", path4_file, "--base", pair)
        assert code == 2 and "distinct vertices" in err
    for trials in ("0", "-2"):
        code, out, err = run(capsys, "curve", "--n", "5", "--pattern", "K3",
                             "--grid", "0.5", "--trials", trials)
        assert code == 2 and out == "" and "trials >= 1" in err
    code, out, err = run(capsys, "ladder-exp", "--n", "8", "--pattern", "K4",
                         "--p", "0.5", "--height", "1", "--trials", "0")
    assert code == 2 and out == "" and "trials >= 1" in err
    for alpha, beta, message in (("-1", "0.3", "alpha >= 0"), ("nan", "0.3", "alpha >= 0"),
                                 ("1", "0", "beta > 0"), ("1", "nan", "beta > 0")):
        code, out, err = run(capsys, "ladder-exp", "--n", "5", "--pattern", "K4",
                             "--alpha", alpha, "--beta", beta, "--trials", "3")
        assert code == 2 and out == "" and message in err
    for mixed in (["--alpha", "2", "--p", "0.1", "--height", "1"],
                  ["--alpha", "2", "--beta", "0.3", "--p", "0.5", "--height", "7"],
                  ["--beta", "0.3", "--p", "0.1", "--height", "1"]):
        code, out, err = run(capsys, "ladder-exp", "--n", "30", "--pattern", "K4",
                             "--trials", "3", *mixed)
        assert code == 2 and out == "" and "exactly one of" in err
    for n in ("0", "-4"):
        code, out, err = run(capsys, "pc-search", "--n", n, "--pattern", "K4",
                             "--trials", "5")
        assert code == 2 and out == "" and "n >= 1" in err
        code, out, err = run(capsys, "curve", "--n", n, "--pattern", "K3",
                             "--grid", "0.5", "--trials", "5")
        assert code == 2 and out == "" and "n >= 1" in err
    for tol in ("-1", "nan"):
        code, out, err = run(capsys, "pc-search", "--n", "10", "--pattern", "K4",
                             "--trials", "5", "--tol", tol)
        assert code == 2 and out == "" and "tolerance >= 0" in err
    code, out, err = run(capsys, "witness", "--input", path4_file, "--pattern", "K3",
                         "--target", "a b")
    assert code == 2 and out == "" and "expected 'u v'" in err
    code, out, err = run(capsys, "curve", "--n", "5", "--pattern", "K3",
                         "--grid", "0.5,x", "--trials", "3")
    assert code == 2 and out == "" and "--grid" in err
    for name, data in (("binary.el", b"\xff\xfe\x00"), ("dot.el", b"1\n")):
        path = Path(path4_file).with_name(name)
        path.write_bytes(data)
        code, out, err = run(capsys, "close", "--input", path4_file,
                             "--pattern", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ladder", "build", "--pattern", "K5", "--height", "400", "--no-timing"],
    ["analyze", "--pattern", "K4", "--no-timing"],
])
def test_closed_stdout_exits_141_quietly(argv, tmp_path):
    """A reader that closes stdout early (``wsat ... | head -n 1``) ends the
    run with 141, the shell's status after SIGPIPE, and nothing on stderr.
    The 150 KB ladder meets the closed pipe while it is written, the small
    analysis only when stdout is flushed."""
    src = str(Path(main.__code__.co_filename).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte
    err = tmp_path / "err"
    try:
        with err.open("w") as ferr:
            proc = subprocess.run([sys.executable, "-m", "wsatlab.cli", *argv],
                                  stdout=write_end, stderr=ferr, timeout=60,
                                  env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert (proc.returncode, err.read_text()) == (141, "")


def test_ladder_exp_refuses_a_ladder_too_large_for_the_host(capsys):
    for params in (["--alpha", "2", "--beta", "3"], ["--p", "0.5", "--height", "10"]):
        code, out, err = run(capsys, "ladder-exp", "--n", "10", "--pattern", "K4",
                             "--trials", "3", *params)
        assert (code, out, err) == (2, "", "error: ladder does not fit in the host\n")


def test_ladder_exp_refuses_a_pattern_without_a_ladder(capsys):
    """K_2 has no pair of non-incident edges: a usage error with either
    parameter pair, not an internal one."""
    for params in (["--alpha", "2", "--beta", "0.3"], ["--p", "0.5", "--height", "1"]):
        code, out, err = run(capsys, "ladder-exp", "--n", "20", "--pattern", "K2",
                             "--trials", "3", *params)
        assert code == 2 and out == "" and "non-incident edges" in err


def test_ladder_exp_json_is_strict(capsys):
    """Values undefined for 0 <= alpha <= 1 are null, not NaN or Infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    for alpha in ("0", "0.5", "1"):
        code, out, _ = run(capsys, "ladder-exp", "--n", "5", "--pattern", "K4",
                           "--alpha", alpha, "--beta", "0.3", "--trials", "3",
                           "--no-timing")
        assert code == 0
        r = json.loads(out, parse_constant=reject)["result"]
        assert r["gamma"] is None
        assert r["constraints_satisfied"] is False
        assert (r["constraint_values"]["vh2_log_alpha"] is None) == (alpha == "0")


def test_json_determinism(capsys, path4_file):
    args = ["witness", "--input", path4_file, "--pattern", "K3",
            "--target", "0 2", "--no-timing"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# -- golden output --------------------------------------------------------------

GOLDEN = Path(__file__).with_name("cli_golden.txt")

# Input files, written to the working directory before the commands run.
GOLDEN_FILES = {
    "graph.el": "8\n0 1\n0 2\n1 2\n1 3\n2 3\n3 4\n4 5\n3 5\n5 6\n6 7\n4 6\n0 7\n",
    "k4.g6": "C~\n",
}

# README's command list, then one run of each remaining path: a non-clique
# close, a graph6 pattern file, ladder count, JSON curves and K_{3,3}.
GOLDEN_COMMANDS = [
    "analyze --pattern K5",
    "percolate --input graph.el --pattern K4",
    "close --input graph.el --pattern K3 --trace trace.json",
    "witness --input graph.el --pattern K3 --target '0 3' --rea",
    "ladder build --pattern K5 --height 3",
    "ladder verify --pattern K5 --height 2",
    "census --n 4 --pattern K4",
    "curve --n 60 --pattern K4 --grid 0.02,0.04,0.08 --trials 200 --seed 1",
    "pc-search --n 80 --pattern K3 --trials 200 --seed 7",
    "ladder-exp --n 50 --pattern K4 --alpha 2 --beta 0.3 --trials 100 --seed 1",
    "verify --suite appendix --vmax 5",
    "close --input graph.el --pattern K2,3",
    "witness --input graph.el --pattern k4.g6 --target '3 6' --rea",
    "ladder count --pattern K4 --height 1 --host graph.el --base '0 3'",
    "curve --n 16 --pattern DD4 --grid 0.3,0.5 --trials 10 --seed 2 --format json",
    "pc-search --n 20 --pattern K3,3 --trials 10 --seed 3 --tol 0.3",
]


def cli_transcript() -> str:
    """The exit code and ``--no-timing`` stdout of every golden command, run
    in the current directory, plus the round trace that ``close`` writes.

    To regenerate the golden file after a deliberate output change, run from
    an empty directory:
    ``python -c "import sys; sys.path[:0] = ['<repo>/src', '<repo>/tests'];
    import test_cli; open('<repo>/tests/cli_golden.txt', 'w').write(test_cli.cli_transcript())"``
    """
    for name, text in GOLDEN_FILES.items():
        Path(name).write_text(text)
    out = []
    for cmd in GOLDEN_COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(shlex.split(cmd) + ["--no-timing"])
        out.append(f"$ wsat {cmd}\n{buf.getvalue()}[exit {code}]\n")
    out.append(f"$ cat trace.json\n{Path('trace.json').read_text()}\n")
    return "".join(out)


def test_cli_output_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_transcript() == GOLDEN.read_text()

"""End-to-end checks of the command line interface, run in process, but
for the broken pipe, which needs a real one."""

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ewtab
from ewtab import cli, permutations, sandpile, serialize, tableaux, trees
from ewtab.cli import main
from ewtab.diagrams import FerrersDiagram, enumerate_diagrams
from ewtab.errors import DomainError
from ewtab.tableaux import EWTableau


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_graph_text(capsys):
    code, out, err = run(capsys, "graph", "--shape", "3,2,1")
    assert code == 0
    lines = out.splitlines()
    assert "shape: 3,2,1" in lines
    assert "rows: 0,2,4" in lines
    assert "cols: 5,3,1" in lines
    assert "degrees: 1,2,2,1,3" in lines
    assert "spanning-trees: 4" in lines


def test_graph_text_exact(capsys):
    code, out, err = run(capsys, "graph", "--shape", "5,3,3,2")
    assert code == 0
    assert out == (
        "shape: 5,3,3,2\n"
        "semiperimeter: 9\n"
        "n: 8\n"
        "rows: 0,3,4,6\n"
        "cols: 8,7,5,2,1\n"
        "degrees: 1,1,3,3,3,2,4,4\n"
        "edges: 13\n"
        "spanning-trees: 216\n"
    )


def test_graph_json(capsys):
    code, out, err = run(capsys, "graph", "--shape", "3,2,1",
                         "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["shape"] == [3, 2, 1]
    assert obj["n"] == 5
    assert obj["spanning_trees"] == 4


def test_convert_config_to_perm(capsys):
    code, out, err = run(capsys, "convert", "--from", "config", "--to",
                         "perm", "--shape", "5,3,3,2", "--data",
                         "0,0,2,1,0,0,3,2")
    assert code == 0
    assert out.strip() == "12738645"


def test_convert_config_to_tableau_decorated(capsys):
    code, out, err = run(capsys, "convert", "--from", "config", "--to",
                         "tableau", "--shape", "3,2,1", "--data", "0,1,1,0,2")
    assert code == 0
    assert out.strip() == "111/00/0^0,1,0,0,0"


def test_convert_tableau_to_config(capsys):
    code, out, err = run(capsys, "convert", "--from", "tableau", "--to",
                         "config", "--data", "111/00/0^0,1,0,0,0")
    assert code == 0
    assert out.strip() == "0,1,1,0,2"


def test_convert_perm_to_tree_and_back(capsys):
    caret = "6^0 9^0 - 5^1 4^1 2^0 1^1 - 3^1 7^2 8^1"
    code, out, err = run(capsys, "convert", "--from", "perm", "--to", "tree",
                         "--data", caret)
    assert code == 0
    assert out.strip() == ".,6,9,2,6,6,0,4,2,0"
    code, out, err = run(capsys, "convert", "--from", "tree", "--to", "perm",
                         "--data", ".,6,9,2,6,6,0,4,2,0")
    assert code == 0
    assert out.strip() == caret


def test_convert_tree_to_perm_json(capsys):
    code, out, err = run(capsys, "convert", "--from", "tree", "--to", "perm",
                         "--data", ".,6,9,2,6,6,0,4,2,0", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "perm": [6, 9, 5, 4, 2, 1, 3, 7, 8],
        "decorations": [1, 0, 1, 1, 1, 0, 2, 1, 0],
    }


def test_convert_perm_to_tree_dot(capsys):
    code, out, err = run(capsys, "convert", "--from", "perm", "--to", "tree",
                         "--data", "695421378", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph tree {")
    assert "0 -> 9;" in out


def test_convert_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0,0,2,1,0,0,3,2"))
    code, out, err = run(capsys, "convert", "--from", "config", "--to",
                         "perm", "--shape", "5,3,3,2")
    assert code == 0
    assert out.strip() == "12738645"


def test_stabilize_graph_route(capsys):
    code, out, err = run(capsys, "stabilize", "--shape", "4,4,4,3",
                         "--heights", "1,3,1,0,2,4,3", "--via", "graph")
    assert code == 0
    assert "heights: 3,1,2,2,3,1,0" in out


def test_stabilize_graph_route_trace_adds_counts_to_text(capsys):
    argv = ["stabilize", "--shape", "4,4,4,3", "--heights", "1,3,1,0,2,4,3",
            "--via", "graph"]
    assert run(capsys, *argv)[1] == "heights: 3,1,2,2,3,1,0\n"
    assert run(capsys, *argv, "--trace")[1] == (
        "heights: 3,1,2,2,3,1,0\ncounts: 0,1,0,0,0,1,1\n")
    expected = {"heights": [3, 1, 2, 2, 3, 1, 0], "counts": [0, 1, 0, 0, 0, 1, 1]}
    for trace in ([], ["--trace"]):
        out = run(capsys, *argv, "--format", "json", *trace)[1]
        assert json.loads(out) == expected


def test_stabilize_perm_route_with_trace(capsys):
    code, out, err = run(capsys, "stabilize", "--shape", "4,4,4,3",
                         "--heights", "1,3,1,0,2,4,3", "--via", "perm",
                         "--trace")
    assert code == 0
    lines = out.splitlines()
    assert "heights: 3,1,2,2,3,1,0" in lines
    assert "perm: 3^0 5^0 - 4^0 1^1 - 6^0 - 2^0 - 7^0" in lines
    trace = [ln for ln in lines if ln.startswith(("topple", "settle"))]
    assert trace == [
        "topple 6 -> 7^0 - 2^1 - 3^0 5^0 - 4^0 1^1 - 6^0",
        "topple 2 -> 3^0 5^0 7^1 - 4^0 1^1 - 6^0 - 2^0",
        "topple 7 -> 3^0 5^0 - 4^0 1^1 - 6^0 - 2^0 - 7^0",
    ]


def test_stabilize_routes_agree(capsys):
    for heights in ("2,4,1,1,2,0,3", "1,3,1,0,2,4,3"):
        code_g, out_g, _ = run(capsys, "stabilize", "--shape", "4,4,4,3",
                               "--heights", heights, "--via", "graph")
        code_p, out_p, _ = run(capsys, "stabilize", "--shape", "4,4,4,3",
                               "--heights", heights, "--via", "perm")
        assert code_g == code_p == 0
        line_g = [l for l in out_g.splitlines() if l.startswith("heights:")]
        line_p = [l for l in out_p.splitlines() if l.startswith("heights:")]
        assert line_g == line_p


def test_stabilize_perm_route_beyond_oracle_budget(capsys):
    # 6^6 stable configurations on 11 vertices: far past any enumeration
    argv = ["stabilize", "--shape", "6,6,6,6,6,6",
            "--heights", "9,0,7,1,6,2,5,3,4,8,6"]
    code_g, out_g, _ = run(capsys, *argv, "--via", "graph")
    code_p, out_p, err_p = run(capsys, *argv, "--via", "perm")
    assert code_g == 0
    assert code_p == 0, err_p
    line_g = [l for l in out_g.splitlines() if l.startswith("heights:")]
    line_p = [l for l in out_p.splitlines() if l.startswith("heights:")]
    assert line_g == line_p and line_g


def test_enumerate_recurrent(capsys):
    code, out, err = run(capsys, "enumerate", "--shape", "3,2,1", "--kind",
                         "recurrent")
    assert code == 0
    assert out.splitlines() == [
        "0,0,1,0,2",
        "0,1,0,0,2",
        "0,1,1,0,1",
        "0,1,1,0,2",
        "count: 4",
    ]


def test_enumerate_decorated(capsys):
    code, out, err = run(capsys, "enumerate", "--shape", "2,2", "--kind",
                         "decorated")
    assert code == 0
    assert out.splitlines() == [
        "11/00^0,0,0",
        "11/00^1,0,0",
        "11/01^0,0,0",
        "11/10^0,0,0",
        "count: 4",
    ]


def test_enumerate_json(capsys):
    code, out, err = run(capsys, "enumerate", "--shape", "3,2,1", "--kind",
                         "recurrent", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0]) == {"shape": [3, 2, 1],
                                    "heights": [0, 0, 1, 0, 2]}
    assert json.loads(lines[-1]) == {"count": 4}


def test_enumerate_tableaux_json_exact(capsys):
    code, out, err = run(capsys, "enumerate", "--shape", "3,2,1", "--kind",
                         "tableaux", "--format", "json")
    assert code == 0
    assert out == (
        '{"shape": [3, 2, 1], "rows": ["111", "00", "0"]}\n'
        '{"shape": [3, 2, 1], "rows": ["111", "01", "0"]}\n'
        '{"shape": [3, 2, 1], "rows": ["111", "10", "0"]}\n'
        '{"count": 3}\n'
    )


def test_enumerate_minimal_exact(capsys):
    code, out, err = run(capsys, "enumerate", "--shape", "3,2,1", "--kind",
                         "minimal")
    assert code == 0
    assert out == "0,0,1,0,2\n0,1,0,0,2\n0,1,1,0,1\ncount: 3\n"


def test_enumerate_kinds_count(capsys):
    for kind, count in [("stable", 12), ("minimal", 3), ("tableaux", 3)]:
        code, out, err = run(capsys, "enumerate", "--shape", "3,2,1",
                             "--kind", kind)
        assert code == 0
        assert out.splitlines()[-1] == "count: %d" % count


def test_certify_single_shape(capsys):
    code, out, err = run(capsys, "certify", "--shape", "3,2,1",
                         "--grain-steps", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("PASS 3,2,1")
    assert lines[-1] == "certified 1 shapes, 0 failing"


def test_certify_sweep(capsys):
    code, out, err = run(capsys, "certify", "--semiperimeter-max", "4",
                         "--grain-steps", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8  # 1 + 1 + 2 + 4 shapes, plus the summary
    assert lines[-1] == "certified 7 shapes, 0 failing"
    assert all(ln.startswith("PASS") for ln in lines[:-1])


def test_certify_rejects_negative_grain_steps(capsys):
    code, out, err = run(capsys, "certify", "--shape", "2,1",
                         "--grain-steps", "-5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--grain-steps" in err


def test_certify_rejects_a_sweep_below_semiperimeter_2(capsys):
    code, out, err = run(capsys, "certify", "--semiperimeter-max", "1")
    assert (code, out, err) == (
        2, "", "error: --semiperimeter-max must be at least 2\n")


def test_certify_sweep_builds_one_semiperimeter_at_a_time(capsys, monkeypatch):
    built = []

    def counting_enumerate(m):
        built.append(m)
        return enumerate_diagrams(m)

    monkeypatch.setattr(cli, "enumerate_diagrams", counting_enumerate)
    monkeypatch.setenv("EWTAB_ORACLE_BUDGET", "1")
    code, out, err = run(capsys, "certify", "--semiperimeter-max", "21",
                         "--grain-steps", "5")
    assert code == 3
    assert out == "PASS 1 (15 checks)\n"  # stopped at 1,1
    assert err.startswith("error:")
    assert built == [2, 3]


def test_certify_json(capsys):
    code, out, err = run(capsys, "certify", "--shape", "2,2",
                         "--grain-steps", "5", "--format", "json")
    assert code == 0
    rep = json.loads(out.splitlines()[0])
    assert rep["shape"] == [2, 2]
    assert rep["pass"] is True


def test_exit_code_format_error(capsys):
    code, out, err = run(capsys, "convert", "--from", "config", "--to",
                         "perm", "--shape", "3,2,1", "--data", "9,9,9")
    assert code == 2
    assert err.startswith("error:")


def test_exit_code_domain_error(capsys):
    code, out, err = run(capsys, "stabilize", "--shape", "3,2,1",
                         "--heights", "0,0,0,0,0", "--via", "perm")
    assert code == 3
    assert "dominate" in err


def test_exit_code_budget_error(capsys, monkeypatch):
    monkeypatch.setenv("EWTAB_ORACLE_BUDGET", "2")
    code, out, err = run(capsys, "enumerate", "--shape", "3,2,1", "--kind",
                         "stable")
    assert code == 3
    assert err.startswith("error:")


def test_exit_code_malformed_budget(capsys, monkeypatch):
    monkeypatch.setenv("EWTAB_ORACLE_BUDGET", "abc")
    code, out, err = run(capsys, "enumerate", "--shape", "3,2,1", "--kind",
                         "stable")
    assert code == 2
    assert err.startswith("error:") and "EWTAB_ORACLE_BUDGET" in err


def test_convert_rejects_float_letters(capsys):
    code, out, err = run(capsys, "convert", "--from", "perm", "--to",
                         "config", "--data", '{"perm": [1.9, 2, 3]}')
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("data", ["1^\u00b2", "\u00b2"])
def test_convert_rejects_digits_int_cannot_read(capsys, data):
    # a superscript two is a digit to str.isdigit, but int() refuses it
    code, out, err = run(capsys, "convert", "--from", "perm", "--to", "perm",
                         "--data", data)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_convert_rejects_unreadable_row_decoration(capsys):
    code, out, err = run(capsys, "convert", "--from", "tableau", "--to",
                         "perm", "--data", "11\n0 ^x\n^ 0 0")
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_convert_rejects_numbers_as_tableau_rows(capsys):
    code, out, err = run(capsys, "convert", "--from", "tableau", "--to",
                         "perm", "--data", '{"rows": [11, 10]}')
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def striped_filling(width):
    """Rows of a width x width filling: 1s on top, then rows alternating
    0101... and 1010..., so that nearly every pair of lower rows and
    columns forms a bad rectangle."""
    stripes = ("01" * width)[:width], ("10" * width)[:width]
    return ["1" * width] + [stripes[i % 2] for i in range(width - 1)]


def test_invalid_tableau_is_refused_at_its_first_problem(capsys):
    # The first problem lies in rows 0..2 and columns 0..1, which every
    # width from 3 up shares, so a small filling names it.
    small = EWTableau(FerrersDiagram((8,) * 8), striped_filling(8))
    first = tableaux.validate(small)[0]
    start = time.perf_counter()
    code, out, err = run(capsys, "convert", "--from", "tableau", "--to",
                         "perm", "--data", "/".join(striped_filling(200)))
    assert time.perf_counter() - start < 2
    assert code == 3
    assert out == ""
    assert err == "error: not an EW-tableau: %r\n" % (first,)


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "perm.txt"
    code, out, err = run(capsys, "convert", "--from", "config", "--to",
                         "perm", "--shape", "5,3,3,2", "--data",
                         "0,0,2,1,0,0,3,2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "12738645"


def test_cached_parser_keeps_no_state_between_calls(capsys, tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    stab = ["stabilize", "--shape", "4,4,4,3", "--heights", "1,3,1,0,2,4,3"]
    calls = [
        stab + ["--via", "perm", "--trace"],
        stab + ["--via", "perm"],
        stab,
        ["graph", "--shape", "3,2,1", "--format", "json", "--out", str(target)],
        ["graph", "--shape", "3,2,1"],
        ["stabilize", "--shape", "2,1"],  # --heights is missing
        ["stabilize", "--shape", "2,1", "--heights", "0,2,5"],
        ["--help"],
        ["certify", "--shape", "2,1", "--grain-steps", "5"],
        ["certify", "--semiperimeter-max", "3", "--grain-steps", "5"],
    ]

    def outcomes():
        seen = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as e:
                code = ("exit", e.code)
            written = target.read_text() if target.exists() else None
            target.unlink(missing_ok=True)
            seen.append((argv, code, *capsys.readouterr(), written))
        return seen

    cli._build_parser.cache_clear()
    cached = outcomes()
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = outcomes()
    assert cached == fresh
    codes = [seen[1] for seen in fresh]
    assert codes == [0, 0, 0, 0, 0, ("exit", 2), 0, ("exit", 0), 0, 0]
    assert "--heights" in fresh[5][3]


@pytest.mark.parametrize("where, code", [("missing/x", errno.ENOENT), ("", errno.EISDIR)],
                         ids=["missing-directory", "directory"])
def test_out_flag_reports_a_file_it_cannot_write(capsys, tmp_path, where, code):
    target = tmp_path / where
    assert run(capsys, "graph", "--shape", "1", "--out", str(target)) == (
        2, "", "error: cannot write %s: %s\n" % (target, os.strerror(code)))


@pytest.mark.parametrize("argv", [
    ["graph", "--shape", "2,1", "--format", "dot"],
    ["convert", "--from", "perm", "--to", "tree", "--data", "1 1"],
], ids=["dot-not-a-tree", "not-a-permutation"])
def test_out_flag_leaves_the_file_of_a_refused_request_as_it_was(capsys, tmp_path, argv):
    target = tmp_path / "kept.txt"
    target.write_text("kept\n")
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert target.read_text() == "kept\n"


def test_broken_pipe_ends_quietly():
    # 128,000 lines, more than a pipe buffer holds: the writer is still
    # writing when the reader goes away
    env = dict(os.environ, PYTHONPATH=str(Path(ewtab.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ewtab", "enumerate", "--shape", "5,5,5,5",
         "--kind", "stable"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"0,0,0,0,0,0,0,0\n"
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_dot_only_for_trees(capsys):
    code, out, err = run(capsys, "convert", "--from", "config", "--to",
                         "perm", "--shape", "5,3,3,2", "--data",
                         "0,0,2,1,0,0,3,2", "--format", "dot")
    assert code == 2


STAIRCASE_12 = ",".join(str(p) for p in range(12, 0, -1))


@pytest.fixture(scope="module")
def staircase_objects():
    """A recurrent configuration on staircase 12 (n = 23, far beyond the
    oracle budget) in all four carriers."""
    d = serialize.parse_shape(STAIRCASE_12)
    grains = [g - 1 + (v % 3 == 0) for v, g in enumerate(d.degrees, 1)]
    heights, _ = sandpile.stabilize(d, grains)
    word, deco = permutations.decorated_from_config(d, heights)
    assert permutations.config_from_decorated(word, deco) == (d, heights)
    return {
        "config": (d, heights),
        "tableau": (permutations.to_tableau(word), deco),
        "perm": (word, deco),
        "tree": trees.perm_to_tree(word, deco),
    }


def _staircase_input(src, objects):
    if src == "config":
        return ["--shape", STAIRCASE_12, "--data",
                serialize.config_to_text(objects["config"][1])]
    if src == "tableau":
        return ["--data", serialize.tableau_to_text(*objects["tableau"])]
    if src == "perm":
        return ["--data", serialize.perm_to_text(*objects["perm"])]
    return ["--data", serialize.tree_to_text(objects["tree"])]


def _parse_back(dst, out, objects):
    if dst == "config":
        return serialize.parse_config(out, objects["config"][0])
    if dst == "tableau":
        return serialize.parse_tableau(out)
    if dst == "perm":
        return serialize.parse_perm(out)
    return serialize.parse_tree(out)


KINDS = ("config", "tableau", "perm", "tree")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("dst", KINDS)
@pytest.mark.parametrize("src", KINDS)
def test_convert_every_pair_beyond_oracle_budget(capsys, staircase_objects,
                                                 src, dst, fmt):
    code, out, err = run(capsys, "convert", "--from", src, "--to", dst,
                         "--format", fmt,
                         *_staircase_input(src, staircase_objects))
    assert code == 0, err
    assert out.endswith("\n") and out.count("\n") == 1
    assert _parse_back(dst, out, staircase_objects) == staircase_objects[dst]


@pytest.mark.parametrize("src, data", [
    # rows that are not a Ferrers shape, in each tableau form
    ("tableau", "1/11"),
    ("tableau", "1\n11"),
    ("tableau", '{"rows": ["1", "11"]}'),
    ("tableau", '{"rows": []}'),
    # repeated letters, in each word form
    ("perm", "1 1"),
    ("perm", "11"),
    ("perm", "1^0 1^0"),
    ("perm", '{"perm": [1, 1]}'),
    ("perm", '{"perm": []}'),
])
def test_every_form_of_a_malformed_object_exits_2(capsys, src, data):
    code, out, err = run(capsys, "convert", "--from", src, "--to", "perm",
                         "--data", data)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    # decorations over the canonical bounds
    ["--from", "perm", "--to", "config", "--data", "2^5 3^0 - 1^0"],
    ["--from", "perm", "--to", "tree", "--data", "2^5 3^0 - 1^0"],
    ["--from", "tableau", "--to", "perm", "--data", "111/00/0^0,1,1,0,0"],
    ["--from", "tableau", "--to", "config", "--data", "111/00/0^0,1,1,0,0"],
    # not recurrent, not an EW-tableau, not intransitive
    ["--from", "config", "--to", "config", "--shape", "3,2,1",
     "--data", "0,0,0,0,0"],
    ["--from", "tableau", "--to", "tableau", "--data", "111/11/0"],
    ["--from", "tree", "--to", "tree", "--data", ".,0,1"],
], ids=["perm-config", "perm-tree", "tableau-perm", "tableau-config",
        "config-config", "tableau-tableau", "tree-tree"])
def test_convert_rejects_what_encodes_no_recurrent_config(capsys, argv):
    code, out, err = run(capsys, "convert", *argv)
    assert code == 3
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("entry", ["cli", "trees.perm_to_tree",
                                   "tableaux.config_from_decorated"])
def test_every_entry_rejects_a_stable_decoration_with_the_same_text(capsys, entry):
    t = EWTableau(FerrersDiagram((3, 2, 1)), ((1, 1, 1), (0, 1), (0,)))
    word, deco = permutations.from_tableau(t), (0, 0, 1, 0, 0)
    assert sandpile.classify_decoration(tableaux.canonical_toppling(t), deco) == "stable"
    if entry == "cli":
        code, out, err = run(capsys, "convert", "--from", "perm", "--to", "config",
                             "--data", serialize.perm_to_text(word, deco))
        assert (code, out) == (3, "")
    else:
        with pytest.raises(DomainError) as e:
            if entry == "trees.perm_to_tree":
                trees.perm_to_tree(word, deco)
            else:
                tableaux.config_from_decorated(t, deco)
        err = "error: %s\n" % e.value
    assert err == "error: decoration is stable, not canonical\n"

"""Text and JSON round trips for shapes, configurations, tableaux,
permutations, and trees."""

import json

import pytest

from ewtab.diagrams import FerrersDiagram
from ewtab.errors import FormatError
from ewtab import serialize
from ewtab.cli import main
from ewtab.tableaux import EWTableau


@pytest.fixture
def t5332(d5332):
    return EWTableau(d5332, ((1, 1, 1, 1, 1), (1, 0, 1), (0, 0, 1), (0, 0)))


def test_shape_text_round_trip():
    d = serialize.parse_shape("5,3,3,2")
    assert d.parts == (5, 3, 3, 2)
    assert serialize.parse_shape("5 3 3 2") == d
    assert serialize.shape_to_text(d) == "5,3,3,2"
    assert serialize.parse_shape(serialize.shape_to_text(d)) == d


def test_shape_json_round_trip():
    d = FerrersDiagram((3, 2, 1))
    blob = serialize.shape_to_json(d)
    assert blob == {"parts": [3, 2, 1]}
    assert serialize.parse_shape(json.dumps(blob)) == d


def test_shape_rejects_garbage():
    with pytest.raises(FormatError):
        serialize.parse_shape("")
    with pytest.raises(FormatError):
        serialize.parse_shape("3,a")
    with pytest.raises(FormatError):
        serialize.parse_shape('{"wrong": 1}')


def test_config_text_needs_shape(d321):
    d, h = serialize.parse_config("0,1,1,0,2", d321)
    assert (d, h) == (d321, (0, 1, 1, 0, 2))
    with pytest.raises(FormatError):
        serialize.parse_config("0,1,1,0,2")


def test_config_json_self_contained():
    blob = '{"shape": [3, 2, 1], "heights": [0, 1, 1, 0, 2]}'
    d, h = serialize.parse_config(blob)
    assert d.parts == (3, 2, 1)
    assert h == (0, 1, 1, 0, 2)


def test_config_json_shape_mismatch(d22):
    blob = '{"shape": [3, 2, 1], "heights": [0, 1, 1, 0, 2]}'
    with pytest.raises(FormatError):
        serialize.parse_config(blob, d22)


def test_config_wrong_length(d321):
    with pytest.raises(FormatError):
        serialize.parse_config("0,1,1", d321)


def test_config_to_text(d321):
    assert serialize.config_to_text((0, 1, 1, 0, 2)) == "0,1,1,0,2"
    assert serialize.config_to_json(d321, (0, 1, 1, 0, 2)) == {
        "shape": [3, 2, 1],
        "heights": [0, 1, 1, 0, 2],
    }


def test_tableau_single_line(t5332):
    text = serialize.tableau_to_text(t5332)
    assert text == "11111/101/001/00"
    t, deco = serialize.parse_tableau(text)
    assert t == t5332
    assert deco is None


def test_tableau_single_line_with_decorations(t5332):
    a = (0, 0, 1, 0, 0, 0, 0, 2)
    text = serialize.tableau_to_text(t5332, a)
    assert text == "11111/101/001/00^0,0,1,0,0,0,0,2"
    t, deco = serialize.parse_tableau(text)
    assert (t, deco) == (t5332, a)


def test_tableau_pretty_round_trip(t5332):
    a = (0, 0, 1, 0, 0, 0, 0, 2)
    pretty = serialize.tableau_to_pretty(t5332, a)
    assert pretty.splitlines()[0] == "11111"
    assert pretty.splitlines()[-1] == "^ 2 0 0 0 0"
    t, deco = serialize.parse_tableau(pretty)
    assert (t, deco) == (t5332, a)
    plain = serialize.tableau_to_pretty(t5332)
    t, deco = serialize.parse_tableau(plain)
    assert (t, deco) == (t5332, None)


def test_tableau_json_round_trip(t5332):
    blob = serialize.tableau_to_json(t5332, (0, 0, 1, 0, 0, 0, 0, 2))
    assert blob["shape"] == [5, 3, 3, 2]
    assert blob["rows"] == ["11111", "101", "001", "00"]
    assert blob["decorations"] == [0, 0, 1, 0, 0, 0, 0, 2]
    t, deco = serialize.parse_tableau(json.dumps(blob))
    assert (t, deco) == (t5332, (0, 0, 1, 0, 0, 0, 0, 2))


def test_tableau_rejects_bad_text(capsys):
    with pytest.raises(FormatError):
        serialize.parse_tableau("11x1/01")
    with pytest.raises(FormatError):
        serialize.parse_tableau("")
    # widths must not increase downward
    with pytest.raises(FormatError):
        serialize.parse_tableau("11/111")
    # Rows that int(text, 2) would read, and other digits: every form
    # refuses them before any mask is read. The pretty form strips each
    # line and skips blank ones, so a padded or an empty row is refused
    # only by the other two.
    for row in ["1_0", "+1", "1 0", "1\u00b2", "1\u0663", "1\x000", " 10", ""]:
        forms = [json.dumps({"rows": ["11", row]}), "11/" + row]
        if row and row.strip() == row:
            forms.append("11\n%s\n" % row)
        for data in forms:
            with pytest.raises(FormatError) as e:
                serialize.parse_tableau(data)
            assert str(e.value) == "%r is not a row of 0s and 1s" % row
            code = main(["convert", "--from", "tableau", "--to", "perm", "--data", data])
            assert (code, *capsys.readouterr()) == (
                2, "", "error: %r is not a row of 0s and 1s\n" % row), data
    t, _ = serialize.parse_tableau("11\n 10 \n\n")
    assert t.row_strings() == ("11", "10")


def test_perm_bare_word():
    w, deco = serialize.parse_perm("12738645")
    assert w == (1, 2, 7, 3, 8, 6, 4, 5)
    assert deco == (0,) * 8
    assert serialize.perm_to_text(w) == "12738645"


def test_perm_space_separated_for_large_n():
    word = tuple(range(1, 11))
    text = serialize.perm_to_text(word)
    assert text == "1 2 3 4 5 6 7 8 9 10"
    w, deco = serialize.parse_perm(text)
    assert w == word
    assert deco == (0,) * 10


def test_perm_caret_blocks():
    text = "3^0 5^0 8^0 - 7^0 1^2 - 4^1 9^2 - 6^1 2^4"
    w, deco = serialize.parse_perm(text)
    assert w == (3, 5, 8, 7, 1, 4, 9, 6, 2)
    assert deco == (2, 4, 0, 1, 0, 1, 0, 0, 2)
    assert serialize.perm_to_text(w, deco) == text


def test_perm_caret_blocks_must_match_runs():
    with pytest.raises(FormatError):
        serialize.parse_perm("3^0 - 5^0 8^0 7^0 1^2 4^1 9^2 6^1 2^4")


def test_perm_zero_decorations_render_bare():
    assert serialize.perm_to_text((2, 3, 1), (0, 0, 0)) == "231"
    assert serialize.perm_to_text((2, 3, 1), (1, 0, 0)) == "2^0 3^0 - 1^1"


def test_perm_json_round_trip():
    blob = serialize.perm_to_json((6, 9, 5, 4, 2, 1, 3, 7, 8),
                                  (1, 0, 1, 1, 1, 0, 2, 1, 0))
    assert blob == {
        "perm": [6, 9, 5, 4, 2, 1, 3, 7, 8],
        "decorations": [1, 0, 1, 1, 1, 0, 2, 1, 0],
    }
    w, deco = serialize.parse_perm(json.dumps(blob))
    assert w == (6, 9, 5, 4, 2, 1, 3, 7, 8)
    assert deco == (1, 0, 1, 1, 1, 0, 2, 1, 0)


def test_perm_rejects_bad_words():
    with pytest.raises(FormatError):
        serialize.parse_perm("122")
    with pytest.raises(FormatError):
        serialize.parse_perm("")
    with pytest.raises(FormatError):
        serialize.parse_perm("2 3 4")


def test_tree_text_round_trip():
    parents = (None, 6, 9, 2, 6, 6, 0, 4, 2, 0)
    text = serialize.tree_to_text(parents)
    assert text == ".,6,9,2,6,6,0,4,2,0"
    assert serialize.parse_tree(text) == parents


def test_tree_json_round_trip():
    parents = (None, 6, 9, 2, 6, 6, 0, 4, 2, 0)
    blob = serialize.tree_to_json(parents)
    assert blob == {"parent": [None, 6, 9, 2, 6, 6, 0, 4, 2, 0]}
    assert serialize.parse_tree(json.dumps(blob)) == parents


def test_tree_rejects_bad_text():
    with pytest.raises(FormatError):
        serialize.parse_tree("6,9")  # no root marker
    with pytest.raises(FormatError):
        serialize.parse_tree(".,x")
    with pytest.raises(FormatError):
        serialize.parse_tree('{"parent": [0, 1]}')


@pytest.mark.parametrize("parse, data", [
    (serialize.parse_shape, '{"parts": [3.0, 2]}'),
    (serialize.parse_shape, '{"parts": [true, 1]}'),
    (serialize.parse_shape, '{"parts": "32"}'),
    (serialize.parse_config, '{"shape": [2, 2], "heights": [0.5, 0, 0]}'),
    (serialize.parse_config, '{"shape": [2, 2], "heights": "100"}'),
    (serialize.parse_perm, '{"perm": [1.9, 2, 3]}'),
    (serialize.parse_perm, '{"perm": "123"}'),
    (serialize.parse_perm, '{"perm": [1, 2, 3], "decorations": [0, false, 0]}'),
    (serialize.parse_tableau, '{"rows": ["11", "10"], "decorations": [0, 0, "1"]}'),
    (serialize.parse_tree, '{"parent": [null, 0, 1.0]}'),
    (serialize.parse_tree, '{"parent": [null, "0", 1]}'),
])
def test_json_integer_fields_take_only_integers(parse, data):
    with pytest.raises(FormatError, match="list of integers"):
        parse(data)

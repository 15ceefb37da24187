"""The README's examples run as written: every command of its "Command
line" block, its documented refusal and its Python round trip."""

import re
import shlex
from pathlib import Path

from ewtab import cli

README = (Path(__file__).parents[1] / "README.md").read_text()


def block_after(heading, lang=""):
    """The first fenced block of the given language after a heading."""
    rest = README[README.index(heading):]
    return re.search(r"^```%s\n(.*?)^```" % lang, rest, re.M | re.S).group(1)


def test_command_line_block_runs(capsys):
    lines = block_after("## Command line").splitlines()
    assert lines
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "ewtab"
        assert cli.main(argv[1:]) == 0, line
        out, err = capsys.readouterr()
        assert out and not err, line


def test_documented_refusal(capsys):
    found = re.search(r"`ewtab (stabilize [^`]*--via perm)` prints\s+`([^`]*)`", README)
    assert found.group(1) == "stabilize --shape 3,2,1 --heights 0,0,0,0,0 --via perm"
    assert cli.main(shlex.split(found.group(1))) == 3
    assert capsys.readouterr() == ("", found.group(2) + "\n")


def test_python_round_trip_runs():
    exec(block_after("A quick round trip", "python"), {})

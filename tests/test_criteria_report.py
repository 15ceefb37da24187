"""The acceptance-criteria summary: terminal lines always, JSON lines only
when EWTAB_BENCH_OUT names a file."""

import json

import conftest


class _Reporter:
    def __init__(self):
        self.lines = []

    def section(self, title):
        self.lines.append("== %s ==" % title)

    def write_line(self, line):
        self.lines.append(line)


RESULTS = [("gate a", True, 1.5, 60), ("gate b", False, 0.25, None)]


def test_summary_lines(monkeypatch):
    monkeypatch.setattr(conftest, "ACCEPTANCE_RESULTS", list(RESULTS))
    reporter = _Reporter()
    conftest.pytest_terminal_summary(reporter)
    assert reporter.lines == ["== acceptance criteria ==",
                              "PASS gate a (1.50s of 60s)", "FAIL gate b (0.25s)"]


def test_criterion_timings_written_only_when_asked(monkeypatch, tmp_path):
    monkeypatch.setattr(conftest, "ACCEPTANCE_RESULTS", list(RESULTS))
    out = tmp_path / "criteria.jsonl"
    monkeypatch.delenv("EWTAB_BENCH_OUT", raising=False)
    conftest.pytest_sessionfinish(None, 0)
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setenv("EWTAB_BENCH_OUT", str(out))
    conftest.pytest_sessionfinish(None, 0)
    assert [json.loads(line) for line in out.read_text().splitlines()] == [
        {"name": "gate a", "pass": True, "seconds": 1.5, "budget": 60},
        {"name": "gate b", "pass": False, "seconds": 0.25, "budget": None},
    ]

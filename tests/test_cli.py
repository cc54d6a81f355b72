"""The ``repro`` command line: golden transcripts, documented examples,
and one-line errors for bad input.

Each transcript case runs :func:`repro.cli.main` in-process and compares
its stdout byte for byte with ``tests/data/cli/<case>.out``.  A
``<case>.err`` file pins stderr as well (for a usage error only its last
line, since the usage line lists every flag); without one, stderr must be
empty.  Every run reads the simulated clock only, so a transcript holds
no wall-clock figure.  To re-capture a case after an intended change, run
its argv from the repo root as ``python -m repro ...`` and redirect.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "cli"
TRACE = str(DATA / "arrivals.jsonl")

#: case name -> (argv, exit code)
CASES: dict[str, tuple[list[str], int]] = {
    "list": (["--list"], 0),
    "single_no_render": (["--query", "flights-q1", "--rows", "20000", "--no-render"], 0),
    "single_scan": (
        ["--query", "flights-q1", "--rows", "20000", "--approach", "scan", "--no-render"], 0),
    "single_k3": (["--query", "flights-q2", "--rows", "20000", "--k", "3", "--no-render"], 0),
    "single_workers_on_serial": (
        ["--query", "flights-q1", "--rows", "20000", "--workers", "2", "--no-render"], 0),
    "single_rendered": (["--query", "police-q1", "--rows", "60000"], 0),
    "batch_two_datasets": (
        ["--rows", "400000", "batch", "--queries", "flights-q1", "taxi-q1",
         "--repeat", "2"], 0),
    "batch_fused_step_rows": (
        ["batch", "--queries", "flights-q1", "flights-q3", "--rows", "20000",
         "--kernel", "fused", "--max-step-rows", "4096"], 0),
    "batch_flags_before": (
        ["--rows", "60000", "--seed", "3", "--epsilon", "0.15", "--approach",
         "syncmatch", "batch", "--queries", "police-q2", "police-q1"], 0),
    "serve_deadline_shed": (
        ["serve", "--queries", "flights-q1", "flights-q2", "--repeat", "3",
         "--rows", "150000", "--deadline-ms", "5", "--max-queue", "2"], 0),
    "serve_datasets_async": (
        ["serve", "--datasets", "flights,police", "--rows", "60000", "--async"], 0),
    "serve_async_rr": (
        ["serve", "--queries", "police-q1", "police-q2", "--rows", "60000",
         "--async", "--policy", "rr"], 0),
    "serve_trace_cost": (
        ["serve", "--trace", TRACE, "--rows", "20000", "--policy", "cost"], 0),
    "serve_flags_before": (
        ["--rows", "20000", "--seed", "5", "serve", "--queries", "flights-q2"], 0),
    "serve_usage_error": (["serve"], 2),
    "serve_unknown_dataset": (["serve", "--datasets", "flights,nope"], 1),
}


def run_cli(argv: list[str], capsys) -> tuple[int, str, str]:
    """``main(argv)`` as the interpreter would finish it: a ``SystemExit``
    carrying a message prints it to stderr and exits 1."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    err = captured.err
    if isinstance(code, str):
        err, code = err + code + "\n", 1
    return code, captured.out, err


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_transcript(case, capsys):
    argv, expected_code = CASES[case]
    code, out, err = run_cli(argv, capsys)
    assert code == expected_code
    assert out == (DATA / f"{case}.out").read_text()
    err_file = DATA / f"{case}.err"
    expected_err = err_file.read_text() if err_file.exists() else ""
    if code == 2:
        err = err.splitlines()[-1] + "\n"
    assert err == expected_err


def documented_commands() -> list[str]:
    """Every ``python -m repro ...`` line in README.md and the verify
    skill, with continuation lines joined, and comments, a trailing ``&``
    and the end of an inline code span stripped."""
    commands = []
    for doc in (REPO / "README.md", REPO / ".claude" / "skills" / "verify" / "SKILL.md"):
        text = doc.read_text().replace("\\\n", " ")
        for line in text.splitlines():
            match = re.search(r"python -m repro(\s.*)?$", line)
            if match is None:
                continue
            command = (match.group(1) or "").split("`")[0].split("#")[0]
            commands.append(command.strip().rstrip("&").strip())
    return commands


def test_documented_examples_are_found():
    # The docs show every subcommand; an empty list would pass vacuously.
    verbs = {shlex.split(c)[0] for c in documented_commands() if c and not c.startswith("-")}
    assert {"batch", "serve", "trace"} <= verbs


@pytest.mark.parametrize("command", documented_commands())
def test_documented_example_parses(command):
    build_parser().parse_args(shlex.split(command))


BAD_TRACE_EVENTS = [
    '["flights-q1"]',
    '{"query": "flights-q1", "arrival_ms": "soon"}',
    '{"query": "flights-q1", "deadline_ms": "soon"}',
    '{"query": "flights-q1", "seed": "soon"}',
    '{"query": "flights-q1", "approach": "bogus"}',
    '{"query": "flights-q1", "on_deadline": "bogus"}',
    '{"arrival_ms": 1}',
    "not json",
]


@pytest.mark.parametrize("argv, event, message", [
    (["--query", "flights-q1", "--k", "0"], None, "k must be >= 1"),
    (["--query", "flights-q1", "--epsilon", "3"], None, "epsilon must be in (0, 2)"),
    (["batch", "--queries", "flights-q1", "--delta", "1.5"], None, "delta must be in (0, 1)"),
    (["serve", "--queries", "flights-q1", "--sigma", "-1"], None, "sigma must be in [0, 1]"),
    (["--rows", "20000", "batch", "--queries", "taxi-q1"], None, "TAXI needs at least"),
    (["--query", "flights-q1", "--rows", "0"], None, "FLIGHTS needs at least"),
    (["serve", "--trace", "/nonexistent/arrivals.jsonl"], None, "cannot read trace"),
    (["serve", "--trace", "{trace}"], b"\xff\xfe", "cannot read trace"),
] + [
    (["serve", "--trace", "{trace}", "--rows", "20000"], event, "{trace}:3: bad trace event: ")
    for event in BAD_TRACE_EVENTS
] + [
    (["--query", "flights-q1", "--kernel", "classic"], None,
     "argument --kernel: invalid choice: 'classic'"),
    (["batch", "--queries", "flights-q1", "--kernel", "narrow"], None,
     "argument --kernel: invalid choice: 'narrow'"),
])
def test_bad_input_is_a_one_line_error(argv, event, message, tmp_path, capsys):
    """A bad flag value fails through the parser (exit 2) before any dataset
    is built, or at the one build a too-small --rows breaks; a bad trace
    event names its file and line (exit 1).  Neither ends in a traceback."""
    trace = tmp_path / "bad.jsonl"
    if isinstance(event, bytes):
        trace.write_bytes(event)
    else:
        trace.write_text(f'# header\n{{"query": "flights-q1"}}\n{event}\n')
    argv = [arg.replace("{trace}", str(trace)) for arg in argv]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    code, message = excinfo.value.code, message.replace("{trace}", str(trace))
    if code == 2:
        assert message in capsys.readouterr().err.splitlines()[-1]
    else:
        assert isinstance(code, str) and "\n" not in code
        assert message in code

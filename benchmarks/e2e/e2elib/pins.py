"""Input and answer pinning.

``pins.json`` records, per (mode, workload), a hash of every generated
column and ground-truth matrix, and — for the default seed — a fingerprint
of every answer the run can produce (matching set, histograms, stats,
effort counters, simulated elapsed time).  A run fails loudly when either
moved — "inputs changed" when ``src/repro/data`` (or the generator recipe)
did, "answers changed" when a sampling decision did — so neither can move
the benchmark's numbers unnoticed.  The datasets do not depend on
``--seed``, so the inputs are checked on every run; any seed but the
default skips the answers, and still runs every audit and identity check.
"""

from __future__ import annotations

import json
from pathlib import Path

DEFAULT_SEED = 7
PINS_PATH = Path(__file__).resolve().parent.parent / "pins.json"


class PinMismatch(RuntimeError):
    pass


def load() -> dict:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())


def _diff(pinned: dict, seen: dict, partial: bool) -> list[str]:
    """Keys whose value moved.  ``partial``: only keys on both sides count
    (a run executes as many ops as fit its seconds, and pins are recorded
    by a run too)."""
    moved = [key for key, value in seen.items()
             if pinned.get(key, value if partial else None) != value]
    if not partial:
        moved += [key for key in pinned if key not in seen]
    return sorted(moved)


def check(mode: str, workload: str, inputs: dict, answers: dict | None) -> str:
    """What was checked, or raise :class:`PinMismatch`; ``"unpinned"`` when
    the file has no entry for this (mode, workload).  ``answers=None``
    (not the default seed) checks the inputs only."""
    entry = load().get(mode, {}).get(workload)
    if entry is None:
        return "unpinned"
    moved = _diff(entry["inputs"], inputs, partial=False)
    if moved:
        raise PinMismatch(
            f"inputs changed for {workload} ({mode}): {', '.join(moved[:6])}"
            f"{' ...' if len(moved) > 6 else ''} — the generated data is not what "
            "pins.json recorded; re-record with --update-pins if intended")
    if answers is None:
        return "inputs ok (answers are pinned for the default seed only)"
    moved = _diff(entry["answers"], answers, partial=True)
    if moved:
        raise PinMismatch(
            f"answers changed for {workload} ({mode}): {', '.join(moved[:6])}"
            f"{' ...' if len(moved) > 6 else ''} — same inputs, different matching "
            "set / stats / simulated time; re-record with --update-pins if intended")
    return "inputs and answers ok"


def update(mode: str, workload: str, inputs: dict, answers: dict) -> None:
    """Record (merging answers into what is already pinned, since one run
    may not reach every op)."""
    pins = load()
    entry = pins.setdefault(mode, {}).setdefault(workload, {"inputs": {}, "answers": {}})
    if entry["inputs"] != inputs:
        entry["inputs"], entry["answers"] = dict(inputs), {}
    entry["answers"].update(answers)
    entry["answers"] = dict(sorted(entry["answers"].items()))
    pins["seed"] = DEFAULT_SEED
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

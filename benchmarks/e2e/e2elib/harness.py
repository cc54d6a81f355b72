"""Measurement plumbing shared by the four workloads.

Everything timed here is ``time.perf_counter_ns`` wall time.  A workload
hands back one :class:`OpRecord` per operation; :func:`reduce_rounds`
turns the records into the end-to-end metrics — each metric is computed
per round (three equal rounds) and the reported value is the median of the
three, so one disturbed round cannot move a metric.  Timings that go into
an end-to-end metric are first divided by the round's host slow-down, read
off a :class:`HostProbe` timed between the ops.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import platform
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROUNDS = 3
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-"

#: The guarantee's δ: an audited op may fail with at most this probability,
#: so a run is correct while its failed share stays within it.
DELTA = 0.01


@dataclass
class OpRecord:
    """One timed operation."""

    round: int
    latency_ns: int
    rows: int  # rows delivered to counting
    scan_ms: float  # median wall of the exact scan of this op's query
    ok: bool
    key: str = ""  # which query/template, for per-query tables
    note: str = ""  # why it failed, when it did


@dataclass
class Metric:
    value: float
    unit: str
    n: int = 1  # samples behind the value
    q1: float | None = None
    q3: float | None = None
    rounds: list = field(default_factory=list)

    def to_json(self) -> dict:
        doc = {"value": self.value, "unit": self.unit, "n": self.n}
        if self.q1 is not None:
            doc["q1"], doc["q3"] = self.q1, self.q3
        if self.rounds:
            doc["rounds"] = self.rounds
        return doc


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def geomean(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.exp(np.log(values).mean()))


def _of_rounds(per_round: list[float], unit: str, n: int) -> Metric:
    q1, q3 = quartiles(per_round)
    return Metric(statistics.median(per_round), unit, n=n, q1=q1, q3=q3,
                  rounds=per_round)


def reduce_rounds(records: list[OpRecord], round_seconds: list[float] | None = None,
                  slowdown: list[float] | None = None) -> dict[str, Metric]:
    """End-to-end metrics of one measured pass.

    ``round_seconds`` is the timed wall of each round; a closed loop passes
    ``None`` and the wall is the sum of the round's op latencies (one
    client, so the system is busy exactly while an op runs and the checks
    the benchmark does between ops are not charged to it).  An open loop
    passes the phase third's length, which its schedule fixes.

    ``slowdown`` is each round's :meth:`HostProbe.slowdown`; latencies (and
    with them a closed loop's wall) are divided by it, so they read in ms at
    the reference host's speed.  ``None`` leaves them as the wall time they
    were measured as.  ``speedup_vs_scan`` needs none: its scans are timed
    in the same round.
    """
    per_round: dict[str, list[float]] = {
        "latency_ms_p50": [], "latency_ms_p95": [], "throughput_ops_s": [],
        "rows_per_s": [], "speedup_vs_scan": [],
    }
    for index in range(ROUNDS):
        ops = [r for r in records if r.round == index]
        if not ops:
            raise RuntimeError(f"round {index} measured no operations")
        factor = slowdown[index] if slowdown is not None else 1.0
        latency_ms = [r.latency_ns * 1e-6 / factor for r in ops]
        wall_s = (
            round_seconds[index] if round_seconds is not None
            else sum(latency_ms) * 1e-3
        )
        good = [r for r in ops if r.ok]
        per_round["latency_ms_p50"].append(percentile(latency_ms, 50))
        per_round["latency_ms_p95"].append(percentile(latency_ms, 95))
        per_round["throughput_ops_s"].append(len(good) / wall_s)
        per_round["rows_per_s"].append(sum(r.rows for r in ops) / wall_s)
        per_round["speedup_vs_scan"].append(
            geomean([r.scan_ms / (r.latency_ns * 1e-6) for r in ops])
        )
    units = {
        "latency_ms_p50": "ms", "latency_ms_p95": "ms", "throughput_ops_s": "ops/s",
        "rows_per_s": "rows/s", "speedup_vs_scan": "ratio",
    }
    return {
        name: _of_rounds(values, units[name], len(records))
        for name, values in per_round.items()
    }


def speedup_by_key(records: list[OpRecord]) -> dict[str, float]:
    """Wall speedup vs the exact scan (base = the scan), per query/template."""
    by_key: dict[str, list[float]] = {}
    for record in records:
        by_key.setdefault(record.key, []).append(
            record.scan_ms / (record.latency_ns * 1e-6))
    return {key: geomean(values) for key, values in sorted(by_key.items())}


def median_metric(samples: list[float], unit: str) -> Metric:
    q1, q3 = quartiles(samples)
    return Metric(statistics.median(samples), unit, n=len(samples), q1=q1, q3=q3,
                  rounds=list(samples))


@contextmanager
def gc_quiet():
    """Collect, then keep the cyclic GC out of the timed region."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


class RoundClock:
    """Splits ``seconds`` of measuring into :data:`ROUNDS` equal rounds,
    advanced at sweep boundaries."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.perf_counter()
        self.round = 0
        self._started = False

    def next_sweep(self) -> bool:
        """Call before each sweep; False once the time is used up.  Every
        round gets at least one sweep, however short the run."""
        if not self._started:
            self._started = True
            return True
        elapsed = time.perf_counter() - self.start
        if int(elapsed / (self.seconds / ROUNDS)) > self.round:
            if self.round == ROUNDS - 1:
                return False
            self.round += 1
        return True


class HostProbe:
    """A fixed piece of NumPy work of the benchmark's own — two bincounts
    (a small and a large code space), a sorted gather and a column sum, the
    stuff the program's counting path is made of — timed between the ops to
    tell how fast the host is at that moment.

    The reference host's speed is set from outside the guest and stays
    changed for longer than a run (README, *Noise*): all its timings rise
    together by a tenth to a half for minutes, so ten runs of one commit
    spread by as much as the regression bound.  Dividing a round's
    latencies by the probe's slow-down in that round takes most of that
    out (a 13% range over seven minutes became 4-5% on table4_oneshot, 32%
    became 19% on fullpass_backends, whose pools feel a busy second CPU
    more than one thread does).  The probe calls nothing of the program, so
    no change to the program can move it."""

    #: The probe's time on the reference host at its usual speed; with it,
    #: normalised times read as that host's milliseconds.
    REFERENCE_MS = 2.45

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.codes_small = rng.integers(0, 1536, 400_000)
        self.codes_large = rng.integers(0, 183_000, 400_000)
        self.column = rng.integers(0, 1000, 2_000_000)
        self.rows = np.sort(rng.integers(0, 2_000_000, 200_000))
        self.samples: dict[int, list[float]] = {}  # round -> probe wall ms

    def _work(self) -> None:
        np.bincount(self.codes_small, minlength=1536)
        np.bincount(self.codes_large, minlength=183_000)
        self.column.take(self.rows)
        self.column.sum()

    def time(self, round_index: int) -> None:
        """Time the second of two passes: the first finds in the cache
        whatever the program's last op left there (it took twice as long,
        and how long would be the program's doing); the second finds its
        own arrays, as far as the host lets them stay."""
        self._work()
        t0 = time.perf_counter_ns()
        self._work()
        self.samples.setdefault(round_index, []).append(
            (time.perf_counter_ns() - t0) * 1e-6)

    def slowdown(self) -> list[float]:
        """Per round: median probe time / reference time (1.25 = the host
        ran the probe a quarter slower than the reference host does).  A
        round too short to have been probed takes the whole pass's median."""
        every = [ms for samples in self.samples.values() for ms in samples]
        return [statistics.median(self.samples.get(index) or every) / self.REFERENCE_MS
                for index in range(ROUNDS)]


# --------------------------------------------------------------------- memory


def shm_segments(own_only: bool = False) -> list[Path]:
    """``repro-*`` shared-memory segments currently in /dev/shm."""
    if not SHM_DIR.is_dir():
        return []
    prefix = f"{SHM_PREFIX}{os.getpid()}-" if own_only else SHM_PREFIX
    return sorted(p for p in SHM_DIR.iterdir() if p.name.startswith(prefix))


def shm_bytes() -> int:
    total = 0
    for path in shm_segments():
        try:
            total += path.stat().st_size
        except FileNotFoundError:
            pass
    return total


class MemoryWatch:
    """Peak resident memory of this process plus the peak of the live
    ``repro-*`` segments, sampled where the benchmark calls :meth:`sample`
    (workers' private memory is not included).

    The resident peak is read once the measured pass has done a fixed
    amount of work (:meth:`mark_rss`), not when its time is up: the
    program's memory grows with the ops it has served, so a peak taken at
    the end would mostly say how many ops a faster or slower host fitted
    into the run."""

    def __init__(self) -> None:
        self.peak_shm = 0
        self.marked_rss_kib: int | None = None

    def sample(self) -> None:
        self.peak_shm = max(self.peak_shm, shm_bytes())

    def mark_rss(self) -> None:
        if self.marked_rss_kib is None:
            self.marked_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.sample()

    def peak_rss_mb(self) -> float:
        self.mark_rss()  # a run too short to reach the mark: its end
        return self.marked_rss_kib / 1024.0 + self.peak_shm / 2**20


# ----------------------------------------------------------------------- host


def host_block() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": load,
    }


def workers() -> int:
    return min(os.cpu_count() or 1, 4)


PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>
ORPHAN_GRACE_S = 20.0


def adopt_orphans() -> None:
    """Make this process the parent of any descendant whose own parent
    exits (a Linux child subreaper), so that :func:`stop_child_processes`
    can wait for it.  A sharded pool forked before this process has a
    resource tracker gives every worker a tracker of its own, which outlives
    its worker — and, unadopted, the run — by the moment its clean-up takes."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, as they always did


def _child_pids() -> list[int]:
    me, children = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue
            if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
                children.append(int(entry))
    return children


def stop_child_processes() -> None:
    """Stop and wait for every process this one started, so that none
    outlives the run: pool workers a failed run left behind, multiprocessing's
    resource tracker — started by the first shared-memory segment, it exits
    only once this process lets go of its pipe — and the adopted orphans.
    Call it once every backend and store is closed: unlinking a segment
    after this starts a new tracker."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    # The tracker reads to the end of a pipe whose write end we (and, under
    # fork, the workers joined above) hold; _stop() closes ours and waits.
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    # Whatever is left is on its way out (a dead worker's tracker); past the
    # grace period it is killed.
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                for child_pid in _child_pids():
                    os.kill(child_pid, signal.SIGKILL)
            time.sleep(0.005)


# --------------------------------------------------------------------- hashing


def array_hash(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str((array.dtype.str, array.shape)).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def result_fingerprint(report, with_clock: bool = True) -> str:
    """Hash of everything a run answers: the matching set, histograms,
    distances, stats, effort counters and (on the simulated clock) elapsed
    time.  Equal fingerprints mean byte-identical answers."""
    result = report.result
    digest = hashlib.sha256()
    digest.update(repr(result.matching).encode())
    digest.update(np.ascontiguousarray(result.histograms).tobytes())
    digest.update(np.ascontiguousarray(result.distances).tobytes())
    digest.update(repr((result.pruned, result.exact, result.stats)).encode())
    digest.update(repr(sorted(report.counters.items())).encode())
    if with_clock:
        digest.update(repr(report.elapsed_ns).encode())
    return digest.hexdigest()[:16]

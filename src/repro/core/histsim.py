"""The HistSim algorithm (paper Algorithm 1, Section 3).

Three stages, each spending an error budget of δ/3:

1. **Prune rare candidates** — ``m`` uniform samples; hypergeometric
   under-representation P-values; Holm–Bonferroni rejection removes
   candidates that are rare (``N_i/N < σ``) with family-wise confidence.
2. **Identify the top-k** — rounds of fresh samples.  Each round picks the
   empirical matching set ``M`` and a split point ``s``, budgets fresh
   samples per candidate (Eq. 1), then runs the union-intersection test of
   Lemma 4 with P-values from Theorem 1's concentration bound.  ``δ_upper``
   halves each round so the union over rounds stays below δ/3.
3. **Reconstruct the top-k** — sample until every matching candidate has
   ``n_i ≥ (2/ε²)(|V_X| ln 2 + ln(3k/δ))`` cumulative samples.

Finite-data handling (DESIGN.md §5): a candidate whose rows are exhausted has
an exact histogram; the split-point construction makes its round null
provably false, so its P-value is 0.  If the sampler exhausts the whole
dataset the run short-circuits to exact results.

Execution model
---------------
:class:`HistSim` holds the state and the per-stage pieces (the prune pass,
a round's plan and test, the stage-3 budgets); :class:`HistSimStepper` is
the one loop that moves a run from stage to stage, through explicit
:class:`Stage1` → :class:`Stage2Round` → :class:`Stage3` → :class:`Done`
states, each :meth:`HistSimStepper.step` one bounded unit of sampling +
testing (the prune pass, one stage-2 round, one stage-3 reconstruction
batch).  :meth:`HistSim.run` steps it to completion; services
(:mod:`repro.system.session`) interleave many queries' steps on a shared
clock.  Variants (range-k, dual-ε) subclass :class:`HistSim` and override
a piece, never the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from ..parallel.backend import ExecutionBackend, SerialBackend
from ..parallel.kernels import rows_per_candidate
from .config import HistSimConfig
from .deviation import (
    deviation_log_pvalue,
    epsilon_given_samples,
    stage2_sample_budget,
    stage3_sample_target,
)
from .distance import normalize, row_distances, subset_distances
from .hypergeometric import underrepresentation_pvalues
from .multiple_testing import holm_bonferroni, simultaneous_rejection_log
from .result import MatchResult, RoundTrace, StageStats
from .sampler import TupleSampler
from .state import CandidateState

__all__ = [
    "HistSim",
    "HistSimStepper",
    "StepReport",
    "RoundPlan",
    "Stage1",
    "Stage2Round",
    "Stage3",
    "Done",
    "run_histsim",
    "select_matching",
    "split_point",
]

#: Optional hook invoked with (stage_name, num_scalar_ops) so the simulated
#: clock can charge statistics-engine time (Section 4.3).
StatsCostHook = Callable[[str, int], None]


def select_matching(distances: np.ndarray, alive: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest distance estimates among alive candidates.

    Ties break by candidate index (stable), matching Definition 3.  Returns
    fewer than ``k`` indices when fewer candidates are alive.
    """
    alive_idx = np.flatnonzero(alive)
    if alive_idx.size <= k:
        order = np.argsort(distances[alive_idx], kind="stable")
        return alive_idx[order]
    order = np.argsort(distances[alive_idx], kind="stable")[:k]
    return alive_idx[order]


def split_point(distances: np.ndarray, matching: np.ndarray, others: np.ndarray) -> float:
    """Algorithm 1 line 18: midpoint between the farthest of ``M`` and nearest of ``A\\M``."""
    if matching.size == 0 or others.size == 0:
        raise ValueError("split point requires both M and A\\M to be non-empty")
    return 0.5 * (float(distances[matching].max()) + float(distances[others].min()))


@dataclass
class RoundPlan:
    """Everything a stage-2 round decides before sampling (lines 14–19).

    Produced by :meth:`HistSim.begin_round`; consumed by
    :meth:`HistSim.finish_round` once the round's fresh-sample budgets have
    been delivered (possibly across several stepper steps).
    """

    round_index: int
    delta_upper: float
    matching: np.ndarray
    others: np.ndarray
    split: float
    exhausted: np.ndarray
    budgets: np.ndarray


class HistSim:
    """Run Algorithm 1 against any :class:`~repro.core.sampler.TupleSampler`.

    Parameters
    ----------
    sampler:
        Source of uniform without-replacement tuples.
    target:
        The visual target ``q`` (raw counts or a distribution; it is
        normalized internally).
    config:
        ``k``, ``ε``, ``δ``, ``σ`` and system knobs.
    stats_cost:
        Optional hook charging statistics-engine work to a simulated clock.
    backend:
        The :class:`~repro.parallel.ExecutionBackend` every sampling request
        routes through (default: serial pass-through).  The algorithm's
        decisions are backend-independent by construction — backends only
        change *how* the same counts are produced.
    """

    def __init__(
        self,
        sampler: TupleSampler,
        target: np.ndarray,
        config: HistSimConfig,
        stats_cost: StatsCostHook | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        target = np.asarray(target, dtype=np.float64)
        if target.ndim != 1 or target.shape[0] != sampler.num_groups:
            raise ValueError(
                f"target must have {sampler.num_groups} entries, got shape {target.shape}"
            )
        if target.sum() <= 0 or np.any(target < 0):
            raise ValueError("target must be non-negative with positive mass")
        self.sampler = sampler
        self.target = target
        #: The target scaled to unit mass, once: every τ of the run is a
        #: distance to this vector.
        self._target_bar = normalize(target)
        self.config = config
        self.backend = backend or SerialBackend()
        self._stats_cost = stats_cost or (lambda stage, ops: None)
        self.state = CandidateState(
            sampler.num_candidates, sampler.num_groups, sampler.candidate_rows()
        )
        self.alive = np.ones(sampler.num_candidates, dtype=bool)
        self.rounds: list[RoundTrace] = []
        self._stage3_target_cache: tuple[tuple, int] | None = None

    @property
    def stage3_target(self) -> int:
        """Stage-3 reconstruction sample target (line 26).

        Loop-invariant within a configuration, so it is computed once and
        cached instead of re-derived every stage-2 round; the cache keys on
        the config parameters because range-k swaps ``config`` at the end of
        stage 1, once k is chosen.  Dual-ε budgets stage 3 at its own
        tolerance by overriding :meth:`stage3_needed` instead.
        """
        cfg = self.config
        key = (cfg.epsilon, cfg.delta, cfg.k, self.sampler.num_groups)
        if self._stage3_target_cache is None or self._stage3_target_cache[0] != key:
            self._stage3_target_cache = (key, stage3_sample_target(*key))
        return self._stage3_target_cache[1]

    def alive_distances(
        self, counts: np.ndarray, in_flight: np.ndarray | None = None
    ) -> np.ndarray:
        """``d(counts_i [+ in_flight_i], q)`` for every alive candidate ``i``.

        The statistics cost what ``A`` needs, as :meth:`finish_round` charges
        them: pruned candidates' rows are neither gathered nor normalized
        and read ``inf``.  Every consumer (``select_matching``,
        ``split_point``, the round budgets and P-values) indexes by
        ``matching`` / ``others`` / ``alive`` only.
        """
        return subset_distances(
            counts, self._target_bar, np.flatnonzero(self.alive), in_flight
        )

    # ------------------------------------------------------------------ stage 1

    def run_stage1(self) -> np.ndarray:
        """Prune likely-rare candidates; returns the pruned mask."""
        cfg = self.config
        n_total = self.sampler.total_rows
        m = cfg.effective_stage1_samples(n_total)
        counts = self.backend.run_uniform(self.sampler, m)
        observed = rows_per_candidate(counts)
        self.state.counts += counts
        self.state.samples += observed

        delivered = int(observed.sum())
        pvalues = underrepresentation_pvalues(observed, n_total, cfg.sigma, delivered)
        pruned = holm_bonferroni(pvalues, cfg.stage_delta)
        self._stats_cost(
            "stage1", int(observed.max(initial=0)) + self.alive.size
        )
        self.alive &= ~pruned
        return pruned

    # ------------------------------------------------------------------ stage 2

    def _round_budgets(
        self,
        tau: np.ndarray,
        matching: np.ndarray,
        others: np.ndarray,
        s: float,
        delta_upper: float,
        round_index: int,
        exhausted: np.ndarray,
    ) -> np.ndarray:
        """Eq. 1 fresh-sample budgets ``n'_i`` for one round (heuristic, §4.2).

        Budgets are capped by an iterative-deepening ceiling (a multiple of
        the stage-3 target, doubling per round) so that margin estimates
        that are still noisy right after stage 1 cannot demand a full-scan-
        sized budget in one round; see HistSimConfig.round_budget_cap.
        """
        cfg = self.config
        margins = np.zeros(self.alive.size, dtype=np.float64)
        margins[matching] = s + cfg.epsilon / 2.0 - tau[matching]
        margins[others] = tau[others] - (s - cfg.epsilon / 2.0)
        budgets = np.zeros(self.alive.size, dtype=np.float64)
        idx = np.concatenate([matching, others])
        budgets[idx] = cfg.round_budget_factor * stage2_sample_budget(
            margins[idx], delta_upper, self.sampler.num_groups
        )
        if np.isfinite(cfg.round_budget_cap):
            ceiling = (
                cfg.round_budget_cap * self.stage3_target * 2.0 ** (round_index - 1)
            )
            budgets[idx] = np.minimum(budgets[idx], ceiling)
        budgets[idx] = np.maximum(budgets[idx], cfg.min_round_samples)
        # Exhausted candidates cannot yield fresh rows; their test is settled
        # by exactness instead.
        budgets[exhausted] = 0.0
        return budgets

    def _round_log_pvalues(
        self,
        matching: np.ndarray,
        others: np.ndarray,
        s: float,
        exhausted: np.ndarray,
    ) -> np.ndarray:
        """P-values (log) of the round's null hypotheses (Lemmas 2–3, Theorem 1)."""
        cfg = self.config
        tau_round = self.alive_distances(self.state.round_counts)
        eps_test = np.full(self.alive.size, -np.inf, dtype=np.float64)
        eps_test[matching] = s + cfg.epsilon / 2.0 - tau_round[matching]
        if s - cfg.epsilon / 2.0 >= 0.0:
            eps_test[others] = tau_round[others] - (s - cfg.epsilon / 2.0)
        else:
            # Null ``τ* ≤ s − ε/2 < 0`` is vacuously false (Algorithm 1, line 22).
            eps_test[others] = np.inf
        log_p = deviation_log_pvalue(
            eps_test, self.state.round_samples, self.sampler.num_groups
        )
        # Exhausted candidates have exact τ; the split-point construction
        # places their true distance on the correct side of s, so the null is
        # certainly false (DESIGN.md §5).
        log_p = np.asarray(log_p, dtype=np.float64)
        log_p[exhausted] = -np.inf
        return log_p

    def stage2_shortcut(self) -> np.ndarray | None:
        """Degenerate stage 2: with ``|A| ≤ k``, A \\ M is empty and separation
        holds vacuously (Lemma 2 degenerate) — return M without any rounds."""
        alive_count = int(self.alive.sum())
        if alive_count > self.config.k:
            return None
        tau = self.alive_distances(self.state.counts)
        return select_matching(tau, self.alive, alive_count)

    def begin_round(self, round_index: int, delta_upper: float) -> RoundPlan:
        """Start one stage-2 round: fold, pick M and s, budget fresh samples
        (Algorithm 1 lines 14–19).  Sampling happens between this call and
        :meth:`finish_round`."""
        cfg = self.config
        self.state.fold_round_into_cumulative()
        tau = self.alive_distances(self.state.counts)
        matching = select_matching(tau, self.alive, cfg.k)
        # Complement of M within the alive set via a boolean mask (cheaper
        # than a per-round set difference).
        others_mask = self.alive.copy()
        others_mask[matching] = False
        others = np.flatnonzero(others_mask)
        s = split_point(tau, matching, others)
        # samples[] only changes on fold, so the exhausted mask is identical
        # at budgeting and testing time — compute it once per round.
        exhausted = self.state.exhausted()
        budgets = self._round_budgets(
            tau, matching, others, s, delta_upper, round_index, exhausted
        )
        return RoundPlan(
            round_index=round_index,
            delta_upper=delta_upper,
            matching=matching,
            others=others,
            split=s,
            exhausted=exhausted,
            budgets=budgets,
        )

    def finish_round(self, plan: RoundPlan, fresh_rows: int) -> np.ndarray | None:
        """Run the round's union-intersection test (lines 20–24) after its
        fresh samples were recorded.  Returns the matching set if the round
        settled M (rejection, or exact knowledge from a full scan), else None.
        """
        log_p = self._round_log_pvalues(
            plan.matching, plan.others, plan.split, plan.exhausted
        )
        alive_idx = np.flatnonzero(self.alive)
        rejected = simultaneous_rejection_log(log_p[alive_idx], plan.delta_upper)
        self._stats_cost(
            "stage2",
            int(self.alive.sum()) * self.sampler.num_groups
            + int(self.alive.sum() * np.log2(max(self.alive.sum(), 2))),
        )
        self.rounds.append(
            RoundTrace(
                round_index=plan.round_index,
                delta_upper=plan.delta_upper,
                split_point=plan.split,
                matching=tuple(plan.matching.tolist()),
                budget_total=int(
                    np.where(np.isfinite(plan.budgets), plan.budgets, 0).sum()
                ),
                fresh_samples=fresh_rows,
                max_log_pvalue=float(np.max(log_p[alive_idx])),
                rejected=rejected,
            )
        )
        if rejected:
            self.state.fold_round_into_cumulative()
            return plan.matching
        if self.sampler.fully_scanned:
            # Exact knowledge: fold and return the exact top-k.
            self.state.fold_round_into_cumulative()
            tau = self.alive_distances(self.state.counts)
            return select_matching(tau, self.alive, self.config.k)
        return None

    def exhaust_stage2(self) -> np.ndarray:
        """Safety valve after ``max_rounds``: exhaust the data, which is
        always correct, and return the exact top-k."""
        self.state.fold_round_into_cumulative()
        self.state.record_round_counts(
            self.backend.run_sampling(self.sampler, np.full(self.alive.size, np.inf))
        )
        self.state.fold_round_into_cumulative()
        tau = self.alive_distances(self.state.counts)
        return select_matching(tau, self.alive, self.config.k)

    # ------------------------------------------------------------------ stage 3

    def stage3_needed(self, matching: np.ndarray) -> np.ndarray:
        """Per-candidate fresh rows still required to hit the stage-3 target
        (line 26)."""
        needed = np.zeros(self.alive.size, dtype=np.float64)
        needed[matching] = np.maximum(
            0, self.stage3_target - self.state.samples[matching]
        )
        return needed

    # -------------------------------------------------------------------- run

    def _assemble_result(
        self,
        pruned_mask: np.ndarray,
        matching: np.ndarray,
        stage1_samples: int,
        stage2_samples: int,
        stage3_samples: int,
    ) -> MatchResult:
        """Sort the matching set by final distance and package the output."""
        histograms = self.state.counts[matching]
        tau = row_distances(histograms, self._target_bar)
        order = np.argsort(tau, kind="stable")
        stats = StageStats(
            stage1_samples=stage1_samples,
            stage2_samples=stage2_samples,
            stage3_samples=stage3_samples,
            pruned_candidates=int(pruned_mask.sum()),
            surviving_candidates=int(self.alive.sum()),
            rounds=len(self.rounds),
        )
        return MatchResult(
            matching=tuple(matching[order].tolist()),
            histograms=histograms[order],
            distances=tau[order],
            pruned=tuple(np.flatnonzero(pruned_mask).tolist()),
            exact=self.sampler.fully_scanned,
            stats=stats,
            rounds=tuple(self.rounds),
        )

    def run(self) -> MatchResult:
        """Execute all three stages and assemble the result: a
        :class:`HistSimStepper` over this instance, stepped to completion."""
        return HistSimStepper(algorithm=self).run_to_completion()


# ---------------------------------------------------------------------------
# Resumable stepper
# ---------------------------------------------------------------------------


@dataclass
class Stage1:
    """Initial state: the prune pass has not run yet."""


@dataclass
class Stage2Round:
    """One stage-2 round in progress.

    ``plan`` is None until the round's budgets have been computed; it stays
    set while the round's sampling is split across steps
    (``max_step_rows``).  ``exhaust`` marks the post-``max_rounds`` safety
    valve, whose full scan is performed as its own step.
    """

    round_index: int
    delta_upper: float
    plan: RoundPlan | None = None
    fresh_rows: int = 0
    exhaust: bool = False


@dataclass
class Stage3:
    """Reconstruction of the settled matching set in progress."""

    matching: np.ndarray
    needed: np.ndarray | None = None
    fresh_rows: int = 0


@dataclass
class Done:
    """Terminal state: the assembled result is available."""

    result: MatchResult


StepperStage = Union[Stage1, Stage2Round, Stage3, Done]


@dataclass(frozen=True)
class StepReport:
    """What one :meth:`HistSimStepper.step` call did."""

    stage: str
    round_index: int | None = None
    fresh_rows: int = 0
    done: bool = False


class HistSimStepper:
    """Resumable, step-driven execution of Algorithm 1 — its only stage loop.

    Each :meth:`step` performs one bounded unit of work — the stage-1 prune
    pass, one stage-2 round (or one ``max_step_rows``-bounded slice of its
    sampling), one stage-3 reconstruction batch — then yields control.  A
    scheduler can therefore interleave many concurrent queries' steps
    (:mod:`repro.system.scheduler`); :meth:`HistSim.run` is this same
    machine stepped to completion, so a scheduled query's result is
    identical to a one-shot run by construction.

    Parameters
    ----------
    sampler, target, config, stats_cost, backend:
        Forwarded to :class:`HistSim` when no ``algorithm`` is given.
    algorithm:
        An existing :class:`HistSim` to drive (mutually exclusive with the
        constructor arguments above).
    max_step_rows:
        Optional bound on rows sampled per step.  When set, a stage-2
        round's (or stage 3's) sampling is split across multiple steps by
        passing ``max_rows`` to the sampler; the delivered rows and the
        final result are identical to the unbounded execution because
        samplers consume a fixed scan order.  ``None`` (default) keeps one
        sampling call per round.
    """

    def __init__(
        self,
        sampler: TupleSampler | None = None,
        target: np.ndarray | Sequence[float] | None = None,
        config: HistSimConfig | None = None,
        stats_cost: StatsCostHook | None = None,
        *,
        algorithm: HistSim | None = None,
        max_step_rows: int | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if algorithm is None:
            if sampler is None or target is None:
                raise ValueError("provide a sampler and target, or an algorithm")
            algorithm = HistSim(
                sampler,
                np.asarray(target, dtype=np.float64),
                config or HistSimConfig(),
                stats_cost,
                backend,
            )
        elif (
            sampler is not None
            or target is not None
            or config is not None
            or stats_cost is not None
            or backend is not None
        ):
            raise ValueError(
                "pass either an existing algorithm or constructor arguments, not both"
            )
        if max_step_rows is not None and max_step_rows < 1:
            raise ValueError(f"max_step_rows must be >= 1, got {max_step_rows}")
        self.algorithm = algorithm
        self.max_step_rows = max_step_rows
        self.stage: StepperStage = Stage1()
        self.steps_taken = 0
        #: The most recent :meth:`step`'s report — the observability seam
        #: drivers read after each slice (stage, round, fresh rows) without
        #: threading the return value through their dispatch plumbing.
        self.last_report: StepReport | None = None
        self._pruned_mask: np.ndarray | None = None
        self._before_stage1 = int(algorithm.state.samples.sum())
        self._after_stage1 = 0
        self._after_stage2 = 0

    # ------------------------------------------------------------- properties

    @property
    def done(self) -> bool:
        return isinstance(self.stage, Done)

    @property
    def stage_name(self) -> str:
        if isinstance(self.stage, Stage1):
            return "stage1"
        if isinstance(self.stage, Stage2Round):
            return "stage2"
        if isinstance(self.stage, Stage3):
            return "stage3"
        return "done"

    @property
    def result(self) -> MatchResult:
        if not isinstance(self.stage, Done):
            raise RuntimeError(f"stepper is still in {self.stage_name}; no result yet")
        return self.stage.result

    # ------------------------------------------------------------------ steps

    def step(self) -> StepReport:
        """Advance the state machine by one bounded unit of work."""
        if isinstance(self.stage, Done):
            raise RuntimeError("HistSimStepper is already done")
        self.steps_taken += 1
        if isinstance(self.stage, Stage1):
            report = self._step_stage1()
        elif isinstance(self.stage, Stage2Round):
            report = self._step_stage2(self.stage)
        else:
            report = self._step_stage3(self.stage)
        self.last_report = report
        return report

    def run_to_completion(self) -> MatchResult:
        """Drive :meth:`step` until :class:`Done`; returns the result."""
        while not self.done:
            self.step()
        return self.result

    # ------------------------------------------------------------ serving hooks

    def _current_samples(self) -> np.ndarray:
        """Cumulative plus in-flight round samples per candidate, without
        mutating state (a mid-round fold would change later round tests)."""
        state = self.algorithm.state
        return state.samples + state.round_samples

    def _current_distances(self) -> np.ndarray:
        """τ of the alive candidates over cumulative plus in-flight round
        counts — summed on the alive rows only, and again non-mutating."""
        state = self.algorithm.state
        return self.algorithm.alive_distances(state.counts, state.round_counts)

    def partial_result(self) -> MatchResult:
        """Best-effort result from the work done so far (deadline path).

        Non-mutating and callable in any stage: the current top-k by the
        combined cumulative + in-flight round estimates, with whatever
        histograms those samples bought.  Unlike a completed run, the
        returned set carries **no** separation guarantee and its
        reconstruction radius is :meth:`achieved_epsilon`, not the
        configured ε — the caller (the serving front door) must report it as
        a degraded answer.  Before any sampling the matching set is empty.
        """
        if isinstance(self.stage, Done):
            return self.stage.result
        algo = self.algorithm
        state = algo.state
        run_samples = int(self._current_samples().sum()) - self._before_stage1
        if run_samples <= 0:
            matching = np.empty(0, dtype=np.int64)
            tau = np.full(algo.alive.size, np.inf)
        else:
            tau = self._current_distances()
            if isinstance(self.stage, Stage3):
                matching = np.asarray(self.stage.matching, dtype=np.int64)
                order = np.argsort(tau[matching], kind="stable")
                matching = matching[order]
            else:
                matching = select_matching(tau, algo.alive, algo.config.k)
        if isinstance(self.stage, Stage1):
            stage1 = run_samples
            stage2 = stage3 = 0
        elif isinstance(self.stage, Stage2Round):
            stage1 = self._after_stage1 - self._before_stage1
            stage2 = run_samples - stage1
            stage3 = 0
        else:
            stage1 = self._after_stage1 - self._before_stage1
            stage2 = self._after_stage2 - self._after_stage1
            stage3 = run_samples - stage1 - stage2
        pruned_mask = (
            self._pruned_mask
            if self._pruned_mask is not None
            else np.zeros(algo.alive.size, dtype=bool)
        )
        stats = StageStats(
            stage1_samples=stage1,
            stage2_samples=stage2,
            stage3_samples=stage3,
            pruned_candidates=int(pruned_mask.sum()),
            surviving_candidates=int(algo.alive.sum()),
            rounds=len(algo.rounds),
        )
        return MatchResult(
            matching=tuple(matching.tolist()),
            histograms=state.counts[matching] + state.round_counts[matching],
            distances=tau[matching],
            pruned=tuple(np.flatnonzero(pruned_mask).tolist()),
            exact=algo.sampler.fully_scanned,
            stats=stats,
            rounds=tuple(algo.rounds),
        )

    def achieved_epsilon(self, matching: Sequence[int] | np.ndarray | None = None) -> float:
        """Reconstruction radius the delivered samples actually bought.

        Theorem 1 inverted at stage 3's per-candidate confidence δ/(3k):
        the smallest ε' such that every returned histogram satisfies
        ``d(r_i, r*_i) < ε'`` with probability ``> 1 − δ/(3k)`` given its
        current sample count.  A completed run reports a value ≤ the
        configured ε by construction; a deadline-cut run reports the looser
        radius its partial samples support (``inf`` when a returned
        candidate has no samples at all, ``0`` when the data was exhausted —
        exact histograms).  ``matching`` defaults to the current
        :meth:`partial_result` set.
        """
        algo = self.algorithm
        if matching is None:
            matching = np.asarray(self.partial_result().matching, dtype=np.int64)
        matching = np.asarray(matching, dtype=np.int64)
        if matching.size == 0:
            return float("inf")
        if algo.sampler.fully_scanned:
            return 0.0
        samples = self._current_samples()
        cfg = algo.config
        eps = np.asarray(
            epsilon_given_samples(
                samples[matching], cfg.delta / (3.0 * cfg.k), algo.sampler.num_groups
            ),
            dtype=np.float64,
        )
        if algo.state.candidate_rows is not None:
            exact = samples[matching] >= algo.state.candidate_rows[matching]
            eps = np.where(exact, 0.0, eps)
        return float(np.max(eps))

    def estimated_remaining_rows(self) -> float:
        """Lookahead estimate of the rows this run still needs — the paper's
        per-stage budgeting machinery (Eq. 1 round budgets, the line-26
        stage-3 target) reused as a scheduling cost hint.

        A heuristic, not a bound: stage-2 may run more rounds than the one
        currently planned, and budgets assume current margin estimates.
        Shortest-expected-remaining-cost scheduling only needs relative
        ordering, which this tracks well (it shrinks monotonically within a
        stage as samples arrive).
        """
        algo = self.algorithm
        cfg = algo.config
        if isinstance(self.stage, Done):
            return 0.0
        st = self.stage
        if isinstance(st, Stage3):
            needed = st.needed if st.needed is not None else algo.stage3_needed(st.matching)
            estimate = float(np.where(np.isfinite(needed), needed, 0.0).sum())
        elif isinstance(st, Stage2Round) and st.exhaust:
            scanned = int(self._current_samples().sum())
            estimate = float(max(0, algo.sampler.total_rows - scanned))
        else:
            if isinstance(st, Stage1):
                ahead = float(cfg.effective_stage1_samples(algo.sampler.total_rows))
            elif st.plan is not None:
                rem = np.maximum(st.plan.budgets - algo.state.round_samples, 0.0)
                ahead = float(np.where(np.isfinite(rem), rem, 0.0).sum())
            else:
                ahead = float(cfg.min_round_samples * max(int(algo.alive.sum()), 1))
            # Stage 3 then tops up the current empirical top-k.
            matching = select_matching(self._current_distances(), algo.alive, cfg.k)
            samples = self._current_samples()[matching]
            estimate = ahead + float(np.maximum(0, algo.stage3_target - samples).sum())
        return min(estimate, float(algo.sampler.total_rows))

    def _sample(self, needed: np.ndarray) -> np.ndarray:
        """One sampling request through the algorithm's execution backend,
        bounded by ``max_step_rows`` when configured."""
        algo = self.algorithm
        if self.max_step_rows is None:
            return algo.backend.run_sampling(algo.sampler, needed)
        return algo.backend.run_sampling(
            algo.sampler, needed, max_rows=self.max_step_rows
        )

    def _slice_complete(self, fresh_rows: int) -> bool:
        """A bounded call that delivered fewer rows than its bound stopped
        because the remaining budgets were satisfied (or the data ran out)."""
        return self.max_step_rows is None or fresh_rows < self.max_step_rows

    def _step_stage1(self) -> StepReport:
        algo = self.algorithm
        before = int(algo.state.samples.sum())
        self._pruned_mask = algo.run_stage1()
        self._after_stage1 = int(algo.state.samples.sum())
        shortcut = algo.stage2_shortcut()
        if shortcut is not None:
            self._enter_stage3(shortcut)
        else:
            self.stage = Stage2Round(
                round_index=1, delta_upper=algo.config.stage_delta / 2.0
            )
        return StepReport(stage="stage1", fresh_rows=self._after_stage1 - before)

    def _step_stage2(self, st: Stage2Round) -> StepReport:
        algo = self.algorithm
        if st.exhaust:
            before = int(algo.state.samples.sum() + algo.state.round_samples.sum())
            matching = algo.exhaust_stage2()
            fresh = int(algo.state.samples.sum()) - before
            self._enter_stage3(matching)
            return StepReport(
                stage="stage2", round_index=st.round_index, fresh_rows=fresh
            )
        if st.plan is None:
            st.plan = algo.begin_round(st.round_index, st.delta_upper)
        remaining = np.maximum(st.plan.budgets - algo.state.round_samples, 0.0)
        fresh = self._sample(remaining)
        fresh_rows = int(algo.state.record_round_counts(fresh).sum())
        st.fresh_rows += fresh_rows
        if self._slice_complete(fresh_rows):
            matching = algo.finish_round(st.plan, st.fresh_rows)
            if matching is not None:
                self._enter_stage3(matching)
            elif st.round_index >= algo.config.max_rounds:
                self.stage = Stage2Round(
                    round_index=st.round_index + 1,
                    delta_upper=st.delta_upper,
                    exhaust=True,
                )
            else:
                self.stage = Stage2Round(
                    round_index=st.round_index + 1,
                    delta_upper=st.delta_upper / 2.0,
                )
        return StepReport(
            stage="stage2", round_index=st.round_index, fresh_rows=fresh_rows
        )

    def _enter_stage3(self, matching: np.ndarray) -> None:
        algo = self.algorithm
        self._after_stage2 = int(
            algo.state.samples.sum() + algo.state.round_samples.sum()
        )
        self.stage = Stage3(matching=np.asarray(matching, dtype=np.int64))

    def _step_stage3(self, st: Stage3) -> StepReport:
        algo = self.algorithm
        if st.needed is None:
            st.needed = algo.stage3_needed(st.matching)
        row_sums = algo.state.record_round_counts(self._sample(st.needed))
        fresh_rows = int(row_sums.sum())
        st.fresh_rows += fresh_rows
        st.needed = np.maximum(st.needed - row_sums, 0.0)
        if not self._slice_complete(fresh_rows):
            return StepReport(stage="stage3", fresh_rows=fresh_rows)
        algo.state.fold_round_into_cumulative()
        algo._stats_cost("stage3", int(st.matching.size) * algo.sampler.num_groups)
        after_stage3 = int(algo.state.samples.sum())
        assert self._pruned_mask is not None
        result = algo._assemble_result(
            self._pruned_mask,
            st.matching,
            stage1_samples=self._after_stage1 - self._before_stage1,
            stage2_samples=self._after_stage2 - self._after_stage1,
            stage3_samples=after_stage3 - self._after_stage2,
        )
        self.stage = Done(result)
        return StepReport(stage="stage3", fresh_rows=fresh_rows, done=True)


def run_histsim(
    sampler: TupleSampler,
    target: np.ndarray | Sequence[float],
    config: HistSimConfig | None = None,
    stats_cost: StatsCostHook | None = None,
) -> MatchResult:
    """Convenience wrapper: build and run a :class:`HistSim` instance."""
    return HistSim(
        sampler, np.asarray(target, dtype=np.float64), config or HistSimConfig(), stats_cost
    ).run()

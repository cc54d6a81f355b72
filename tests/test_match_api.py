"""Tests for the one-call front door (repro.match.match_histograms) and the
Theorem-1 empirical coverage + composite-group-by integrations."""

import numpy as np
import pytest

from repro.core import ArraySampler, HistSimConfig, run_histsim
from repro.core.deviation import epsilon_given_samples
from repro.core.target import TargetSpec
from repro.extensions import composite_grouping
from repro.match import match_histograms
from repro.query import Equals
from repro.storage import CategoricalAttribute, ColumnTable, Schema


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(31)
    n = 120_000
    candidates, groups = 20, 6
    z = rng.integers(0, candidates, size=n)
    x = np.empty(n, dtype=np.int64)
    for c in range(candidates):
        mask = z == c
        base = np.full(groups, 1.0 / groups)
        if c >= 3:
            base[c % groups] += 0.7
            base /= base.sum()
        x[mask] = rng.choice(groups, size=int(mask.sum()), p=base)
    schema = Schema(
        (
            CategoricalAttribute("product", tuple(f"p{i}" for i in range(candidates))),
            CategoricalAttribute("age", tuple(f"a{i}" for i in range(groups))),
            CategoricalAttribute("channel", ("web", "store")),
        )
    )
    return ColumnTable(
        schema,
        {"product": z, "age": x, "channel": rng.integers(0, 2, size=n)},
    )


class TestMatchHistograms:
    def test_default_uniform_target(self, table):
        report = match_histograms(table, "product", "age", k=3, epsilon=0.15, seed=1)
        assert set(report.result.matching) == {0, 1, 2}
        assert report.audit.ok

    def test_candidate_target_as_int(self, table):
        report = match_histograms(table, "product", "age", target=5, k=1, epsilon=0.2, seed=1)
        # Candidates 5, 11, 17 share the same planted profile (peak = c mod 6),
        # so any of them is a correct closest match within epsilon.
        assert report.result.matching[0] in {5, 11, 17}
        assert report.audit.ok

    def test_explicit_vector_target(self, table):
        report = match_histograms(
            table, "product", "age", target=np.full(6, 1 / 6), k=3, epsilon=0.15, seed=1
        )
        assert set(report.result.matching) == {0, 1, 2}

    def test_target_spec_passthrough(self, table):
        spec = TargetSpec(kind="candidate", candidate=7)
        report = match_histograms(table, "product", "age", target=spec, k=1, epsilon=0.2)
        # 7, 13, 19 share the planted profile (peak = c mod 6): all correct.
        assert report.result.matching[0] in {7, 13, 19}

    def test_predicate(self, table):
        report = match_histograms(
            table, "product", "age", k=3, epsilon=0.2,
            predicate=Equals("channel", 0), seed=2,
        )
        assert report.audit.ok
        assert report.result.stats.total_samples <= int(
            (table.column("channel") == 0).sum()
        )

    def test_predicate_evaluated_once(self, table, monkeypatch):
        """One-shot preparation (shared with ``prepare_workload``) takes the
        predicate's mask once: it is the row filter and it filters the
        ground-truth pass."""
        calls = []
        original = Equals.mask

        def counting_mask(self, t):
            calls.append(t.num_rows)
            return original(self, t)

        monkeypatch.setattr(Equals, "mask", counting_mask)
        report = match_histograms(
            table, "product", "age", k=3, epsilon=0.2,
            predicate=Equals("channel", 0), seed=2,
        )
        assert calls == [table.num_rows]
        assert report.audit.ok

    def test_exact_scan_approach(self, table):
        report = match_histograms(table, "product", "age", k=3, approach="scan")
        assert report.result.exact
        assert report.audit.delta_d == pytest.approx(0.0)


class TestTheorem1Coverage:
    def test_empirical_coverage_of_l1_bound(self):
        """Monte Carlo: P(||r̂ − r*||₁ ≥ ε(n, δ)) must be ≤ δ.

        Theorem 1 is conservative (union bound over 2^v sign patterns), so
        the empirical violation rate should be far below δ.
        """
        rng = np.random.default_rng(77)
        v, n, delta = 6, 400, 0.1
        p = rng.dirichlet(np.ones(v))
        eps = epsilon_given_samples(n, delta, v)
        violations = 0
        trials = 300
        for _ in range(trials):
            sample = rng.multinomial(n, p) / n
            if np.abs(sample - p).sum() >= eps:
                violations += 1
        assert violations / trials <= delta

    def test_bound_is_conservative_not_vacuous(self):
        """ε(n, δ) should be within ~10x of typical deviations, not absurd."""
        rng = np.random.default_rng(78)
        v, n = 6, 400
        p = np.full(v, 1 / v)
        typical = np.mean(
            [np.abs(rng.multinomial(n, p) / n - p).sum() for _ in range(200)]
        )
        eps = epsilon_given_samples(n, 0.1, v)
        assert typical < eps < 12 * typical


class TestCompositeGroupByIntegration:
    def test_histsim_over_composite_support(self, table):
        """Appendix A.1.3 end to end: group by (age, channel) jointly."""
        codes, cardinality, labels = composite_grouping(table, ("age", "channel"))
        assert cardinality == 12
        z = table.column("product").astype(np.int64)
        rng = np.random.default_rng(3)
        sampler = ArraySampler(z, codes, 20, cardinality, rng)
        config = HistSimConfig(k=3, epsilon=0.25, delta=0.05, sigma=0.0)
        result = run_histsim(sampler, np.ones(cardinality), config)
        # channel is independent of age, so near-uniform-over-age products
        # stay near uniform over the product support.
        assert set(result.matching) == {0, 1, 2}

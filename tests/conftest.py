"""Fixtures shared across the test modules."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.parallel import backend as backend_module
from repro.parallel import kernels


@pytest.fixture
def classic_counting():
    """A context manager under which every in-process backend count —
    windows (the inline path's ascending entry) and exact table passes
    alike — runs the legacy reference arithmetic,
    ``count_window(..., kernel="classic")``.

    The classic baseline of the identity matrices, set by the test rather
    than by a product option.  The reference reads ``z``, ``x`` and the
    filter only, so a count handed a pair-code column fails instead of
    silently ignoring it.
    """

    def count_classic(*args, codes=None, **kwargs):
        assert codes is None, "the classic reference counts z and x, not codes"
        return kernels.count_window(*args, kernel="classic", **kwargs)

    @contextlib.contextmanager
    def classic():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backend_module, "count_window", count_classic)
            patch.setattr(backend_module, "count_window_ascending", count_classic)
            yield

    return classic


@pytest.fixture
def delivered_rows_contract():
    """``checked(sampler, call)``: run ``call(sampler)`` — one sampling
    call — and assert the :class:`~repro.core.sampler.TupleSampler`
    contract HistSim relies on: ``delivered_rows()`` grew by exactly the
    returned matrix's row sums.  Returns the matrix."""

    def checked(sampler, call):
        before = np.asarray(sampler.delivered_rows()).copy()
        counts = call(sampler)
        grown = np.asarray(sampler.delivered_rows()) - before
        np.testing.assert_array_equal(grown, np.asarray(counts).sum(axis=1))
        return counts

    return checked

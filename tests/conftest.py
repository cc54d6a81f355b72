"""Fixtures shared across the test modules."""

from __future__ import annotations

import contextlib

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

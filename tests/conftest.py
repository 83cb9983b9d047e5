"""Fixtures shared across test modules."""

import pytest

from repro.eval.suites import run_suite


@pytest.fixture(scope="session")
def micro_run():
    """One ``micro`` suite run, ``(payload, observed)``, shared by every
    test that only reads or renders it (the renderers are pure)."""
    return run_suite("micro", "t")

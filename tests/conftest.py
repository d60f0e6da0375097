"""Fixtures shared by the test modules."""

import time

import pytest

import frax.stochsim as ss
import frax.verify as vf


@pytest.fixture(scope="session")
def crossing_run():
    """One single-threaded run of the ``crossing`` verify suite: its records,
    its wall time and every Monte Carlo estimate it drew, keyed by the
    arguments of ``estimate_crossing``.  The estimates are deterministic,
    so a test may replay them instead of drawing 2**20 paths per time again."""
    estimates = {}
    real = ss.estimate_crossing

    def recording(spec, boundary, t, n_paths, seed=ss.DEFAULT_SEED):
        est = estimates[spec, boundary, t, n_paths, seed] = real(spec, boundary, t, n_paths, seed=seed)
        return est

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FRAX_THREADS", "1")
        mp.setattr(ss, "estimate_crossing", recording)
        start = time.perf_counter()
        records = vf.run_suite("crossing")
        seconds = time.perf_counter() - start
    return {"records": records, "seconds": seconds, "estimates": estimates}

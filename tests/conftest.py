"""Shared fixtures plus a terminal summary that lists each acceptance
criterion with an explicit PASS/FAIL verdict.

BLAS is pinned to one thread before numpy loads (unless the environment
sets it): the networks here are small, a second BLAS thread buys no speed,
and on a shared two-core host it made the wall-clock budgets of the
acceptance checks depend on neighbouring load.

``reproduce`` starts a worker process per CPU it may use; every test sees
at most two CPUs, so no test starts more workers than that on a large host."""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture(autouse=True)
def _at_most_two_cpus(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))[:2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = {}
    for status, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                name = nodeid.split("::")[-1]
                # a FAIL in any phase (setup/call/teardown) wins over PASS
                if rows.get(name) != "FAIL":
                    rows[name] = verdict
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(rows):
        terminalreporter.write_line(f"{rows[name]}  {name}")

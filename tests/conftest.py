"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import os
import random
from pathlib import Path

import pytest

import gicap
from gicap import ChannelParams, InterferenceTag, classify, db_to_linear


def gicap_child_env() -> dict[str, str]:
    """Environment for ``python`` children that import ``gicap``.

    The root of the ``gicap`` package this process imported goes first on
    ``PYTHONPATH``, so a child runs the same source tree as the in-process
    checks, whatever its working directory and whatever else is installed.
    """
    root = str(Path(gicap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        entry for entry in (root, env.get("PYTHONPATH")) if entry
    )
    return env


def sweep_chunks(n, seed, class_filter="any"):
    """A sweep's chunks in draw order, each as its 13 record columns in
    :class:`gicap.SweepRecord` field order, read off the chunk's frame; the
    arguments are checked at once."""
    chunks = gicap.gap._sweep(n, seed, class_filter)[2]
    return (gicap.gap._columns(chunk.frame) for chunk in chunks)


def vertex_sets_equal(a, b, tol=1e-9) -> bool:
    """Compare two canonical vertex lists coordinate-wise within tol."""
    if len(a) != len(b):
        return False
    return all(
        abs(p.r1 - q.r1) <= tol and abs(p.r2 - q.r2) <= tol for p, q in zip(a, b)
    )


def slope_tie_grid():
    """(alpha1, alpha2, alpha3) on the class ties alpha2 = 0, alpha2 = alpha1
    and alpha3 = 1, each with its float neighbours."""
    below, above = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
    for a1 in (0.5, 1.0, 1.5):
        for a2 in (0.0, 0.5, math.nextafter(a1, 0.0), a1, math.nextafter(a1, 2.0), 2.0):
            for a3 in (0.0, 0.5, below, 1.0, above, 1.5):
                yield a1, a2, a3


def random_channel(rng: random.Random, want: InterferenceTag | None = None) -> ChannelParams:
    """Draw one channel log-uniform in dB, optionally rejection-filtered."""
    while True:
        params = ChannelParams(
            db_to_linear(rng.uniform(0.0, 60.0)),
            db_to_linear(rng.uniform(0.0, 60.0)),
            db_to_linear(rng.uniform(-20.0, 60.0)),
            db_to_linear(rng.uniform(-20.0, 60.0)),
        )
        if want is None or classify(params).tag is want:
            return params


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process unreaped, running or not: a
    sweep's writer child must be reaped on every path."""
    yield
    if hasattr(os, "WNOHANG"):
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no children at all
            return
        what = "a running child process" if pid == 0 else f"child process {pid} unreaped"
        pytest.fail(f"the test left {what}")

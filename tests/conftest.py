import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hepbell import _workers, mesonlab


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state_amps(total_dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(total_dim) + 1j * rng.standard_normal(total_dim)
    return z / np.linalg.norm(z)


PEAK_RSS_PRELUDE = '''
import resource, sys

def peak_rss_bytes():
    # VmHWM is this process's own high-water mark.  ru_maxrss is seeded at
    # exec with the parent's, so it never reads below the test runner's peak.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * (
        1 if sys.platform == "darwin" else 1024
    )
'''


@pytest.fixture(scope="session")
def peak_rss():
    """Run a script in a fresh interpreter that imports hepbell from this
    tree; the script prints peaks in bytes, ``peak_rss_bytes()`` among them,
    on its last line, and they are returned."""
    src = str(Path(mesonlab.__file__).resolve().parents[1])

    def run(script: str, *args: str) -> tuple[int, ...]:
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_PRELUDE + script, *args],
            capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        return tuple(int(value) for value in proc.stdout.splitlines()[-1].split())

    return run


@pytest.fixture
def forced_split(monkeypatch):
    """Split the event commands' chunk loops at any size.  Call the fixture
    with the number of processes; it returns the ranks of the workers forked
    since, in order."""
    forked = []
    start_worker = _workers.start_worker

    def counting(rank, *args):
        forked.append(rank)
        return start_worker(rank, *args)

    monkeypatch.setattr(_workers, "_SPLIT_MIN_ROWS", 1)
    monkeypatch.setattr(_workers, "start_worker", counting)

    def split_over(processes: int) -> list[int]:
        monkeypatch.setattr(_workers, "_usable_cores", lambda: processes)
        forked.clear()
        return forked

    return split_over


def assert_no_child():
    """Every process the test started has ended and been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

import os
from pathlib import Path

import numpy as np
import pytest

# Subprocess tests run `python -m univalence.cli`; point them at this
# checkout's package so the suite needs no install.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240809)


def exterior_points(rng, count, r_lo=1.1, r_hi=10.0):
    radii = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), count))
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return radii * np.exp(1j * angles)

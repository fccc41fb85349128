import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from fastssc import PolarCode

DATA_DIR = Path(__file__).parent / "data"

# Every property runs the same examples on every run, with no wall-clock
# deadline and no example database carried between runs.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def random_code(N, rng, K=None):
    """A PolarCode with a uniformly random frozen set."""
    if K is None:
        K = int(rng.integers(1, N + 1))
    mask = np.ones(N, dtype=bool)
    mask[rng.choice(N, size=K, replace=False)] = False
    return PolarCode.from_frozen_mask(mask)


def noisy_int_llr(code, rng, frames, spread=4):
    """Quantized-domain LLR frames with heavy tie and zero incidence."""
    from fastssc import encode

    msgs = rng.integers(0, 2, size=(frames, code.K)).astype(np.uint8)
    x = encode(code, msgs)
    llr = (1 - 2 * x.astype(np.int64)) * 2 + rng.integers(-spread, spread + 1, size=x.shape)
    return msgs, np.clip(llr, -7, 7)


def noisy_float_llr(code, rng, frames, ebn0_db=1.0):
    from fastssc import encode

    msgs = rng.integers(0, 2, size=(frames, code.K)).astype(np.uint8)
    x = encode(code, msgs)
    var = 1.0 / (2.0 * max(code.rate, 1e-9) * 10.0 ** (ebn0_db / 10.0))
    y = (1.0 - 2.0 * x) + rng.normal(0.0, np.sqrt(var), size=x.shape)
    return msgs, 2.0 * y / var


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)

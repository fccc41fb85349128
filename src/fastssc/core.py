"""Polar code construction, encoding, and the binary polar transform.

Codeword bits are related to message-domain bits by ``x = u * G`` over GF(2),
where ``G`` is the n-fold Kronecker power of ``[[1, 0], [1, 1]]`` and indices
are natural (no bit-reversal permutation).  The transform is an involution, so
the same butterfly maps ``u -> x`` and ``x -> u``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

MAX_N = 2**20  # largest block length a frozen-set file or the CLI may ask for


@dataclass(frozen=True)
class CodeConstruction:
    """Provenance of a frozen set: construction method and design SNR."""

    method: str
    design_snr_db: float | None = None


@dataclass(eq=False)
class PolarCode:
    """A polar code: block length, dimension, and frozen-position mask."""

    N: int
    K: int
    frozen: np.ndarray
    construction: CodeConstruction = field(default=CodeConstruction("manual"))

    def __post_init__(self):
        if self.N < 1 or self.N & (self.N - 1):
            raise ValueError(f"N must be a power of 2, got {self.N}")
        if not (1 <= self.K <= self.N):
            raise ValueError(f"need 1 <= K <= N, got K={self.K}, N={self.N}")
        # A private read-only copy: decoding caches the classified tree on the code.
        self.frozen = np.array(self.frozen, dtype=bool)
        self.frozen.flags.writeable = False
        if self.frozen.shape != (self.N,):
            raise ValueError("frozen mask length must equal N")
        if int((~self.frozen).sum()) != self.K:
            raise ValueError("frozen mask must leave exactly K information positions")

    @property
    def n(self):
        return self.N.bit_length() - 1

    @property
    def rate(self):
        return self.K / self.N

    @property
    def info_indices(self):
        return np.flatnonzero(~self.frozen)

    @property
    def frozen_indices(self):
        return np.flatnonzero(self.frozen)

    @classmethod
    def from_frozen_mask(cls, frozen, construction=None):
        frozen = np.asarray(frozen, dtype=bool)
        k = int((~frozen).sum())
        return cls(len(frozen), k, frozen, construction or CodeConstruction("manual"))


def db_to_linear(db):
    """``10 ** (db / 10)``, or ValueError unless that is a positive normal float.

    NaN and infinite dB values are rejected, and so are finite ones whose
    power overflows or underflows.
    """
    try:
        lin = 10.0 ** (db / 10.0)
    except OverflowError:
        lin = math.inf
    if not sys.float_info.min <= lin <= sys.float_info.max:
        raise ValueError(f"SNR {db!r} dB has no finite nonzero linear value")
    return lin


def _phi(x):
    """Mean-to-erfc surrogate used by the density-evolution recursion.

    Two-piece approximation: a fitted exponential for small arguments and the
    asymptotic expansion beyond it.  Monotone decreasing on [0, inf).
    """
    x = np.asarray(x, dtype=np.float64)
    small = np.exp(-0.4527 * np.power(np.maximum(x, 1e-300), 0.86) + 0.0218)
    with np.errstate(over="ignore", under="ignore"):
        large = np.sqrt(np.pi / np.maximum(x, 1e-12)) * np.exp(-x / 4.0) * (1.0 - 10.0 / (7.0 * np.maximum(x, 1e-12)))
    out = np.where(x < 10.0, small, large)
    return np.where(x <= 0.0, 1.0, out)


def _phi_inv(y):
    """Numeric inverse of :func:`_phi` by bisection."""
    y = np.asarray(y, dtype=np.float64)
    lo = np.zeros_like(y)
    hi = np.full_like(y, 1e5)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        gt = _phi(mid) > y
        lo = np.where(gt, mid, lo)
        hi = np.where(gt, hi, mid)
    return 0.5 * (lo + hi)


def _ga_means(N, rate, design_snr_db):
    """Per-position decision-LLR means from Gaussian-approximation evolution."""
    ebn0 = db_to_linear(design_snr_db)
    sigma_sq = 1.0 / (2.0 * rate * ebn0)
    mu = np.array([2.0 / sigma_sq])
    n = N.bit_length() - 1
    for _ in range(n):
        minus = _phi_inv(1.0 - (1.0 - _phi(mu)) ** 2)
        plus = 2.0 * mu
        mu = np.stack([minus, plus], axis=-1).ravel()
    return mu


def _bhattacharyya_params(N, rate, design_snr_db):
    """Per-position Bhattacharyya bounds from the erasure-style recursion."""
    ebn0 = db_to_linear(design_snr_db)
    z = np.array([math.exp(-rate * ebn0)])
    n = N.bit_length() - 1
    for _ in range(n):
        minus = 2.0 * z - z * z
        plus = z * z
        z = np.stack([minus, plus], axis=-1).ravel()
    return z


def construct_code(N, K, design_snr_db, method="ga"):
    """Build an (N, K) polar code for a binary-input AWGN channel.

    Parameters
    ----------
    N : int
        Block length, a power of two.
    K : int
        Number of information bits, 1 <= K <= N.
    design_snr_db : float
        Design Eb/N0 in dB used by the reliability evolution.
    method : str
        ``"ga"`` for Gaussian-approximation density evolution or
        ``"bhattacharyya"`` for the erasure-style parameter recursion.

    Returns
    -------
    PolarCode
        The N - K least reliable synthetic positions are frozen.  Ties in the
        reliability metric freeze the lower index first.
    """
    if N < 1 or N & (N - 1):
        raise ValueError(f"N must be a power of 2, got {N}")
    if not (1 <= K <= N):
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    rate = K / N
    if method == "ga":
        mu = _ga_means(N, rate, design_snr_db)
        # Least reliable first: ascending mean, ties broken toward low index.
        order = np.lexsort((np.arange(N), mu))
    elif method == "bhattacharyya":
        z = _bhattacharyya_params(N, rate, design_snr_db)
        order = np.lexsort((np.arange(N), -z))
    else:
        raise ValueError(f"unknown construction method {method!r}")
    frozen = np.zeros(N, dtype=bool)
    frozen[order[: N - K]] = True
    return PolarCode(N, K, frozen, CodeConstruction(method, design_snr_db))


def polar_transform(bits):
    """Apply the GF(2) butterfly ``v -> v * G`` along the last axis.

    Accepts a single vector or a batch of rows; the length must be a power of
    two.  Applying the transform twice returns the input.
    """
    v = np.asarray(bits)
    n_bits = v.shape[-1]
    if n_bits < 1 or n_bits & (n_bits - 1):
        raise ValueError(f"length must be a power of 2, got {n_bits}")
    x = np.ascontiguousarray(v.astype(np.uint8))
    lead = x.shape[:-1]
    step = 2
    while step <= n_bits:
        half = step // 2
        blocks = x.reshape(lead + (n_bits // step, step))
        blocks[..., :half] ^= blocks[..., half:]
        step *= 2
    return x.reshape(v.shape)


def encode(code, message):
    """Encode information bits into a codeword.

    Scatters ``message`` into the unfrozen positions of the message-domain
    vector (frozen positions are zero) and applies the polar transform.
    Accepts a single K-bit vector or a batch of rows.
    """
    msg = np.asarray(message, dtype=np.uint8)
    if msg.shape[-1] != code.K:
        raise ValueError(f"message length must be K={code.K}, got {msg.shape[-1]}")
    u = np.zeros(msg.shape[:-1] + (code.N,), dtype=np.uint8)
    u[..., code.info_indices] = msg
    return polar_transform(u)


def write_frozen_file(path, code):
    """Write a frozen-set file: line 1 is ``N K``, line 2 the sorted frozen indices."""
    with open(path, "w") as fh:
        fh.write(frozen_file_text(code))


def frozen_file_text(code):
    indices = " ".join(str(i) for i in code.frozen_indices)
    return f"{code.N} {code.K}\n{indices}\n"


def read_frozen_file(path):
    """Read a frozen-set file written by :func:`write_frozen_file`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"empty frozen-set file: {path}")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"first line must be 'N K', got {lines[0]!r}")
    N, K = int(head[0]), int(head[1])
    if N > MAX_N:
        raise ValueError(f"N={N} is above the cap of {MAX_N}")
    body = lines[1].split() if len(lines) > 1 else []
    indices = np.array(sorted(int(t) for t in body), dtype=np.int64)
    if len(indices) != N - K:
        raise ValueError(f"expected {N - K} frozen indices, found {len(indices)}")
    if indices.size and (indices[0] < 0 or indices[-1] >= N):
        raise ValueError("frozen index out of range")
    if indices.size != np.unique(indices).size:
        raise ValueError("duplicate frozen index")
    frozen = np.zeros(N, dtype=bool)
    frozen[indices] = True
    return PolarCode(N, K, frozen, CodeConstruction("file"))

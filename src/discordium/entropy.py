"""Entropy functionals in base-2 logarithms (bits).

``Bits`` is a plain float.  Relative entropy returns ``math.inf`` when the
first argument's support leaks outside the second's; everything else is
finite.  Every entropy here goes through the one ``x log x`` kernel,
``_xlog2x``, which treats an eigenvalue that rounds below zero as zero.
"""

from __future__ import annotations

import math

import numpy as np

from .qmat import RANK_TOL, BipartiteState, DensityMatrix, dag, eigh, partial_trace

Bits = float


def _xlog2x(lam: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Elementwise lambda * log2(lambda) with the 0 log 0 = 0 convention,
    for an array of at least one dimension.

    A negative lambda (rounding below a zero eigenvalue) counts as 0, so a
    minimizer cannot gain from it; the 1e-300 floor keeps log2 finite at 0
    without masking, which keeps the kernel cheap in the optimizer loops.
    The log and product run in place because the grid oracles pass tiles
    of about 1e5 entries, where each temporary array costs about as much as
    a pass.  For the same reason ``overwrite=True`` clips ``lam`` itself in
    place: pass it for a buffer built for this pass and not read again.
    """
    lam = np.maximum(lam, 0.0, out=lam) if overwrite else np.maximum(lam, 0.0)
    out = np.maximum(lam, 1e-300)
    np.log2(out, out=out)
    out *= lam
    return out


def entropy_of_spectrum(lam: np.ndarray) -> Bits:
    """-sum lambda log2 lambda over a spectrum (clamped at -1e-12 -> 0)."""
    s = -float(_xlog2x(lam).sum())
    return 0.0 if -1e-12 < s < 0.0 else s


def von_neumann(rho: DensityMatrix) -> Bits:
    """von Neumann entropy -tr(rho log2 rho), in [0, log2 dim].

    Reads ``rho.spectrum``, the ``eigvalsh`` of the Hermitian part that
    ``DensityMatrix`` computed when it checked positivity, so no matrix is
    diagonalized twice.
    """
    return entropy_of_spectrum(rho.spectrum)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> Bits:
    """tr(rho log2 rho) - tr(rho log2 sigma), evaluated in sigma's eigenbasis.

    Returns ``math.inf`` when rho has weight above ``RANK_TOL`` on a
    direction where sigma's eigenvalue is at or below ``RANK_TOL``.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    mu, w = eigh(sigma.matrix)
    weights = np.einsum("ij,jk,ki->i", dag(w), rho.matrix, w).real
    null = mu <= RANK_TOL
    if np.any(weights[null] > RANK_TOL):
        return math.inf
    tr_rho_log_sigma = float(np.sum(weights[~null] * np.log2(mu[~null])))
    tr_rho_log_rho = float(_xlog2x(rho.spectrum).sum())
    return tr_rho_log_rho - tr_rho_log_sigma


def conditional_entropy(rho: BipartiteState) -> Bits:
    """S(rho_AB) - S(rho_A); negative exactly for the quantumly correlated."""
    return von_neumann(rho.state) - von_neumann(partial_trace(rho, "A"))


def mutual_information(rho: BipartiteState) -> Bits:
    """S(rho_A) + S(rho_B) - S(rho_AB)."""
    return (
        von_neumann(partial_trace(rho, "A"))
        + von_neumann(partial_trace(rho, "B"))
        - von_neumann(rho.state)
    )

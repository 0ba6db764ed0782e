"""Two-qubit entanglement of formation and the discord--EOF equality.

The closed form (Wootters) gives EOF through the concurrence; an
independent route minimizes the average marginal entropy over pure-state
decompositions parameterized by a unitary mixing of the eigendecomposition.
For an n_A x 2 state of rank at most 2, purifying with a qubit ancilla
makes the BC marginal two-qubit, and the Neumark-extended discord of AB
equals EOF(BC) + S(A) - S(AB); ``koashi_winter_residual`` measures how far
the two independently computed sides are apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discord import _discord_PE, _ensemble_term
from .entropy import _xlog2x, von_neumann
from .optimize import (
    OptimizationOutcome,
    OptimizerConfig,
    StackedObjective,
    minimize_vector,
    unitary_from_vector,
)
from .qmat import (
    RANK_TOL,
    BipartiteState,
    DensityMatrix,
    PureState,
    eigh,
    partial_trace,
    purify,
)

_SIGMA_YY = np.kron(
    np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])
)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with endpoints mapped to 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -float(_xlog2x(np.array([x, 1 - x])).sum())


@dataclass(frozen=True)
class EntanglementResult:
    """Concurrence (two-qubit systems only) and EOF in bits."""

    concurrence: float | None
    eof: float
    method: str
    outcome: OptimizationOutcome | None = None


def concurrence_2q(rho: DensityMatrix) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    The l_i are the decreasing square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), taken as the singular values of
    sqrt(rho) (sy x sy) sqrt(rho)*: the square roots of near-zero
    eigenvalues of the non-Hermitian product would amplify their rounding
    error to ~1e-8 on rank-deficient states.
    """
    if rho.dim != 4:
        raise ValueError(f"concurrence needs a 4-dimensional state, got dim {rho.dim}")
    evals, evecs = eigh(rho.matrix)
    root = (evecs * np.sqrt(np.maximum(evals, 0.0))) @ evecs.conj().T
    lam = np.linalg.svd(root @ _SIGMA_YY @ root.conj(), compute_uv=False)
    return float(max(0.0, min(1.0, lam[0] - lam[1] - lam[2] - lam[3])))


def eof_2q(rho: DensityMatrix) -> EntanglementResult:
    """Two-qubit entanglement of formation h((1 + sqrt(1 - C^2))/2)."""
    c = concurrence_2q(rho)
    eof = binary_entropy((1 + np.sqrt(max(0.0, 1 - c * c))) / 2)
    return EntanglementResult(concurrence=c, eof=eof, method="wootters")


def eof_via_decomposition(
    rho: DensityMatrix,
    n_left: int,
    n_right: int,
    K: int = 4,
    cfg: OptimizerConfig | None = None,
) -> EntanglementResult:
    """EOF as a minimum over K-element pure-state decompositions.

    Decomposition vectors are phi_l = sum_i U_{li} sqrt(p_i) psi_i for
    U in U(K), with (p_i, psi_i) from the eigendecomposition (eigenvalues
    beyond the rank padded with zero).  The cost is the weighted entropy of
    the left marginals; the minimum over U is the EOF.  Independent of the
    discord machinery.
    """
    cfg = cfg or OptimizerConfig()
    if n_left * n_right != rho.dim:
        raise ValueError(f"{n_left} x {n_right} does not factor dim {rho.dim}")
    if K < rho.rank:
        raise ValueError(f"need at least rank = {rho.rank} decomposition elements, got {K}")
    evals, evecs = eigh(rho.matrix)
    keep = np.where(evals > RANK_TOL)[0][::-1]
    scaled = np.zeros((rho.dim, K), dtype=np.complex128)
    scaled[:, : len(keep)] = evecs[:, keep] * np.sqrt(evals[keep])

    def objective(x):
        u = unitary_from_vector(x, K)
        phi = scaled @ u.swapaxes(1, 2)  # column l = unnormalized decomposition vector l
        mats = phi.swapaxes(1, 2).reshape(len(x), K, n_left, n_right)
        reds = mats @ mats.conj().swapaxes(2, 3)  # left marginals, unnormalized
        return _ensemble_term(reds)

    out = minimize_vector(StackedObjective(objective), K * K, cfg)
    conc = concurrence_2q(rho) if (n_left, n_right) == (2, 2) else None
    return EntanglementResult(
        concurrence=conc, eof=out.best_value, method="decomposition", outcome=out
    )


def purify_with_qubit_ancilla(rho: DensityMatrix) -> PureState:
    """Purification whose ancilla is a qubit (rank must be at most 2)."""
    if rho.rank > 2:
        raise ValueError(f"state rank {rho.rank} > 2; ancilla would exceed a qubit")
    psi = purify(rho)
    amps = np.zeros((rho.dim, 2), dtype=np.complex128)  # rank 1 leaves column 1 at zero
    amps[:, : psi.dim_pair[1]] = psi.amplitudes.reshape(rho.dim, -1)
    return PureState(dim_pair=(rho.dim, 2), amplitudes=amps.ravel())


def koashi_winter_residual(
    rho: BipartiteState,
    N: int | None = None,
    cfg: OptimizerConfig | None = None,
) -> float:
    """|discord(AB) - [EOF(BC) + S(A) - S(AB)]| through a qubit purification.

    Requires n_B = 2 and rank(rho_AB) <= 2 so that BC is two-qubit and the
    right-hand side comes from the closed-form EOF; the left is the
    searched discord_PE at extension dim N.
    """
    if rho.n_B != 2:
        raise ValueError(f"n_B must be 2, got {rho.n_B}")
    psi = purify_with_qubit_ancilla(rho.state)  # raises for rank > 2
    # psi lives on (A)(BC) after regrouping the A-major index (a, b, c)
    regrouped = PureState(dim_pair=(rho.n_A, 2 * rho.n_B), amplitudes=psi.amplitudes)
    rho_bc = partial_trace(regrouped, "B")
    rhs = (
        eof_2q(rho_bc).eof
        + von_neumann(partial_trace(rho, "A"))
        - von_neumann(rho.state)
    )
    # the residual measures the search, so the exact path is never taken
    return abs(_discord_PE(rho, N, cfg, search=True).value - rhs)

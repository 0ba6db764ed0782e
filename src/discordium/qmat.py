"""Complex-matrix core: density matrices, tensor products, partial traces,
a stackable Hermitian eigensolver, purification and standard state
generators.

Conventions used throughout the package:

* all matrices are dense ``numpy`` arrays of ``complex128``;
* bipartite indices are A-major: basis vector ``|a>_A (x) |b>_B`` sits at
  row/column ``a * n_B + b``;
* entropies elsewhere are base-2, so eigenvalue handling here keeps the
  same tolerances everywhere (``RANK_TOL`` for numerical rank).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Entrywise tolerance for Hermiticity / trace / reconstruction checks.
HERM_TOL = 1e-10
# Eigenvalues at or below this are treated as zero for rank and purification.
RANK_TOL = 1e-9
# Norm tolerance for pure-state amplitudes.
NORM_TOL = 1e-12


def _as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=np.complex128)


def _require_finite(a: np.ndarray, what: str) -> None:
    """Reject NaN/inf up front, before a residual check turns them into a
    NaN that names the wrong invariant (or into a numpy warning)."""
    # count_nonzero costs a third of .all() on the small arrays seen here
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError(f"{what} has non-finite entries")


def _frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only copy so stored arrays are safe to share."""
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def dag(m: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return m.conj().T


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, positive-semidefinite, unit-trace matrix.

    Validation happens on construction; violations raise ``ValueError``
    naming the invariant and the measured residual.  ``rank`` is the
    numerical rank at ``RANK_TOL``.  ``spectrum`` is the read-only,
    nondecreasing ``eigvalsh`` of the Hermitian part (M + M^dag)/2 that the
    positivity check computes; the matrix is frozen, so entropies read it
    instead of diagonalizing again.
    """

    matrix: np.ndarray
    dim: int = field(init=False)
    rank: int = field(init=False)
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _as_complex(self.matrix)
        _require_finite(m, "density matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        m_dag = dag(m)
        herm = np.abs(m - m_dag).max()
        if not herm <= HERM_TOL:
            raise ValueError(f"not Hermitian: max |M - M^dag| = {herm:.3e} > {HERM_TOL}")
        tr = abs(np.trace(m) - 1.0)
        if not tr <= HERM_TOL:
            raise ValueError(f"trace not 1: |tr M - 1| = {tr:.3e} > {HERM_TOL}")
        evals = np.linalg.eigvalsh((m + m_dag) / 2)
        if not evals[0] >= -HERM_TOL:
            raise ValueError(
                f"not positive semidefinite: min eigenvalue = {evals[0]:.3e} < -{HERM_TOL}"
            )
        evals.setflags(write=False)
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "rank", int(np.count_nonzero(evals > RANK_TOL)))
        object.__setattr__(self, "spectrum", evals)


@dataclass(frozen=True)
class BipartiteState:
    """A density matrix together with a factorization dim = n_A * n_B.

    The subsystem ordering is fixed A-major: index ``a * n_B + b``.
    """

    n_A: int
    n_B: int
    state: DensityMatrix

    def __post_init__(self):
        if self.n_A < 2 or self.n_B < 2:
            raise ValueError(f"subsystem dims must be >= 2, got ({self.n_A}, {self.n_B})")
        if self.n_A * self.n_B != self.state.dim:
            raise ValueError(
                f"n_A * n_B = {self.n_A * self.n_B} does not match state dim {self.state.dim}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix


@dataclass(frozen=True)
class PureState:
    """A unit vector on a bipartite factorization ``dim_pair = (n_A, n_B)``."""

    dim_pair: tuple[int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amplitudes).ravel()
        _require_finite(amps, "amplitude vector")
        n_A, n_B = self.dim_pair
        if amps.size != n_A * n_B:
            raise ValueError(f"amplitude length {amps.size} != {n_A}*{n_B}")
        norm = abs(np.vdot(amps, amps).real - 1.0)
        if not norm <= NORM_TOL:
            raise ValueError(f"not normalized: |<psi|psi> - 1| = {norm:.3e} > {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _frozen(amps))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in the package's A-major ordering."""
    return np.kron(_as_complex(a), _as_complex(b))


def partial_trace(rho: BipartiteState | PureState, keep: str) -> DensityMatrix:
    """Reduced density matrix of the kept subsystem ('A' or 'B').

    Accepts a ``BipartiteState`` or, for convenience, the ``PureState``
    returned by :func:`purify`.
    """
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    if isinstance(rho, PureState):
        n_A, n_B = rho.dim_pair
        psi = rho.amplitudes.reshape(n_A, n_B)
        if keep == "A":
            red = psi @ dag(psi)
        else:
            red = psi.T @ psi.conj()
        return DensityMatrix(red)
    n_A, n_B = rho.n_A, rho.n_B
    blocks = rho.matrix.reshape(n_A, n_B, n_A, n_B)
    axes = (1, 3) if keep == "A" else (0, 2)
    return DensityMatrix(np.trace(blocks, axis1=axes[0], axis2=axes[1]))


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of a stack of them
    with shape (..., n, n).

    Symmetrizes ``(M + M^dag)/2`` first, so 1e-12-scale drift in the input
    cannot leak into downstream entropies; a stack is rejected if any
    member is not Hermitian.  Eigenvalues come back nondecreasing; the
    columns of each returned matrix are the eigenvectors.  Each member of a
    stack gets the same bits as it would alone.
    """
    m = _as_complex(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"eigh needs square matrices, got shape {m.shape}")
    m_dag = m.conj().swapaxes(-1, -2)
    herm = np.abs(m - m_dag).max()
    if not herm <= HERM_TOL:
        raise ValueError(f"not Hermitian: max |M - M^dag| = {herm:.3e} > {HERM_TOL}")
    return np.linalg.eigh((m + m_dag) / 2)


def purify(rho: DensityMatrix) -> PureState:
    """A pure state on (dim, rank) whose A-marginal reproduces ``rho``.

    Built as sum_i sqrt(p_i) |e_i> (x) |i> from the eigendecomposition,
    with eigenvalues at or below ``RANK_TOL`` dropped and the remaining
    ones listed in decreasing order.
    """
    evals, evecs = eigh(rho.matrix)
    keep = np.where(evals > RANK_TOL)[0][::-1]  # decreasing order
    rank = len(keep)
    amps = np.zeros((rho.dim, rank), dtype=np.complex128)
    for anc, idx in enumerate(keep):
        amps[:, anc] = np.sqrt(evals[idx]) * evecs[:, idx]
    amps = amps.ravel()
    amps = amps / np.linalg.norm(amps)  # absorb the dropped tail
    return PureState(dim_pair=(rho.dim, rank), amplitudes=amps)


# -- state generators ---------------------------------------------------------

def bell_state() -> BipartiteState:
    """(|00> + |11>)/sqrt(2) as a 2x2 bipartite state."""
    psi = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    return BipartiteState(2, 2, DensityMatrix(np.outer(psi, psi.conj())))


def werner(p: float) -> BipartiteState:
    """p |Psi-><Psi-| + (1-p) I/4, with |Psi-> the two-qubit singlet."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"werner parameter must be in [0, 1], got {p}")
    singlet = np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2)
    m = p * np.outer(singlet, singlet.conj()) + (1 - p) * np.eye(4) / 4
    return BipartiteState(2, 2, DensityMatrix(m))


def classical_state(probs, branch_states, basis=None) -> BipartiteState:
    """sum_a p_a |a><a| (x) rho_a with |a> the columns of ``basis``.

    ``basis`` defaults to the computational basis; ``branch_states`` is one
    B-side density matrix (array or DensityMatrix) per probability.
    """
    probs = np.asarray(probs, dtype=float)
    _require_finite(probs, "probability vector")
    if not abs(probs.sum() - 1.0) <= 1e-10:
        raise ValueError(f"probabilities must sum to 1, got {float(probs.sum())}")
    if np.any(probs < 0):
        raise ValueError("probabilities must be nonnegative")
    if len(branch_states) != len(probs):
        raise ValueError("need one branch state per probability")
    branches = [
        b.matrix if isinstance(b, DensityMatrix) else _as_complex(b) for b in branch_states
    ]
    n_A = len(probs)
    n_B = branches[0].shape[0]
    basis = np.eye(n_A, dtype=np.complex128) if basis is None else _as_complex(basis)
    m = np.zeros((n_A * n_B, n_A * n_B), dtype=np.complex128)
    for a, (p, rho_b) in enumerate(zip(probs, branches)):
        ket = basis[:, a]
        m += p * tensor_product(np.outer(ket, ket.conj()), rho_b)
    return BipartiteState(n_A, n_B, DensityMatrix(m))


def product_state(rho_a: DensityMatrix, rho_b: DensityMatrix) -> BipartiteState:
    """rho_A (x) rho_B."""
    return BipartiteState(
        rho_a.dim, rho_b.dim, DensityMatrix(tensor_product(rho_a.matrix, rho_b.matrix))
    )


def ginibre_state(n_A: int, n_B: int, rank: int, seed: int) -> BipartiteState:
    """Random state G G^dag / tr(G G^dag) with G an (n_A n_B) x rank complex
    Gaussian matrix; the rank parameter controls the numerical rank."""
    dim = n_A * n_B
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ dag(g)
    return BipartiteState(n_A, n_B, DensityMatrix(m / np.trace(m).real))


def ginibre_density(dim: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-ensemble density matrix of a bare system (no factorization)."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ dag(g)
    return DensityMatrix(m / np.trace(m).real)

"""One-sided measurement classes and their action on bipartite states.

Four families appear here:

* general Kraus sets {A_a} with sum A_a^dag A_a = I (the completeness
  convention used everywhere in this package);
* projective bases (columns of a unitary);
* rank-1 POVMs given by unnormalized vectors |g> with sum |g><g| = I;
* Neumark bases: an orthonormal basis of an N >= n_A dimensional
  direct-sum extension whose columns, truncated to the first n_A entries,
  form a rank-1 POVM.

A Kraus operator may be rectangular (n_out x n_A): that is how a Neumark
basis acts on a state living in the original space while producing output
in the extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmat import (
    HERM_TOL, BipartiteState, DensityMatrix, _as_complex, _frozen, _require_finite, dag, eigh,
)

# Rank-1 vectors with squared norm at or below this are dropped: restricted
# Neumark columns supported only on the extension contribute nothing.
ZERO_OUTCOME_TOL = 1e-12

UNITARY_TOL = 1e-10


def _unitary(u, n: int, what: str) -> np.ndarray:
    """Validate an n x n unitary and return a read-only copy of it."""
    u = _as_complex(u)
    _require_finite(u, what)
    if u.shape != (n, n):
        raise ValueError(f"{what} must be {n}x{n}, got {u.shape}")
    resid = np.abs(dag(u) @ u - np.eye(n)).max()
    if not resid <= UNITARY_TOL:
        raise ValueError(f"not unitary: max |U^dag U - I| = {resid:.3e} > {UNITARY_TOL}")
    return _frozen(u)


@dataclass(frozen=True)
class KrausSet:
    """A one-sided general measurement {A_a} on an n_A-dimensional system.

    ``dim`` is the input dimension n_A; operators are (n_out x n_A) with a
    common n_out >= n_A, stored as read-only views of one (G, n_out, n_A)
    stack.  Completeness sum A^dag A = I_{n_A} is validated, and
    ``effects`` keeps the read-only (G, n_A, n_A) stack of A_a^dag A_a
    that the check computes.
    """

    dim: int
    operators: tuple[np.ndarray, ...]
    effects: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = tuple(_as_complex(a) for a in self.operators)
        if not ops:
            raise ValueError("KrausSet needs at least one operator")
        n_out = ops[0].shape[0]
        for a in ops:
            if a.ndim != 2 or a.shape != (n_out, self.dim):
                raise ValueError(
                    f"operators must share shape (n_out, {self.dim}), got {a.shape}"
                )
        stack = np.stack(ops)
        _require_finite(stack, "Kraus operator")
        effects = stack.conj().transpose(0, 2, 1) @ stack
        resid = np.abs(effects.sum(axis=0) - np.eye(self.dim)).max()
        if not resid <= HERM_TOL:
            raise ValueError(f"not complete: max |sum A^dag A - I| = {resid:.3e} > {HERM_TOL}")
        stack.setflags(write=False)
        effects.setflags(write=False)
        object.__setattr__(self, "operators", tuple(stack))
        object.__setattr__(self, "effects", effects)

    @property
    def out_dim(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True)
class ProjectiveBasis:
    """An orthonormal measurement basis: the columns of a unitary."""

    dim: int
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", _unitary(self.basis, self.dim, "basis"))


@dataclass(frozen=True)
class RankOnePOVM:
    """Unnormalized vectors |g> with sum_g |g><g| = I_{n_A}.

    ``weights`` stores p_g = <g|g>; zero-weight vectors are rejected rather
    than silently kept.
    """

    dim: int
    vectors: np.ndarray  # (k, n_A), one vector per row
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        v = np.atleast_2d(_as_complex(self.vectors))
        _require_finite(v, "POVM vectors")
        if v.shape[1] != self.dim:
            raise ValueError(f"vectors must have length {self.dim}, got {v.shape[1]}")
        w = np.einsum("ga,ga->g", v.conj(), v).real
        if np.any(w <= ZERO_OUTCOME_TOL):
            raise ValueError("zero-weight vector present; drop it before construction")
        total = np.einsum("ga,gb->ab", v, v.conj())
        resid = np.abs(total - np.eye(self.dim)).max()
        if not resid <= HERM_TOL:
            raise ValueError(f"not complete: max |sum |g><g| - I| = {resid:.3e} > {HERM_TOL}")
        w.setflags(write=False)
        object.__setattr__(self, "vectors", _frozen(v))
        object.__setattr__(self, "weights", w)

    @property
    def n_outcomes(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class NeumarkBasis:
    """Orthonormal basis of an N-dimensional extension of an n_A system.

    Truncating each column to its first n_A entries yields a rank-1 POVM on
    the original space; that is the measurement this basis realizes.
    """

    n_A: int
    N: int
    extension_basis: np.ndarray

    def __post_init__(self):
        if self.N < self.n_A:
            raise ValueError(f"extension dim {self.N} < system dim {self.n_A}")
        u = _unitary(self.extension_basis, self.N, "extension basis")
        object.__setattr__(self, "extension_basis", u)


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Measurement branches (p_a, conditional B state), p_a summing to 1."""

    branches: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self):
        total = sum(p for p, _ in self.branches)
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"branch probabilities sum to {total!r}, not 1")


# -- constructors between families --------------------------------------------

def _rank_one(out: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The (G, n_out, n_A) stack of |out_g><vec_g| from (G, n_out) and
    (G, n_A) rows."""
    return out[:, :, None] * vec.conj()[:, None, :]


def _neumark_columns(nb: NeumarkBasis) -> tuple[np.ndarray, np.ndarray]:
    """The extension basis columns, and their restrictions to the first n_A
    entries, one per row: (K, N) and (K, n_A), without the columns whose
    restriction has squared norm at or below ``ZERO_OUTCOME_TOL``."""
    cols = nb.extension_basis.T
    restricted = cols[:, : nb.n_A]
    norms = np.einsum("ga,ga->g", restricted.conj(), restricted).real
    keep = norms > ZERO_OUTCOME_TOL
    return cols[keep], restricted[keep]


def projective_kraus(pb: ProjectiveBasis) -> KrausSet:
    """Kraus operators |a><a| for each basis column."""
    cols = pb.basis.T
    return KrausSet(pb.dim, _rank_one(cols, cols))


def rank_one_kraus(povm: RankOnePOVM) -> KrausSet:
    """Kraus operators |g><g| / sqrt(p_g)."""
    v = povm.vectors
    return KrausSet(povm.dim, _rank_one(v, v) / np.sqrt(povm.weights)[:, None, None])


def neumark_kraus(nb: NeumarkBasis) -> KrausSet:
    """Rectangular Kraus operators |g_bar><g| mapping H_A into the extension.

    Outcomes whose restriction vanishes are dropped; they never fire on a
    state supported in H_A.
    """
    cols, restricted = _neumark_columns(nb)
    return KrausSet(nb.n_A, _rank_one(cols, restricted))


def from_neumark(nb: NeumarkBasis) -> RankOnePOVM:
    """Restrict the extension basis columns to the first n_A entries.

    Zero restrictions are dropped; completeness of the rest follows from
    unitarity of the extension basis.
    """
    return RankOnePOVM(nb.n_A, _neumark_columns(nb)[1])


# -- measurement action -------------------------------------------------------
#
# Every contraction below is a fixed reshape and one or two matrix
# products: at these sizes (at most 6x6 states, a few Kraus operators) a
# contraction-order search would cost more than the products themselves.

def _kraus_sum(blocks: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_g (A_g (x) I) rho (A_g (x) I)^dag on the first factor.

    ``blocks`` is rho as (n_A, n, n_A, n) and ``ops`` the (G, n_out, n_A)
    operator stack; returns the (n_out, n, n_out, n) blocks of the output.
    """
    g, n_out, n_a = ops.shape
    n = blocks.shape[1]
    # A_g on the row index, all operators in one product: [g, x, i, b, j]
    left = (ops.reshape(g * n_out, n_a) @ blocks.reshape(n_a, -1)).reshape(g, n_out, n, n_a, n)
    # conj(A_g)[y, b] on the column index, summed over (g, b) in one product
    left = left.transpose(1, 2, 4, 0, 3).reshape(n_out * n * n, g * n_a)
    right = ops.conj().transpose(0, 2, 1).reshape(g * n_a, n_out)
    return (left @ right).reshape(n_out, n, n, n_out).transpose(0, 1, 3, 2)


def apply_one_sided(rho: BipartiteState, m: KrausSet) -> BipartiteState:
    """sum_a (A_a (x) I_B) rho (A_a (x) I_B)^dag.

    Preserves the trace and the B marginal; the output A dimension is the
    operators' output dimension (larger than n_A for Neumark sets).
    """
    if m.dim != rho.n_A:
        raise ValueError(f"measurement dim {m.dim} != n_A {rho.n_A}")
    blocks = rho.matrix.reshape(rho.n_A, rho.n_B, rho.n_A, rho.n_B)
    out = _kraus_sum(blocks, np.stack(m.operators))
    n_out = m.out_dim
    dm = DensityMatrix(out.reshape(n_out * rho.n_B, n_out * rho.n_B))
    return BipartiteState(n_out, rho.n_B, dm)


def branch_ensemble(rho: BipartiteState, m: KrausSet) -> ConditionalEnsemble:
    """Outcome probabilities and normalized conditional B states.

    Branch a carries p_a = tr[(A_a^dag A_a (x) I_B) rho] and the state
    tr_A(A_a rho A_a^dag) / p_a; branches with p_a <= 1e-12 are dropped.
    """
    if m.dim != rho.n_A:
        raise ValueError(f"measurement dim {m.dim} != n_A {rho.n_A}")
    n_a, n_b = rho.n_A, rho.n_B
    # tr_A(A rho A^dag)[i,j] = sum_{ab} (A^dag A)[b,a] rho[(a,i),(b,j)]: rho
    # with (b, a) as rows against the flattened effects, all outcomes at once
    pairs = rho.matrix.reshape(n_a, n_b, n_a, n_b).transpose(2, 0, 1, 3).reshape(n_a * n_a, -1)
    conds = (m.effects.reshape(len(m.effects), -1) @ pairs).reshape(-1, n_b, n_b)
    probs = np.trace(conds, axis1=1, axis2=2).real
    return ConditionalEnsemble(tuple(
        (float(p), DensityMatrix(cond / p)) for p, cond in zip(probs, conds) if p > 1e-12
    ))


def rank_one_refine(m: KrausSet) -> RankOnePOVM:
    """Split each effect A^dag A into its rank-1 eigenpieces.

    The emitted vectors are sqrt(lambda_j) v_j from one stacked
    eigendecomposition of the effects A_a^dag A_a, effect by effect, with
    pieces of lambda_j <= ``ZERO_OUTCOME_TOL`` dropped; their union is
    again complete.  Degenerate eigenbases are fixed by the eigensolver's
    ascending order plus a phase convention (first component above 1e-8
    made real positive) so refinement of the same set is reproducible.
    """
    evals, evecs = eigh(m.effects)
    # row (a, j) is eigenvector j of effect a
    vecs = evecs.transpose(0, 2, 1).reshape(-1, m.dim)
    lam = evals.ravel()
    keep = lam > ZERO_OUTCOME_TOL
    vecs, lam = vecs[keep], lam[keep]
    lead = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs) > 1e-8, axis=1)]
    vecs = vecs * (np.abs(lead) / lead)[:, None]
    return RankOnePOVM(m.dim, np.sqrt(lam)[:, None] * vecs)


def randomizing_measurement(n_A: int) -> KrausSet:
    """The n_A^2 Weyl (clock-and-shift) unitaries scaled by 1/n_A.

    Applying this set erases the A side: any input goes to I/n_A (x) rho_B.
    For a qubit these are the four Paulis over 2 (up to phase).
    """
    if n_A < 2:
        raise ValueError(f"n_A must be >= 2, got {n_A}")
    omega = np.exp(2j * np.pi / n_A)
    shift = np.roll(np.eye(n_A, dtype=np.complex128), 1, axis=0)  # X|j> = |j+1>
    clock = np.diag(omega ** np.arange(n_A))                      # Z|j> = w^j |j>
    ops = []
    for a in range(n_A):
        xa = np.linalg.matrix_power(shift, a)
        for b in range(n_A):
            ops.append(xa @ np.linalg.matrix_power(clock, b) / n_A)
    return KrausSet(n_A, tuple(ops))


def two_sided_apply(
    rho: BipartiteState, nb_a: NeumarkBasis, nb_b: NeumarkBasis
) -> BipartiteState:
    """Product measurement: the A extension on side A, the B extension on B.

    Output lives on the two extensions, (N_A, N_B); outcomes whose
    restriction vanishes are dropped and leave their rows zero.  Product
    inputs stay product.
    """
    if nb_a.n_A != rho.n_A or nb_b.n_A != rho.n_B:
        raise ValueError(
            f"extension dims ({nb_a.n_A}, {nb_b.n_A}) != state dims ({rho.n_A}, {rho.n_B})"
        )
    ka = neumark_kraus(nb_a)
    kb = neumark_kraus(nb_b)
    blocks = rho.matrix.reshape(rho.n_A, rho.n_B, rho.n_A, rho.n_B)
    # the two sides' channels commute: apply A's, then B's with the
    # factors swapped
    out = _kraus_sum(blocks, np.stack(ka.operators)).transpose(1, 0, 3, 2)
    out = _kraus_sum(out, np.stack(kb.operators)).transpose(1, 0, 3, 2)
    na, nb = ka.out_dim, kb.out_dim
    dm = DensityMatrix(out.reshape(na * nb, na * nb))
    return BipartiteState(na, nb, dm)


# -- random sampling (for property batteries) ---------------------------------

def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projective(n: int, rng: np.random.Generator) -> ProjectiveBasis:
    return ProjectiveBasis(n, random_unitary(n, rng))


def random_neumark(n_A: int, N: int, rng: np.random.Generator) -> NeumarkBasis:
    return NeumarkBasis(n_A, N, random_unitary(N, rng))


def random_kraus(n_A: int, n_outcomes: int, rng: np.random.Generator) -> KrausSet:
    """Random general measurement: a Haar isometry cut into n_A x n_A blocks."""
    g = rng.standard_normal((n_outcomes * n_A, n_A)) + 1j * rng.standard_normal(
        (n_outcomes * n_A, n_A)
    )
    q, _ = np.linalg.qr(g)  # isometry, q^dag q = I_{n_A}
    return KrausSet(n_A, q.reshape(n_outcomes, n_A, n_A))

"""Discord functionals: the minimal loss of conditional entropy (equivalently
mutual information) under a class of measurements on one side.

Variants:

* ``discord_P``   -- measurement class = projective bases of H_A;
* ``discord_PE``  -- Neumark-extended projective measurements on an
  N >= n_A dimensional extension, equivalently all rank-1 POVMs;
* ``discord_R``   -- alias of ``discord_PE`` recording that the rank-1
  POVM infimum coincides with the Neumark-extended one;
* ``discord_two_sided`` -- product Neumark measurements on both sides.

For a fixed measurement the two evaluation routes are ``loss_functional``
(global entropies of the post-measurement state) and ``ensemble_loss``
(average entropy of the conditional B states); they agree for rank-1
measurements and the ensemble form never increases under rank-1
refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import mutual_information, von_neumann
from .measure import (
    KrausSet,
    NeumarkBasis,
    ProjectiveBasis,
    RankOnePOVM,
    apply_one_sided,
    branch_ensemble,
    from_neumark,
    neumark_kraus,
    projective_kraus,
    rank_one_kraus,
    two_sided_apply,
)
from .optimize import (
    OptimizationOutcome,
    OptimizerConfig,
    minimize_vector,
    unitary_from_vector,
)
from .qmat import BipartiteState, partial_trace

Measurement = (
    "ProjectiveBasis | RankOnePOVM | NeumarkBasis | tuple[NeumarkBasis, NeumarkBasis]"
)


@dataclass(frozen=True)
class DiscordResult:
    """A discord value in bits with the optimizing measurement attached."""

    variant: str
    value: float
    measurement: object
    outcome: OptimizationOutcome

    def __post_init__(self):
        if not self.value >= -1e-7:
            raise ValueError(f"discord value {self.value} below the -1e-7 floor")


def _entropy_constant(rho: BipartiteState) -> float:
    """S(rho_A) - S(rho_AB), the measurement-independent part of every loss."""
    return von_neumann(partial_trace(rho, "A")) - von_neumann(rho.state)


def loss_functional(rho: BipartiteState, m: KrausSet) -> float:
    """S(rho_A) - S(rho_AB) + S(post_AB) - S(post_A) for one measurement.

    Nonnegative for every Kraus set; zero for {I_A}; equal to the mutual
    information under the A-randomizing measurement.
    """
    after = apply_one_sided(rho, m)
    return (
        _entropy_constant(rho)
        + von_neumann(after.state)
        - von_neumann(partial_trace(after, "A"))
    )


def ensemble_loss(rho: BipartiteState, m: KrausSet) -> float:
    """S(rho_A) - S(rho_AB) + sum_a p_a S(conditional B state of outcome a)."""
    ens = branch_ensemble(rho, m)
    return _entropy_constant(rho) + sum(p * von_neumann(dm) for p, dm in ens.branches)


# -- fast evaluation kernels (raw arrays, used inside optimizer loops) --------

def _pair_matrix(rho: BipartiteState) -> np.ndarray:
    """rho rearranged to map (a,b) index pairs to flattened B-blocks."""
    blocks = rho.matrix.reshape(rho.n_A, rho.n_B, rho.n_A, rho.n_B)
    return np.ascontiguousarray(blocks.transpose(0, 2, 1, 3)).reshape(
        rho.n_A * rho.n_A, rho.n_B * rho.n_B
    )


def _conditional_blocks(pair: np.ndarray, vecs: np.ndarray, n_B: int) -> np.ndarray:
    """Unnormalized conditional B states <g|rho|g> for each vector row."""
    k, n_A = vecs.shape
    w = (vecs.conj()[:, :, None] * vecs[:, None, :]).reshape(k, n_A * n_A)
    return (w @ pair).reshape(k, n_B, n_B)


def _xlog2x_fast(lam: np.ndarray) -> np.ndarray:
    """lam * log2(lam) without masking; exact to ~1e-14 for lam >= -1e-15."""
    return lam * np.log2(np.maximum(lam, 1e-300))


def _branch_entropy_contrib(conds: np.ndarray) -> np.ndarray:
    """Per-matrix p * S(cond / p) for a stack of unnormalized conditionals.

    Qubit-sized conditionals use the closed-form 2x2 spectrum; larger ones
    go through the batched eigensolver.
    """
    if conds.shape[-1] == 2:
        t = (conds[:, 0, 0] + conds[:, 1, 1]).real
        det = (conds[:, 0, 0] * conds[:, 1, 1] - conds[:, 0, 1] * conds[:, 1, 0]).real
        disc = np.sqrt(np.maximum(t * t - 4 * det, 0))
        return _xlog2x_fast(t) - (
            _xlog2x_fast((t - disc) / 2) + _xlog2x_fast((t + disc) / 2)
        )
    lam = np.linalg.eigvalsh(conds)
    return _xlog2x_fast(lam.sum(axis=1)) - _xlog2x_fast(lam).sum(axis=1)


def _ensemble_term(conds: np.ndarray) -> float:
    """sum_g p_g S(cond_g / p_g) from unnormalized conditionals."""
    return float(_branch_entropy_contrib(conds).sum())


def _classical_joint(pair_a: np.ndarray, vecs_a, vecs_b, n_B: int) -> np.ndarray:
    """Joint outcome distribution of a product rank-1 measurement."""
    conds = _conditional_blocks(pair_a, vecs_a, n_B)
    k_b, _ = vecs_b.shape
    w_b = (vecs_b.conj()[:, :, None] * vecs_b[:, None, :]).reshape(k_b, n_B * n_B)
    return (conds.reshape(len(vecs_a), n_B * n_B) @ w_b.T).real


def default_extension_dim(rho: BipartiteState) -> int:
    """Default Neumark extension size: rank(rho_A)^2 clamped to [n_A, n_A^2].

    The optimal rank-1 POVM needs at most rank^2 outcomes, and anything
    below n_A cannot host an orthonormal extension basis.
    """
    r = partial_trace(rho, "A").rank
    return min(max(r * r, rho.n_A), rho.n_A * rho.n_A)


def _chart_size(N: int, n: int) -> int:
    """Angles of the search chart for an N x N basis acting on an n system.

    A projective side (N == n) needs its basis only up to column phases, so
    it takes the zero-diagonal generator's N(N-1) angles; an extension
    (N > n) keeps all N^2.
    """
    return N * N if N > n else N * (N - 1)


def discord_P(rho: BipartiteState, cfg: OptimizerConfig | None = None) -> DiscordResult:
    """Discord over projective measurements on A, searched over bases up to
    column phases (the projective chart of :func:`unitary_from_vector`)."""
    cfg = cfg or OptimizerConfig()
    n_A, n_B = rho.n_A, rho.n_B
    const = _entropy_constant(rho)
    pair = _pair_matrix(rho)

    def objective(x):
        u = unitary_from_vector(x, n_A)
        return const + _ensemble_term(_conditional_blocks(pair, u.T, n_B))

    out = minimize_vector(objective, _chart_size(n_A, n_A), cfg)
    basis = ProjectiveBasis(n_A, unitary_from_vector(out.best_params, n_A))
    return DiscordResult("P", out.best_value, basis, out)


def discord_PE(
    rho: BipartiteState, N: int | None = None, cfg: OptimizerConfig | None = None
) -> DiscordResult:
    """Discord over Neumark-extended projective measurements on A.

    Minimizes the ensemble loss over orthonormal bases of an N-dimensional
    extension, acting through their restrictions to H_A.  Nonincreasing in
    N; ``N=None`` picks :func:`default_extension_dim`.
    """
    cfg = cfg or OptimizerConfig()
    if N is None:
        N = default_extension_dim(rho)
    if N < rho.n_A:
        raise ValueError(f"extension dim {N} < n_A {rho.n_A}")
    n_A, n_B = rho.n_A, rho.n_B
    const = _entropy_constant(rho)
    pair = _pair_matrix(rho)

    def objective(x):
        u = unitary_from_vector(x, N)
        vecs = u[:n_A, :].T  # restricted columns, one per outcome
        return const + _ensemble_term(_conditional_blocks(pair, vecs, n_B))

    out = minimize_vector(objective, N * N, cfg)
    nb = NeumarkBasis(n_A, N, unitary_from_vector(out.best_params, N))
    return DiscordResult(f"PE({N})", out.best_value, nb, out)


def discord_R(
    rho: BipartiteState, N: int | None = None, cfg: OptimizerConfig | None = None
) -> DiscordResult:
    """Discord over rank-1 POVMs; identical to the Neumark-extended infimum,
    so this runs the same search and reports the restricted POVM."""
    res = discord_PE(rho, N, cfg)
    return DiscordResult("R", res.value, from_neumark(res.measurement), res.outcome)


def discord_two_sided(
    rho: BipartiteState,
    N_A: int | None = None,
    N_B: int | None = None,
    cfg: OptimizerConfig | None = None,
) -> DiscordResult:
    """Discord under product Neumark measurements on both sides.

    Minimizes S(rho_A)+S(rho_B)-S(rho_AB) + [S(post_AB)-S(post_A)-S(post_B)]
    over pairs of extension bases.  Extension sizes default to the system
    dimensions (the projective members of each side's family); raising them
    can only lower the value.  A side whose extension size equals its
    system size is searched over bases up to column phases.
    """
    cfg = cfg or OptimizerConfig()
    N_A = rho.n_A if N_A is None else N_A
    N_B = rho.n_B if N_B is None else N_B
    if N_A < rho.n_A or N_B < rho.n_B:
        raise ValueError(f"extension dims ({N_A}, {N_B}) below ({rho.n_A}, {rho.n_B})")
    n_A, n_B = rho.n_A, rho.n_B
    const = mutual_information(rho)
    pair = _pair_matrix(rho)
    k_a = _chart_size(N_A, n_A)

    def objective(x):
        u_a = unitary_from_vector(x[:k_a], N_A)
        u_b = unitary_from_vector(x[k_a:], N_B)
        q = _classical_joint(pair, u_a[:n_A, :].T, u_b[:n_B, :].T, n_B)
        # post-measurement state is diagonal in the product extension basis,
        # so the bracket reduces to classical entropies of the outcome table
        return const + float(
            _xlog2x_fast(q.sum(axis=1)).sum()
            + _xlog2x_fast(q.sum(axis=0)).sum()
            - _xlog2x_fast(q.ravel()).sum()
        )

    out = minimize_vector(objective, k_a + _chart_size(N_B, n_B), cfg)
    nb_a = NeumarkBasis(n_A, N_A, unitary_from_vector(out.best_params[:k_a], N_A))
    nb_b = NeumarkBasis(n_B, N_B, unitary_from_vector(out.best_params[k_a:], N_B))
    return DiscordResult(f"two_sided_PE({N_A},{N_B})", out.best_value, (nb_a, nb_b), out)


def two_sided_loss(rho: BipartiteState, nb_a: NeumarkBasis, nb_b: NeumarkBasis) -> float:
    """The two-sided loss of one fixed product measurement (slow route)."""
    after = two_sided_apply(rho, nb_a, nb_b)
    return (
        mutual_information(rho)
        + von_neumann(after.state)
        - von_neumann(partial_trace(after, "A"))
        - von_neumann(partial_trace(after, "B"))
    )


def evaluate_measurement(rho: BipartiteState, measurement) -> float:
    """Re-evaluate the loss of a stored optimizer measurement.

    Dispatches on the measurement family; used to check serialized results
    against their reported values.
    """
    if isinstance(measurement, ProjectiveBasis):
        return ensemble_loss(rho, projective_kraus(measurement))
    if isinstance(measurement, RankOnePOVM):
        return ensemble_loss(rho, rank_one_kraus(measurement))
    if isinstance(measurement, NeumarkBasis):
        return ensemble_loss(rho, neumark_kraus(measurement))
    if isinstance(measurement, tuple) and len(measurement) == 2:
        return two_sided_loss(rho, *measurement)
    if isinstance(measurement, KrausSet):
        return loss_functional(rho, measurement)
    raise TypeError(f"unsupported measurement type {type(measurement).__name__}")


def is_classical(
    rho: BipartiteState,
    cfg: OptimizerConfig | None = None,
    threshold: float = 1e-5,
) -> tuple[bool, ProjectiveBasis]:
    """Whether the state is classical (zero projective discord), with the
    minimizing basis as witness.

    The zero sets of the P, R and PE variants coincide, so the projective
    verdict settles all of them.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    res = discord_P(rho, cfg)
    return res.value <= threshold, res.measurement

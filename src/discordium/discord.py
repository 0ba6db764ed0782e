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

A two-qubit state of rank <= 2 has an exact path: purified with a qubit
C, its extended discord is EOF(BC) + S(A) - S(AB) (Koashi and Winter,
PRA 69, 022309 (2004)), and Wootters' construction of the optimal BC
decomposition (PRL 80, 2245 (1998)) is induced by a projective A-basis,
so D_P = D_PE and the basis comes in closed form.  ``discord_P`` and
``discord_PE`` take it where it applies and the multi-restart search
everywhere else; ``_discord_P`` and ``_discord_PE`` with ``search=True``
run the search on every input, for the checks that measure it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _xlog2x, conditional_entropy, mutual_information, von_neumann
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
    StackedObjective,
    minimize_vector,
    unitary_from_vector,
)
from .qmat import BipartiteState, partial_trace


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

    @property
    def path(self) -> str:
        """``"exact"`` for the closed-form basis, ``"optimizer"`` for the
        search (which always runs at least one evaluation)."""
        return "exact" if self.outcome.evaluations == 0 else "optimizer"


def loss_functional(rho: BipartiteState, m: KrausSet) -> float:
    """S(rho_A) - S(rho_AB) + S(post_AB) - S(post_A) for one measurement.

    Nonnegative for every Kraus set; zero for {I_A}; equal to the mutual
    information under the A-randomizing measurement.
    """
    after = apply_one_sided(rho, m)
    return (
        -conditional_entropy(rho)
        + von_neumann(after.state)
        - von_neumann(partial_trace(after, "A"))
    )


def ensemble_loss(rho: BipartiteState, m: KrausSet) -> float:
    """S(rho_A) - S(rho_AB) + sum_a p_a S(conditional B state of outcome a)."""
    ens = branch_ensemble(rho, m)
    return -conditional_entropy(rho) + sum(p * von_neumann(dm) for p, dm in ens.branches)


# -- fast evaluation kernels (raw arrays, used inside optimizer loops) --------

def _pair_matrix(rho: BipartiteState) -> np.ndarray:
    """rho rearranged to map (a,b) index pairs to flattened B-blocks."""
    blocks = rho.matrix.reshape(rho.n_A, rho.n_B, rho.n_A, rho.n_B)
    return np.ascontiguousarray(blocks.transpose(0, 2, 1, 3)).reshape(
        rho.n_A * rho.n_A, rho.n_B * rho.n_B
    )


def _projector_weights(vecs: np.ndarray) -> np.ndarray:
    """Flattened outer products conj(g) g^T of each vector row, so that
    ``weights @ pair`` contracts rho with |g><g| on A."""
    n = vecs.shape[-1]
    w = vecs.conj()[..., :, None] * vecs[..., None, :]
    return w.reshape(*vecs.shape[:-1], n * n)


def _conditional_blocks(pair: np.ndarray, vecs: np.ndarray, n_B: int) -> np.ndarray:
    """Unnormalized conditional B states <g|rho|g> for each vector row,
    over any leading stack axes of ``vecs``."""
    return (_projector_weights(vecs) @ pair).reshape(*vecs.shape[:-1], n_B, n_B)


def _branch_entropy_contrib(conds: np.ndarray) -> np.ndarray:
    """Per-matrix p * S(cond / p) for a stack of unnormalized conditionals.

    Qubit-sized conditionals use the closed-form 2x2 spectrum; larger ones
    go through the batched eigensolver.
    """
    if conds.shape[-1] == 2:
        a, d = conds[..., 0, 0], conds[..., 1, 1]
        t = (a + d).real
        det = (a * d - conds[..., 0, 1] * conds[..., 1, 0]).real
        disc = np.sqrt(np.maximum(t * t - 4 * det, 0))
        return _xlog2x(t) - (_xlog2x((t - disc) / 2) + _xlog2x((t + disc) / 2))
    lam = np.linalg.eigvalsh(conds)
    return _xlog2x(lam.sum(axis=-1)) - _xlog2x(lam).sum(axis=-1)


def _ensemble_term(conds: np.ndarray) -> np.ndarray:
    """sum_g p_g S(cond_g / p_g) from unnormalized conditionals
    (..., g, n_B, n_B): one sum per leading stack index."""
    return _branch_entropy_contrib(conds).sum(axis=-1)


def _classical_joint(pair_a: np.ndarray, vecs_a, vecs_b) -> np.ndarray:
    """Joint outcome distribution of a product rank-1 measurement, over any
    leading stack axes shared by ``vecs_a`` and ``vecs_b``."""
    conds = _projector_weights(vecs_a) @ pair_a  # flattened B blocks per A outcome
    return (conds @ _projector_weights(vecs_b).swapaxes(-1, -2)).real


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


# sigma_y (x) sigma_y on the BC pair; real, so tau below needs no conj of it
_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


def _has_exact_path(rho: BipartiteState) -> bool:
    """Whether the closed-form basis applies (see module docstring)."""
    return rho.n_A == rho.n_B == 2 and rho.state.rank <= 2


def _koashi_winter_generator(rho: BipartiteState) -> complex:
    """The off-diagonal entry z of the qubit-chart generator whose first
    basis column induces Wootters' optimal decomposition of rho_BC.

    rho_AB is purified with a qubit C from its two largest eigenpairs; the
    SVD of the A | BC amplitude matrix M = U diag(s) Vh gives the
    subnormalized BC vectors v_i = s_i Vh[i], and measuring A in the basis
    G = U T^dag leaves the BC ensemble T v.  Wootters' T is
    O(theta) diag(1, i) Q^T: Q Takagi-factors tau_ij = v_i^dag (sy x sy)
    v_j*, and the real rotation O(theta) gives every element concurrence
    C = lambda_1 - lambda_2.
    """
    evals, evecs = np.linalg.eigh(rho.matrix)
    amps = evecs[:, 2:] * np.sqrt(np.maximum(evals[2:], 0.0))  # (AB, C)
    u, s, vh = np.linalg.svd(amps.reshape(2, 4))  # rows A, columns (B, C)
    v = s[:, None] * vh[:2]
    tau = v.conj() @ _SIGMA_YY @ v.conj().T
    # Takagi tau = Q diag(lam) Q^T: tau conj(q) = lam q is the real
    # symmetric eigenproblem below; its spectrum is +-lam.
    lam, vec = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    lam, vec = lam[[3, 2]], vec[:, [3, 2]]
    q = vec[:2] + 1j * vec[2:]  # columns q_k
    y = (q.T @ v) * np.array([[1.0], [1j]])
    c = lam[0] - lam[1]
    theta = 0.5 * math.atan2(
        lam[0] - c * np.vdot(y[0], y[0]).real, c * np.vdot(y[0], y[1]).real
    )
    # first row of T, and the basis column it gives
    g = u @ (math.cos(theta) * q[:, 0] + 1j * math.sin(theta) * q[:, 1]).conj()
    g = g / np.linalg.norm(g)
    # chart column 0 is (cos r, i (sin r / r) z*) with r = |z|
    a = abs(g[0])
    b = g[1] * (g[0].conjugate() / a) if a else g[1]
    r = math.atan2(abs(b), a)
    return 1j * b.conjugate() * (r / abs(b)) if abs(b) else 0j


def _one_sided(
    rho: BipartiteState, N: int, n_params: int, cfg: OptimizerConfig, search: bool
) -> tuple[OptimizationOutcome, np.ndarray]:
    """Best basis of an N >= n_A extension of A, acting through its
    restriction: the closed-form basis where it applies, unless ``search``,
    and the multi-restart search otherwise.

    The exact path writes its basis as chart angles (z in the first
    off-diagonal slot of the generator) and rebuilds it once, as the
    search rebuilds its best point, so its value is the loss of the
    returned basis.
    """
    n_A, n_B = rho.n_A, rho.n_B
    const = -conditional_entropy(rho)  # S(rho_A) - S(rho_AB)
    pair = _pair_matrix(rho)

    def loss(u):
        # restricted columns, one per outcome, for one basis or a stack
        return const + _ensemble_term(
            _conditional_blocks(pair, u[..., :n_A, :].swapaxes(-1, -2), n_B)
        )

    if not search and _has_exact_path(rho):
        z = _koashi_winter_generator(rho)
        params = np.zeros(n_params)
        k = n_params - N * (N - 1)  # diagonal angles before the (0, 1) entry
        params[k : k + 2] = z.real, z.imag
        u = unitary_from_vector(params, N)
        value = float(loss(u))
        return OptimizationOutcome(value, params, (value,), True), u
    out = minimize_vector(
        StackedObjective(lambda x: loss(unitary_from_vector(x, N))), n_params, cfg
    )
    return out, unitary_from_vector(out.best_params, N)


def _discord_P(
    rho: BipartiteState, cfg: OptimizerConfig | None, search: bool
) -> DiscordResult:
    """:func:`discord_P`; ``search=True`` skips the closed-form path."""
    cfg = cfg or OptimizerConfig()
    n_A = rho.n_A
    out, u = _one_sided(rho, n_A, _chart_size(n_A, n_A), cfg, search)
    return DiscordResult("P", out.best_value, ProjectiveBasis(n_A, u), out)


def discord_P(rho: BipartiteState, cfg: OptimizerConfig | None = None) -> DiscordResult:
    """Discord over projective measurements on A, searched over bases up to
    column phases (the projective chart of :func:`unitary_from_vector`),
    or built in closed form where that applies (see module docstring)."""
    return _discord_P(rho, cfg, search=False)


def _discord_PE(
    rho: BipartiteState, N: int | None, cfg: OptimizerConfig | None, search: bool
) -> DiscordResult:
    """:func:`discord_PE`; ``search=True`` skips the closed-form path."""
    cfg = cfg or OptimizerConfig()
    if N is None:
        N = default_extension_dim(rho)
    if N < rho.n_A:
        raise ValueError(f"extension dim {N} < n_A {rho.n_A}")
    out, u = _one_sided(rho, N, N * N, cfg, search)
    return DiscordResult(f"PE({N})", out.best_value, NeumarkBasis(rho.n_A, N, u), out)


def discord_PE(
    rho: BipartiteState, N: int | None = None, cfg: OptimizerConfig | None = None
) -> DiscordResult:
    """Discord over Neumark-extended projective measurements on A.

    Minimizes the ensemble loss over orthonormal bases of an N-dimensional
    extension, acting through their restrictions to H_A.  The infimum is
    nonincreasing in N, but the value the search returns need not be: on
    n_A = 3 states the 81-angle search at N = 9 lands above its value at
    N = 4, and above D_P.  ``N=None`` picks :func:`default_extension_dim`.
    On the exact path the basis is projective: the closed-form qubit basis
    padded with N - 2 columns outside H_A.
    """
    return _discord_PE(rho, N, cfg, search=False)


def discord_R(
    rho: BipartiteState, N: int | None = None, cfg: OptimizerConfig | None = None
) -> DiscordResult:
    """Discord over rank-1 POVMs; identical to the Neumark-extended infimum,
    so this runs the same solve and reports the restricted POVM."""
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
        u_a = unitary_from_vector(x[:, :k_a], N_A)
        u_b = unitary_from_vector(x[:, k_a:], N_B)
        q = _classical_joint(
            pair, u_a[:, :n_A, :].swapaxes(1, 2), u_b[:, :n_B, :].swapaxes(1, 2)
        )
        # post-measurement state is diagonal in the product extension basis,
        # so the bracket reduces to classical entropies of the outcome table:
        # its two marginals' sum x log x, minus the table's
        t = _xlog2x(np.concatenate([q.sum(axis=2), q.sum(axis=1), q.reshape(len(x), -1)], axis=1))
        k = N_A + N_B
        return const + (t[:, :N_A].sum(axis=1) + t[:, N_A:k].sum(axis=1) - t[:, k:].sum(axis=1))

    out = minimize_vector(StackedObjective(objective), k_a + _chart_size(N_B, n_B), cfg)
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

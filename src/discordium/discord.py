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

Three closed forms replace the search where they apply, tried in this
order (``_closed_form``):

* ``koashi_winter`` (P and PE; two qubits, rank(rho) <= 2): purified with
  a qubit C, the extended discord is EOF(BC) + S(A) - S(AB) (Koashi and
  Winter, PRA 69, 022309 (2004)), and Wootters' construction of the
  optimal BC decomposition (PRL 80, 2245 (1998)) is induced by a
  projective A-basis, so D_P = D_PE and the basis comes in closed form.
* ``uncorrelated`` (every variant, any dimensions, I(A:B) <= 1e-12): the
  identity basis on each side; its loss, I(A:B) minus the classical
  correlation its outcomes keep, lies in [0, I(A:B)].
* ``zero_bloch`` (every variant; two qubits whose local Bloch vectors are
  both below 1e-12, that is Bell-diagonal up to local unitaries): with the
  correlation matrix T_ij = tr[rho (s_i x s_j)], A is measured along T's
  top left singular vector and, two-sided, B along the matching right one
  (Luo, PRA 77, 042303 (2008)).  A rank-1 POVM element w_k (I + n_k . s)
  occurs with probability w_k and leaves B with Bloch vector T^T n_k, no
  longer than the top singular value s_1, and h((1 + r) / 2) falls as r
  grows, so the projective basis is optimal over all POVMs: D_PE(N) = D_P.
  Data processing bounds the two-sided classical mutual information by the
  one-sided value, so the two-sided discord equals D_P as well.

``discord_P``, ``discord_PE`` and ``discord_two_sided`` take the first
form that applies and the multi-restart search everywhere else; their
results name the form in ``closed_form``.  ``_discord_P``, ``_discord_PE``
and ``_discord_two_sided`` with ``search=True`` run the search on every
input, for the checks that measure it.
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
    # the closed form that gave the basis (see module docstring); None
    # where the search ran
    closed_form: str | None = None

    def __post_init__(self):
        if not self.value >= -1e-7:
            raise ValueError(f"discord value {self.value} below the -1e-7 floor")

    @property
    def path(self) -> str:
        """``"exact"`` for a closed-form basis, ``"optimizer"`` for the
        search (which always runs at least one evaluation)."""
        return "optimizer" if self.closed_form is None else "exact"


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
    return w.reshape(vecs.shape[:-1] + (n * n,))


def _conditional_blocks(pair: np.ndarray, vecs: np.ndarray, n_B: int) -> np.ndarray:
    """Unnormalized conditional B states <g|rho|g> for each vector row,
    over any leading stack axes of ``vecs``."""
    return (_projector_weights(vecs) @ pair).reshape(vecs.shape[:-1] + (n_B, n_B))


def _branch_entropy_contrib(conds: np.ndarray) -> np.ndarray:
    """Per-matrix p * S(cond / p) for a stack of unnormalized conditionals,
    as x log x of the trace p minus x log x summed over the spectrum.

    Qubit-sized conditionals use the closed-form 2x2 spectrum; larger ones
    go through the batched eigensolver.  Either way the traces and the
    eigenvalues share one buffer and one ``_xlog2x`` pass.
    """
    if conds.shape[-1] == 2:
        a, d = conds[..., 0, 0], conds[..., 1, 1]
        buf = np.empty((3,) + a.shape)  # the trace, then the two eigenvalues
        t = np.add(a.real, d.real, out=buf[0])
        det = (a * d - conds[..., 0, 1] * conds[..., 1, 0]).real
        disc = t * t
        disc -= 4 * det
        np.sqrt(np.maximum(disc, 0, out=disc), out=disc)
        np.subtract(t, disc, out=buf[1])
        np.add(t, disc, out=buf[2])
        buf[1:] /= 2
        x = _xlog2x(buf, overwrite=True)
        return x[0] - (x[1] + x[2])
    lam = np.linalg.eigvalsh(conds)
    buf = np.empty(lam.shape[:-1] + (lam.shape[-1] + 1,))  # the eigenvalues, then the trace
    buf[..., :-1] = lam
    np.add.reduce(lam, -1, out=buf[..., -1])
    x = _xlog2x(buf, overwrite=True)
    return x[..., -1] - np.add.reduce(x[..., :-1], -1)


def _ensemble_term(conds: np.ndarray) -> np.ndarray:
    """sum_g p_g S(cond_g / p_g) from unnormalized conditionals
    (..., g, n_B, n_B): one sum per leading stack index."""
    return np.add.reduce(_branch_entropy_contrib(conds), -1)


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
# I, X, Y, Z: the basis of the real Fano form of a two-qubit state
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# A mutual information or a local Bloch vector length at or below this
# counts as zero for the closed forms
_ZERO_TOL = 1e-12


def _koashi_winter_column(rho: BipartiteState) -> np.ndarray:
    """The first column of the qubit A-basis that induces Wootters' optimal
    decomposition of rho_BC.

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
    return g / np.linalg.norm(g)


def _bloch_column(n: np.ndarray) -> np.ndarray:
    """A unit qubit vector whose projector is (I +- n . sigma) / 2 for the
    real unit vector n; n and -n give the same basis, so the sign is taken
    with n_z >= 0, away from the pole where the formula divides by zero."""
    if n[2] < 0:
        n = -n
    g = np.array([1.0 + n[2], n[0] + 1j * n[1]])
    return g / np.linalg.norm(g)


def _closed_form(rho: BipartiteState, one_sided: bool):
    """The first closed form of the module docstring that applies to rho,
    as ``(name, g_A, g_B)``, where g is the first column of that side's
    qubit basis or None for the identity; None when the search must run.
    Koashi-Winter fixes only A's basis, so ``one_sided=False`` skips it."""
    qubits = rho.n_A == rho.n_B == 2
    if one_sided and qubits and rho.state.rank <= 2:
        return "koashi_winter", _koashi_winter_column(rho), None
    if mutual_information(rho) <= _ZERO_TOL:
        return "uncorrelated", None, None
    if qubits:
        # M_ij = tr[rho (s_i (x) s_j)]: Bloch vectors in row and column 0, T below
        fano = np.einsum("abcd,ica,jdb->ij", rho.matrix.reshape(2, 2, 2, 2), _PAULI, _PAULI).real
        if max(np.linalg.norm(fano[1:, 0]), np.linalg.norm(fano[0, 1:])) <= _ZERO_TOL:
            u, _, vt = np.linalg.svd(fano[1:, 1:])
            return "zero_bloch", _bloch_column(u[:, 0]), _bloch_column(vt[0])
    return None


def _chart_params(g: np.ndarray | None, N: int, n_params: int) -> np.ndarray:
    """Chart angles of an N x N basis whose first column is g on the qubit
    block and which fixes every other axis: z in the first off-diagonal
    slot of the generator, every other angle 0; the identity for None."""
    params = np.zeros(n_params)
    if g is None:
        return params
    # chart column 0 is (cos r, i (sin r / r) z*) with r = |z|
    a = abs(g[0])
    b = g[1] * (g[0].conjugate() / a) if a else g[1]
    r = math.atan2(abs(b), a)
    z = 1j * b.conjugate() * (r / abs(b)) if abs(b) else 0j
    k = n_params - N * (N - 1)  # diagonal angles before the (0, 1) entry
    params[k : k + 2] = z.real, z.imag
    return params


def _one_sided(
    rho: BipartiteState, N: int, n_params: int, cfg: OptimizerConfig, search: bool
) -> tuple[OptimizationOutcome, np.ndarray, str | None]:
    """Best basis of an N >= n_A extension of A, acting through its
    restriction, and the closed form that gave it: a closed-form basis
    where one applies, unless ``search``, and the multi-restart search
    (form None) otherwise.

    The exact path writes its basis as chart angles and rebuilds it once,
    as the search rebuilds its best point, so its value is the loss of
    the returned basis.
    """
    n_A, n_B = rho.n_A, rho.n_B
    const = -conditional_entropy(rho)  # S(rho_A) - S(rho_AB)
    pair = _pair_matrix(rho)

    def loss(u):
        # restricted columns, one per outcome, for one basis or a stack
        return const + _ensemble_term(
            _conditional_blocks(pair, u[..., :n_A, :].swapaxes(-1, -2), n_B)
        )

    form = None if search else _closed_form(rho, one_sided=True)
    if form is not None:
        params = _chart_params(form[1], N, n_params)
        u = unitary_from_vector(params, N)
        value = float(loss(u))
        return OptimizationOutcome(value, params, (value,), True), u, form[0]
    out = minimize_vector(
        StackedObjective(lambda x: loss(unitary_from_vector(x, N))), n_params, cfg
    )
    return out, unitary_from_vector(out.best_params, N), None


def _discord_P(
    rho: BipartiteState, cfg: OptimizerConfig | None, search: bool
) -> DiscordResult:
    """:func:`discord_P`; ``search=True`` skips the closed-form paths."""
    cfg = cfg or OptimizerConfig()
    n_A = rho.n_A
    out, u, form = _one_sided(rho, n_A, _chart_size(n_A, n_A), cfg, search)
    return DiscordResult("P", out.best_value, ProjectiveBasis(n_A, u), out, form)


def discord_P(rho: BipartiteState, cfg: OptimizerConfig | None = None) -> DiscordResult:
    """Discord over projective measurements on A, searched over bases up to
    column phases (the projective chart of :func:`unitary_from_vector`),
    or built in closed form where one applies (see module docstring)."""
    return _discord_P(rho, cfg, search=False)


def _discord_PE(
    rho: BipartiteState, N: int | None, cfg: OptimizerConfig | None, search: bool
) -> DiscordResult:
    """:func:`discord_PE`; ``search=True`` skips the closed-form paths."""
    cfg = cfg or OptimizerConfig()
    if N is None:
        N = default_extension_dim(rho)
    if N < rho.n_A:
        raise ValueError(f"extension dim {N} < n_A {rho.n_A}")
    out, u, form = _one_sided(rho, N, N * N, cfg, search)
    return DiscordResult(f"PE({N})", out.best_value, NeumarkBasis(rho.n_A, N, u), out, form)


def discord_PE(
    rho: BipartiteState, N: int | None = None, cfg: OptimizerConfig | None = None
) -> DiscordResult:
    """Discord over Neumark-extended projective measurements on A.

    Minimizes the ensemble loss over orthonormal bases of an N-dimensional
    extension, acting through their restrictions to H_A.  The infimum is
    nonincreasing in N, but the value the search returns need not be: on
    n_A = 3 states the 81-angle search at N = 9 lands above its value at
    N = 4, and above D_P.  ``N=None`` picks :func:`default_extension_dim`.
    All three closed forms of the module docstring apply at every N, since
    each makes D_PE(N) = D_P, and their bases are projective: the
    Koashi-Winter or zero-Bloch qubit basis, or the identity of H_A for an
    uncorrelated state, padded with N - n_A columns outside H_A.
    """
    return _discord_PE(rho, N, cfg, search=False)


def discord_R(
    rho: BipartiteState, N: int | None = None, cfg: OptimizerConfig | None = None
) -> DiscordResult:
    """Discord over rank-1 POVMs; identical to the Neumark-extended infimum,
    so this runs the same solve and reports the restricted POVM."""
    res = discord_PE(rho, N, cfg)
    return DiscordResult(
        "R", res.value, from_neumark(res.measurement), res.outcome, res.closed_form
    )


def _discord_two_sided(
    rho: BipartiteState,
    N_A: int | None,
    N_B: int | None,
    cfg: OptimizerConfig | None,
    search: bool,
) -> DiscordResult:
    """:func:`discord_two_sided`; ``search=True`` skips the closed-form paths."""
    cfg = cfg or OptimizerConfig()
    N_A = rho.n_A if N_A is None else N_A
    N_B = rho.n_B if N_B is None else N_B
    if N_A < rho.n_A or N_B < rho.n_B:
        raise ValueError(f"extension dims ({N_A}, {N_B}) below ({rho.n_A}, {rho.n_B})")
    n_A, n_B = rho.n_A, rho.n_B
    const = mutual_information(rho)
    pair = _pair_matrix(rho)
    k_a, k_b = _chart_size(N_A, n_A), _chart_size(N_B, n_B)

    def loss(u_a, u_b):
        # one value per (m, N_A, N_A) and (m, N_B, N_B) stacked pair of bases
        q = _classical_joint(
            pair, u_a[:, :n_A, :].swapaxes(1, 2), u_b[:, :n_B, :].swapaxes(1, 2)
        )
        # post-measurement state is diagonal in the product extension basis,
        # so the bracket reduces to classical entropies of the outcome table:
        # its two marginals' sum x log x, minus the table's
        add = np.add.reduce
        table = np.concatenate([add(q, 2), add(q, 1), q.reshape(len(q), -1)], axis=1)
        t = _xlog2x(table, overwrite=True)
        k = N_A + N_B
        return const + (add(t[:, :N_A], 1) + add(t[:, N_A:k], 1) - add(t[:, k:], 1))

    def bases(x):
        # A's and B's unitaries of one parameter vector, or of a stack
        return unitary_from_vector(x[..., :k_a], N_A), unitary_from_vector(x[..., k_a:], N_B)

    form = None if search else _closed_form(rho, one_sided=False)
    if form is None:
        out = minimize_vector(StackedObjective(lambda x: loss(*bases(x))), k_a + k_b, cfg)
        u_a, u_b = bases(out.best_params)
    else:
        params = np.concatenate(
            [_chart_params(form[1], N_A, k_a), _chart_params(form[2], N_B, k_b)]
        )
        u_a, u_b = bases(params)
        value = float(loss(u_a[None], u_b[None])[0])
        out = OptimizationOutcome(value, params, (value,), True)
    measurement = (NeumarkBasis(n_A, N_A, u_a), NeumarkBasis(n_B, N_B, u_b))
    return DiscordResult(
        f"two_sided_PE({N_A},{N_B})", out.best_value, measurement, out,
        None if form is None else form[0],
    )


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
    system size is searched over bases up to column phases.  The
    ``uncorrelated`` and ``zero_bloch`` closed forms of the module
    docstring replace the search where they apply, at every extension size.
    """
    return _discord_two_sided(rho, N_A, N_B, cfg, search=False)


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

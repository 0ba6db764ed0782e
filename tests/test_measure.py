import ast
import pathlib
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discordium.measure as measure_mod
from discordium.discord import ensemble_loss
from discordium.measure import (
    ZERO_OUTCOME_TOL,
    KrausSet,
    NeumarkBasis,
    ProjectiveBasis,
    RankOnePOVM,
    apply_one_sided,
    branch_ensemble,
    from_neumark,
    neumark_kraus,
    projective_kraus,
    randomizing_measurement,
    rank_one_kraus,
    rank_one_refine,
    random_kraus,
    random_neumark,
    random_projective,
    random_unitary,
    two_sided_apply,
)
from discordium.qmat import (
    DensityMatrix,
    bell_state,
    classical_state,
    eigh,
    ginibre_density,
    ginibre_state,
    partial_trace,
    product_state,
    tensor_product,
    werner,
)

# derandomized and without an example database, so every run checks the
# same cases
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)

# one valid input per validated type, built from a complex array in which
# one entry is replaced
_VALID = {
    "DensityMatrix": (np.eye(4) / 4, DensityMatrix),
    "KrausSet": (np.eye(2) / np.sqrt(2), lambda a: KrausSet(2, (a, np.eye(2) / np.sqrt(2)))),
    "ProjectiveBasis": (np.eye(3), lambda a: ProjectiveBasis(3, a)),
    "NeumarkBasis": (np.eye(3), lambda a: NeumarkBasis(2, 3, a)),
    "RankOnePOVM": (np.eye(2), lambda a: RankOnePOVM(2, a)),
}

PAULIS = [
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1, -1]),
]


def comp_basis(n):
    return ProjectiveBasis(n, np.eye(n))


def trine_neumark():
    # real rotation sending the standard basis to the symmetric trine:
    # restricted columns sqrt(2/3) (cos(2pi k/3), sin(2pi k/3)), third row 1/sqrt(3)
    u = np.zeros((3, 3))
    for k in range(3):
        angle = 2 * np.pi * k / 3
        u[0, k] = np.sqrt(2 / 3) * np.cos(angle)
        u[1, k] = np.sqrt(2 / 3) * np.sin(angle)
        u[2, k] = 1 / np.sqrt(3)
    return NeumarkBasis(2, 3, u)


class TestApplyOneSided:
    def test_identity_measurement(self):
        rho = ginibre_state(2, 3, 4, seed=1)
        out = apply_one_sided(rho, KrausSet(2, (np.eye(2),)))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_classical_state_fixed(self):
        rho = classical_state([0.5, 0.5], [np.diag([1.0, 0]), np.diag([0.0, 1])])
        out = apply_one_sided(rho, projective_kraus(comp_basis(2)))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_randomizing_erases_A(self):
        for seed in range(5):
            rho = ginibre_state(2, 3, 6, seed=seed)
            out = apply_one_sided(rho, randomizing_measurement(2))
            expected = tensor_product(np.eye(2) / 2, partial_trace(rho, "B").matrix)
            np.testing.assert_allclose(out.matrix, expected, atol=1e-10)

    def test_trace_preserved(self):
        rho = ginibre_state(3, 2, 4, seed=3)
        m = random_kraus(3, 3, np.random.default_rng(4))
        out = apply_one_sided(rho, m)
        assert abs(np.trace(out.matrix) - 1) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_one_sided(ginibre_state(3, 2, 2, seed=0), KrausSet(2, (np.eye(2),)))


class TestBranchEnsemble:
    def test_bell_computational(self):
        ens = branch_ensemble(bell_state(), projective_kraus(comp_basis(2)))
        assert len(ens.branches) == 2
        for p, dm in ens.branches:
            assert abs(p - 0.5) < 1e-12
            assert dm.rank == 1  # conditional states pure

    def test_product_branches(self):
        rng = np.random.default_rng(5)
        sigma = ginibre_density(2, 2, rng)
        rho = product_state(ginibre_density(2, 2, rng), sigma)
        ens = branch_ensemble(rho, projective_kraus(random_projective(2, rng)))
        for _, dm in ens.branches:
            np.testing.assert_allclose(dm.matrix, sigma.matrix, atol=1e-10)

    def test_isotropic_branches(self):
        ens = branch_ensemble(werner(0.0), projective_kraus(random_projective(2, np.random.default_rng(6))))
        for _, dm in ens.branches:
            np.testing.assert_allclose(dm.matrix, np.eye(2) / 2, atol=1e-10)


class TestNeumark:
    def test_identity_extension_is_projective(self):
        povm = from_neumark(NeumarkBasis(2, 2, np.eye(2)))
        assert povm.n_outcomes == 2
        np.testing.assert_allclose(povm.vectors, np.eye(2), atol=1e-15)

    def test_trine(self):
        povm = from_neumark(trine_neumark())
        assert povm.n_outcomes == 3
        np.testing.assert_allclose(povm.weights, [2 / 3] * 3, atol=1e-12)
        total = np.einsum("ga,gb->ab", povm.vectors, povm.vectors.conj())
        assert np.abs(total - np.eye(2)).max() <= 1e-12

    def test_random_extensions(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            povm = from_neumark(random_neumark(2, 4, rng))
            assert povm.n_outcomes <= 4
            total = np.einsum("ga,gb->ab", povm.vectors, povm.vectors.conj())
            assert np.abs(total - np.eye(2)).max() <= 1e-10

    def test_projective_embedding_roundtrip(self):
        pb = random_projective(3, np.random.default_rng(8))
        povm = from_neumark(NeumarkBasis(pb.dim, pb.dim, pb.basis))
        np.testing.assert_allclose(povm.vectors.T, pb.basis, atol=1e-15)

    def test_neumark_kraus_is_complete_and_rectangular(self):
        nb = random_neumark(2, 4, np.random.default_rng(9))
        m = neumark_kraus(nb)
        assert m.dim == 2 and m.out_dim == 4


def _refinable_sets():
    # random sets, and degenerate effects whose eigenbases the solver
    # picks: I, and the Weyl set's I/9
    rng = np.random.default_rng(12)
    sets = [KrausSet(n, (np.eye(n),)) for n in (2, 3)] + [randomizing_measurement(3)]
    sets += [random_kraus(n, k, rng) for n in (2, 3) for k in (1, 2, 4)]
    sets += [neumark_kraus(random_neumark(n, n + 2, rng)) for n in (2, 3)]
    return sets


class TestRefinement:
    def test_projective_unchanged(self):
        povm = rank_one_refine(projective_kraus(comp_basis(2)))
        mats = sorted(
            [np.outer(v, v.conj()) for v in povm.vectors], key=lambda m: -abs(m[0, 0])
        )
        np.testing.assert_allclose(mats[0], np.diag([1.0, 0]), atol=1e-12)
        np.testing.assert_allclose(mats[1], np.diag([0.0, 1]), atol=1e-12)

    def test_identity_splits_to_computational(self):
        povm = rank_one_refine(KrausSet(2, (np.eye(2),)))
        np.testing.assert_allclose(np.abs(povm.vectors), np.eye(2), atol=1e-12)

    def test_loss_never_increases(self):
        rng = np.random.default_rng(10)
        for k in range(100):
            rho = ginibre_state(2, 2, int(rng.integers(1, 5)), seed=k)
            m = random_kraus(2, 2, rng)
            refined = rank_one_kraus(rank_one_refine(m))
            assert ensemble_loss(rho, refined) <= ensemble_loss(rho, m) + 1e-9

    def test_deterministic(self):
        m = random_kraus(3, 2, np.random.default_rng(11))
        a = rank_one_refine(m)
        b = rank_one_refine(m)
        assert np.array_equal(a.vectors, b.vectors)

    def test_pieces_sum_to_each_effect(self):
        for m in _refinable_sets():
            povm = rank_one_refine(m)
            effects = [a.conj().T @ a for a in m.operators]
            # effect-major: the pieces of effect a are its nonzero eigenpieces
            counts = [np.count_nonzero(np.linalg.eigvalsh(e) > ZERO_OUTCOME_TOL) for e in effects]
            assert sum(counts) == povm.n_outcomes
            pieces = np.split(povm.vectors, np.cumsum(counts)[:-1])
            for e, v in zip(effects, pieces):
                assert np.abs(v.T @ v.conj() - e).max() <= 1e-12

    def test_phase_convention(self):
        for m in _refinable_sets():
            for v in rank_one_refine(m).vectors:
                u = v / np.linalg.norm(v)
                lead = u[np.flatnonzero(np.abs(u) > 1e-8)[0]]
                assert lead.real > 0
                assert abs(lead.imag) <= 1e-15


class TestLoopReferences:
    """The stacked constructors and refinement give the same bits as the
    per-operator loops they replaced."""

    def test_constructors(self):
        rng = np.random.default_rng(15)
        for k in range(200):
            n = int(rng.integers(2, 5))
            N = n + int(rng.integers(0, 4))
            pb = random_projective(n, rng)
            want = [np.outer(c, c.conj()) for c in pb.basis.T]
            assert np.array_equal(projective_kraus(pb).operators, want)
            # every other basis has restrictions that vanish exactly
            nb = random_neumark(n, N, rng) if k % 2 else NeumarkBasis(n, N, np.eye(N))
            cols = [c for c in nb.extension_basis.T if np.vdot(c[:n], c[:n]).real > ZERO_OUTCOME_TOL]
            want = [np.outer(c, c[:n].conj()) for c in cols]
            assert np.array_equal(neumark_kraus(nb).operators, want)
            povm = from_neumark(nb)
            assert np.array_equal(povm.vectors, [c[:n] for c in cols])
            want = [np.outer(v, v.conj()) / np.sqrt(w) for v, w in zip(povm.vectors, povm.weights)]
            assert np.array_equal(rank_one_kraus(povm).operators, want)

    def test_refine(self):
        for m in _refinable_sets():
            want = []
            for a in m.operators:
                evals, evecs = eigh(a.conj().T @ a)
                for lam, v in zip(evals, evecs.T):
                    if lam > ZERO_OUTCOME_TOL:
                        lead = v[np.flatnonzero(np.abs(v) > 1e-8)[0]]
                        want.append(np.sqrt(lam) * (v * (np.abs(lead) / lead)))
            assert np.array_equal(rank_one_refine(m).vectors, want)


class TestKrausSet:
    def test_effects(self):
        m = random_kraus(3, 4, np.random.default_rng(13))
        want = np.stack([a.conj().T @ a for a in m.operators])
        assert np.array_equal(m.effects, want)

    def test_read_only(self):
        m = random_kraus(2, 3, np.random.default_rng(14))
        for a in (m.effects, *m.operators):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        with pytest.raises(FrozenInstanceError):
            m.effects = m.effects.copy()

    def test_effects_not_in_repr_or_init(self):
        m = KrausSet(2, (np.eye(2),))
        assert "effects" not in repr(m)
        with pytest.raises(TypeError):
            KrausSet(2, (np.eye(2),), effects=np.eye(2)[None])


class TestRandomizing:
    def test_qubit_paulis(self):
        ops = randomizing_measurement(2).operators
        assert len(ops) == 4
        for op in ops:
            matches = 0
            for pauli in PAULIS:
                # equal up to global phase after the 1/2 scaling
                overlap = abs(np.trace(pauli.conj().T @ (2 * op))) / 2
                matches += abs(overlap - 1) < 1e-12
            assert matches == 1

    def test_bell_output(self):
        out = apply_one_sided(bell_state(), randomizing_measurement(2))
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    def test_qutrit_marginal(self):
        for seed in range(50):
            rho = ginibre_state(3, 2, int(np.random.default_rng(seed).integers(1, 7)), seed=seed)
            out = apply_one_sided(rho, randomizing_measurement(3))
            np.testing.assert_allclose(
                partial_trace(out, "A").matrix, np.eye(3) / 3, atol=1e-10
            )


class TestTwoSided:
    def test_classical_classical_fixed(self):
        rho = classical_state([0.5, 0.5], [np.diag([1.0, 0]), np.diag([0.0, 1])])
        ident = NeumarkBasis(2, 2, np.eye(2))
        out = two_sided_apply(rho, ident, ident)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_bell_dephasing(self):
        ident = NeumarkBasis(2, 2, np.eye(2))
        out = two_sided_apply(bell_state(), ident, ident)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_product_stays_product(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = ginibre_density(2, 2, rng), ginibre_density(2, 2, rng)
            rho = product_state(a, b)
            nb_a = random_neumark(2, int(rng.integers(2, 5)), rng)
            nb_b = random_neumark(2, int(rng.integers(2, 5)), rng)
            out = two_sided_apply(rho, nb_a, nb_b)
            rebuilt = tensor_product(
                partial_trace(out, "A").matrix, partial_trace(out, "B").matrix
            )
            np.testing.assert_allclose(out.matrix, rebuilt, atol=1e-10)


# Reference contractions for the fixed-product route, written as plain
# einsum calls without a contraction-order search.
def _ref_apply(rho, m):
    ops = np.stack(m.operators)
    blocks = rho.matrix.reshape(rho.n_A, rho.n_B, rho.n_A, rho.n_B)
    out = np.einsum("gxa,aibj,gyb->xiyj", ops, blocks, ops.conj())
    return out.reshape(m.out_dim * rho.n_B, m.out_dim * rho.n_B)


def _ref_branches(rho, m):
    blocks = rho.matrix.reshape(rho.n_A, rho.n_B, rho.n_A, rho.n_B)
    branches = []
    for a in m.operators:
        cond = np.einsum("ba,aibj->ij", a.conj().T @ a, blocks)
        p = np.trace(cond).real
        if p > 1e-12:
            branches.append((p, cond / p))
    return branches


def _ref_two_sided(rho, nb_a, nb_b):
    ops_a = np.stack(neumark_kraus(nb_a).operators)
    ops_b = np.stack(neumark_kraus(nb_b).operators)
    blocks = rho.matrix.reshape(rho.n_A, rho.n_B, rho.n_A, rho.n_B)
    out = np.einsum(
        "gxa,hyi,aibj,gzb,hwj->xyzw", ops_a, ops_b, blocks, ops_a.conj(), ops_b.conj()
    )
    n = ops_a.shape[1] * ops_b.shape[1]
    return out.reshape(n, n)


_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def _dead_outcome_state(n_a, n_b, rng):
    """|0><0| (x) sigma: every computational outcome but the first has p = 0."""
    pure = np.zeros((n_a, n_a))
    pure[0, 0] = 1.0
    return product_state(DensityMatrix(pure), ginibre_density(n_b, n_b, rng))


class TestFixedContractions:
    """The reshape-and-matmul route against the plain einsum reference."""

    @staticmethod
    def _cases(n_a, n_b, rng):
        for rank in (1, n_a * n_b):
            rho = ginibre_state(n_a, n_b, rank, seed=int(rng.integers(2**31)))
            yield rho, random_kraus(n_a, int(rng.integers(2, 5)), rng)
            yield rho, neumark_kraus(random_neumark(n_a, n_a + 2, rng))
        yield _dead_outcome_state(n_a, n_b, rng), projective_kraus(comp_basis(n_a))

    @pytest.mark.parametrize("dims", _DIMS)
    def test_apply_one_sided(self, dims):
        rng = np.random.default_rng(30)
        for rho, m in self._cases(*dims, rng):
            out = apply_one_sided(rho, m)
            assert (out.n_A, out.n_B) == (m.out_dim, rho.n_B)
            np.testing.assert_allclose(out.matrix, _ref_apply(rho, m), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dims", _DIMS)
    def test_branch_ensemble(self, dims):
        rng = np.random.default_rng(31)
        for rho, m in self._cases(*dims, rng):
            got = branch_ensemble(rho, m).branches
            ref = _ref_branches(rho, m)
            assert len(got) == len(ref)
            for (p, dm), (p_ref, cond_ref) in zip(got, ref):
                assert abs(p - p_ref) <= 1e-13
                np.testing.assert_allclose(dm.matrix, cond_ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dims", _DIMS)
    def test_zero_probability_outcome_dropped(self, dims):
        n_a, n_b = dims
        rho = _dead_outcome_state(n_a, n_b, np.random.default_rng(32))
        (p, dm), = branch_ensemble(rho, projective_kraus(comp_basis(n_a))).branches
        assert abs(p - 1.0) <= 1e-13
        np.testing.assert_allclose(dm.matrix, partial_trace(rho, "B").matrix, atol=1e-13)

    @pytest.mark.parametrize("dims", _DIMS)
    def test_two_sided_apply(self, dims):
        n_a, n_b = dims
        rng = np.random.default_rng(33)
        extension = np.eye(n_b + 1)  # its last outcome restricts to zero and is dropped
        sides = [
            (random_neumark(n_a, n_a, rng), random_neumark(n_b, n_b, rng)),
            (random_neumark(n_a, n_a + 2, rng), random_neumark(n_b, n_b + 1, rng)),
            (random_neumark(n_a, n_a + 1, rng), NeumarkBasis(n_b, n_b + 1, extension)),
        ]
        for rank in (1, n_a * n_b):
            rho = ginibre_state(n_a, n_b, rank, seed=int(rng.integers(2**31)))
            for nb_a, nb_b in sides:
                out = two_sided_apply(rho, nb_a, nb_b)
                np.testing.assert_allclose(
                    out.matrix, _ref_two_sided(rho, nb_a, nb_b), rtol=0, atol=1e-13
                )

    def test_measure_imports_nothing_from_discord(self):
        # the slow route is the search's independent oracle
        tree = ast.parse(pathlib.Path(measure_mod.__file__).read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
        assert not any(mod.rsplit(".", 1)[-1] == "discord" for mod in modules), modules
        assert not any(mod.startswith("discordium.discord") for mod in modules), modules


class TestMeasurementIdentities:
    def test_b_marginal_invariance_all_classes(self):
        rng = np.random.default_rng(13)
        from discordium.verify import _random_measurement

        for k in range(60):
            rho = ginibre_state(2, 3, int(rng.integers(1, 7)), seed=k)
            m = _random_measurement(rho, rng)
            before = partial_trace(rho, "B").matrix
            after = partial_trace(apply_one_sided(rho, m), "B").matrix
            assert np.abs(after - before).max() <= 1e-10

    @PROPERTY
    @given(
        dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
        rank=st.integers(1, 6),  # capped at the dimension below
        outcomes=st.integers(2, 4),
        seed=seeds,
        m_seed=seeds,
    )
    def test_b_marginal_invariance_under_random_kraus(self, dims, rank, outcomes, seed, m_seed):
        n_a, n_b = dims
        rho = ginibre_state(n_a, n_b, min(rank, n_a * n_b), seed=seed)
        m = random_kraus(n_a, outcomes, np.random.default_rng(m_seed))
        before = partial_trace(rho, "B").matrix
        after = partial_trace(apply_one_sided(rho, m), "B").matrix
        assert np.abs(after - before).max() <= 1e-10

    def test_branch_marginal_identities(self):
        # tr_B of an unnormalized branch equals A rho_A A^dag, and the two
        # branch traces agree
        rng = np.random.default_rng(14)
        rho = ginibre_state(2, 2, 4, seed=15)
        rho_a = partial_trace(rho, "A").matrix
        blocks = rho.matrix.reshape(2, 2, 2, 2)
        m = random_kraus(2, 3, rng)
        post_a = np.zeros((2, 2), dtype=complex)
        for a in m.operators:
            branch_ab = np.einsum("xa,aibj,yb->xiyj", a, blocks, a.conj())
            branch_a = np.trace(branch_ab, axis1=1, axis2=3)
            np.testing.assert_allclose(branch_a, a @ rho_a @ a.conj().T, atol=1e-12)
            branch_b = np.trace(branch_ab, axis1=0, axis2=2)
            assert abs(np.trace(branch_a) - np.trace(branch_b)) < 1e-12
            post_a += branch_a
        np.testing.assert_allclose(
            post_a,
            sum(a @ rho_a @ a.conj().T for a in m.operators),
            atol=1e-12,
        )


class TestValidation:
    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError, match="complete"):
            KrausSet(2, (np.eye(2) / 2,))

    def test_non_unitary_basis_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            ProjectiveBasis(2, np.ones((2, 2)))

    def test_povm_completeness_rejected(self):
        with pytest.raises(ValueError, match="complete"):
            RankOnePOVM(2, np.array([[1.0, 0.0]]))

    def test_povm_zero_vector_rejected(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-weight"):
            RankOnePOVM(2, vecs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        eye = np.eye(2, dtype=complex)
        eye[0, 0] = bad
        ext = np.eye(3, dtype=complex)
        ext[0, 0] = bad
        # rejected up front, by name, before any check could warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                KrausSet(2, (eye,))
            with pytest.raises(ValueError, match="non-finite"):
                ProjectiveBasis(2, eye)
            with pytest.raises(ValueError, match="non-finite"):
                NeumarkBasis(2, 3, ext)
            with pytest.raises(ValueError, match="non-finite"):
                RankOnePOVM(2, eye)

    @PROPERTY
    @given(
        kind=st.sampled_from(sorted(_VALID)),
        position=st.integers(0, 15),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        imaginary=st.booleans(),
    )
    def test_non_finite_rejected_anywhere(self, kind, position, bad, imaginary):
        valid, build = _VALID[kind]
        a = valid.astype(complex)
        index = np.unravel_index(position % a.size, a.shape)
        a[index] = complex(0.0, bad) if imaginary else bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                build(a)

    def test_neumark_too_small(self):
        with pytest.raises(ValueError):
            NeumarkBasis(3, 2, np.eye(2))

    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(16)
        for n in (2, 3, 4):
            u = random_unitary(n, rng)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-12)

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from discordium.cli import (
    InputError,
    _kw_check_solve,
    build_parser,
    deserialize_measurement,
    load_state,
    main,
    save_state,
    serialize_measurement,
)
from discordium.measure import (
    KrausSet,
    NeumarkBasis,
    ProjectiveBasis,
    RankOnePOVM,
    random_kraus,
    random_neumark,
    random_projective,
)
from discordium.qmat import bell_state, ginibre_state
from discordium.optimize import OptimizerConfig
from discordium.verify import _KW_N, _PE_CFG

from random_states import random_classical

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def searched(tmp_path):
    """A saved rank-4 two-qubit state that no closed form covers (its
    local Bloch vectors are nonzero), so every variant runs the search."""
    path = tmp_path / "rank4.json"
    save_state(ginibre_state(2, 2, 4, seed=3), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStateIO:
    def test_roundtrip(self, tmp_path):
        rho = ginibre_state(2, 3, 4, seed=5)
        path = tmp_path / "s.json"
        save_state(rho, path, label="x")
        loaded, label = load_state(str(path))
        assert label == "x"
        np.testing.assert_allclose(loaded.matrix, rho.matrix, atol=1e-15)
        assert (loaded.n_A, loaded.n_B) == (2, 3)

    def test_dims_matrix_mismatch(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = {"dims": [2, 3], "matrix": [[[1.0, 0.0]]]}
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "entropy", str(path))
        assert code == 2
        assert "dims/matrix mismatch" in err

    def test_invalid_state_rejected(self, tmp_path, capsys):
        doc = {
            "dims": [2, 2],
            "matrix": [[[1.0, 0.0]] * 4 for _ in range(4)],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "entropy", str(path))
        assert code == 2
        assert "invalid state" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rejected(self, tmp_path, capsys, literal):
        rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        text = json.dumps({"dims": [2, 2], "matrix": rows}).replace("0.25", literal, 1)
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InputError, match="non-finite"):
            load_state(str(path))
        code, _, err = run_cli(capsys, "entropy", str(path))
        assert code == 2
        assert "non-finite" in err


class TestMeasurementSerialization:
    def test_roundtrip_all_kinds(self):
        rng = np.random.default_rng(0)
        cases = [
            random_projective(2, rng),
            RankOnePOVM(2, random_neumark(2, 3, rng).extension_basis[:2, :].T),
            random_neumark(2, 4, rng),
            random_kraus(2, 3, rng),
            (random_neumark(2, 2, rng), random_neumark(2, 3, rng)),
        ]
        for m in cases:
            doc = serialize_measurement(m)
            back = deserialize_measurement(json.loads(json.dumps(doc)))
            if isinstance(m, tuple):
                for a, b in zip(m, back):
                    np.testing.assert_allclose(
                        a.extension_basis, b.extension_basis, atol=1e-15
                    )
            elif isinstance(m, ProjectiveBasis):
                np.testing.assert_allclose(m.basis, back.basis, atol=1e-15)
            elif isinstance(m, RankOnePOVM):
                np.testing.assert_allclose(m.vectors, back.vectors, atol=1e-15)
            elif isinstance(m, NeumarkBasis):
                np.testing.assert_allclose(
                    m.extension_basis, back.extension_basis, atol=1e-15
                )
            elif isinstance(m, KrausSet):
                for x, y in zip(m.operators, back.operators):
                    np.testing.assert_allclose(x, y, atol=1e-15)


class TestEntropyCommand:
    def test_bell_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", str(FIXTURES / "bell.json"))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value_bits"]["S_AB"]) < 1e-12
        assert doc["value_bits"]["mutual_information"] == 2
        assert doc["library_version"]

    def test_product_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", str(FIXTURES / "product.json"))
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["value_bits"]["mutual_information"]) < 1e-9

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "entropy", str(FIXTURES / "bell.json"), "--table")
        assert code == 0
        assert "mutual_information" in out


class TestDiscordCommand:
    def test_bell_projective(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "discord", str(FIXTURES / "bell.json"),
            "--variant", "P", "--restarts", "4", "--max-iters", "600",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value_bits"] - 1.0) < 1e-6
        assert doc["measurement"]["type"] == "projective"

    def test_classical_pe(self, tmp_path, capsys):
        # rank 4, so the search runs (the rank-2 fixture takes the exact path)
        path = tmp_path / "classical4.json"
        save_state(random_classical(2, 2, np.random.default_rng(0)), path)
        code, out, _ = run_cli(
            capsys,
            "discord", str(path),
            "--variant", "PE", "--N", "4", "--restarts", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value_bits"] <= 1e-5

    def test_determinism(self, capsys, searched):
        args = (
            "discord", searched,
            "--variant", "P", "--seed", "1", "--restarts", "4", "--max-iters", "600",
        )
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_low_restart_agreement_warns(self, tmp_path, capsys):
        # 20 iterations leave the two restarts of a qutrit search apart
        path = tmp_path / "qutrit.json"
        save_state(ginibre_state(3, 3, 3, seed=1), path)
        args = ("discord", str(path), "--restarts", "2", "--max-iters", "20")
        code, out, err = run_cli(capsys, *args)
        assert code == 0
        doc = json.loads(out)  # the report is unchanged: no extra field
        assert doc["agreeing_restarts"] == 1 and doc["path"] == "optimizer"
        assert "agreeing" not in doc["config"] and "warning" not in out
        assert err.count("warning:") == 1 and "1 of 2 restarts" in err
        code, out, err = run_cli(capsys, *args, "--table")
        assert code == 0 and err.count("warning:") == 1

    def test_agreeing_restarts_do_not_warn(self, capsys, searched):
        for extra in (("--restarts", "4"), ("--restarts", "1", "--max-iters", "20")):
            code, out, err = run_cli(capsys, "discord", searched, "--max-iters", "600", *extra)
            assert code == 0 and err == ""
        # the exact path has one value and no restarts to agree
        code, _, err = run_cli(capsys, "discord", str(FIXTURES / "rank2_00.json"))
        assert code == 0 and err == ""

    def test_n_below_dim_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "discord", str(FIXTURES / "bell.json"), "--variant", "PE", "--N", "1"
        )
        assert code == 2
        assert "below n_A" in err

    def test_n_under_p_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "discord", str(FIXTURES / "bell.json"), "--variant", "P", "--N", "4"
        )
        assert code == 2
        assert "--N does not apply" in err

    @pytest.mark.parametrize("variant", ["P", "R", "PE"])
    def test_n_b_outside_two_sided_rejected(self, capsys, variant):
        code, _, err = run_cli(
            capsys, "discord", str(FIXTURES / "bell.json"), "--variant", variant, "--N-B", "3"
        )
        assert code == 2
        assert "--N-B" in err

    @pytest.mark.parametrize(
        "flag, value, name",
        # the value tolerance is the constant optimize.F_TOL, not a flag
        [("--max-iters", "0", "max_iters"), ("--f-tol", "1e-9", "unrecognized arguments")],
    )
    def test_bad_optimizer_settings_rejected(self, capsys, flag, value, name):
        code, _, err = run_cli(
            capsys, "discord", str(FIXTURES / "werner_p050.json"), "--restarts", "1", flag, value
        )
        assert code == 2
        assert name in err

    def test_report_reevaluates(self, tmp_path, capsys):
        from discordium.discord import evaluate_measurement

        # rank 3, so the basis comes from the search
        path = tmp_path / "rank3.json"
        save_state(ginibre_state(2, 2, 3, seed=0), path)
        code, out, _ = run_cli(
            capsys,
            "discord", str(path),
            "--variant", "PE", "--N", "4", "--restarts", "4", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["path"] == "optimizer"
        rho, _ = load_state(str(path))
        measurement = deserialize_measurement(doc["measurement"])
        again = evaluate_measurement(rho, measurement)
        assert abs(again - doc["value_bits"]) < 1e-9

    def test_path(self, capsys, searched):
        path = str(FIXTURES / "rank2_00.json")
        code, out, _ = run_cli(capsys, "discord", path, "--variant", "PE", "--N", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["path"] == "exact"
        assert doc["measurement"]["type"] == "neumark"
        code, out, _ = run_cli(capsys, "discord", path, "--table")
        assert code == 0
        assert {"path": "exact", "evaluations": "0"}.items() <= dict(
            line.split() for line in out.splitlines()
        ).items()
        code, out, _ = run_cli(
            capsys, "discord", searched, "--restarts", "1", "--max-iters", "300",
        )
        assert code == 0
        assert json.loads(out)["path"] == "optimizer"

    def test_restart_diagnostics(self, capsys, searched):
        from discordium.discord import discord_P
        from discordium.optimize import OptimizerConfig

        path = searched
        args = ("discord", path, "--restarts", "3", "--max-iters", "600")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        doc = json.loads(out)
        res = discord_P(load_state(path)[0], OptimizerConfig(restarts=3, max_iters=600))
        assert doc["restart_evaluations"] == list(res.outcome.restart_evaluations)
        assert len(doc["restart_evaluations"]) == 3
        assert sum(doc["restart_evaluations"]) == res.outcome.evaluations
        agree = sum(abs(v - res.value) <= 1e-8 for v in res.outcome.restart_values)
        assert doc["agreeing_restarts"] == res.outcome.agreeing_restarts == agree >= 1
        code, out, _ = run_cli(capsys, *args, "--table")
        assert code == 0
        assert dict(line.split() for line in out.splitlines())["agreeing_restarts"] == str(agree)
        # the exact path runs no restart; its one value agrees with itself
        code, out, _ = run_cli(capsys, "discord", str(FIXTURES / "rank2_00.json"))
        doc = json.loads(out)
        assert (doc["path"], doc["agreeing_restarts"], doc["restart_evaluations"]) == (
            "exact", 1, []
        )

    @pytest.mark.parametrize(
        "name, variant, form",
        [
            ("rank2_00", "P", "koashi_winter"),
            ("rank2_00", "PE", "koashi_winter"),
            ("werner_p050", "P", "zero_bloch"),
            ("werner_p050", "R", "zero_bloch"),
            ("bell", "two-sided", "zero_bloch"),
            ("product", "PE", "uncorrelated"),
            ("product", "two-sided", "uncorrelated"),
            (None, "P", None),
            (None, "two-sided", None),
        ],
    )
    def test_closed_form_named(self, capsys, searched, name, variant, form):
        path = searched if name is None else str(FIXTURES / f"{name}.json")
        args = ("discord", path, "--variant", variant, "--restarts", "1", "--max-iters", "50")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        doc = json.loads(out)
        assert doc["closed_form"] == form
        assert doc["path"] == ("optimizer" if form is None else "exact")
        code, out, _ = run_cli(capsys, *args, "--table")
        assert code == 0
        assert dict(line.split() for line in out.splitlines())["closed_form"] == (form or "null")

    def test_two_sided(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "discord", str(FIXTURES / "classical.json"),
            "--variant", "two-sided", "--restarts", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value_bits"] <= 1e-5
        assert doc["measurement"]["type"] == "neumark_pair"


class TestEofCommand:
    def test_bell(self, capsys):
        code, out, _ = run_cli(capsys, "eof", str(FIXTURES / "bell.json"))
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["value_bits"] - 1.0) < 1e-9
        assert abs(doc["concurrence"] - 1.0) < 1e-9

    def test_separable(self, capsys):
        code, out, _ = run_cli(capsys, "eof", str(FIXTURES / "classical.json"))
        doc = json.loads(out)
        assert doc["value_bits"] == 0

    def test_methods_agree(self, capsys):
        path = str(FIXTURES / "werner_p075.json")
        _, out_w, _ = run_cli(capsys, "eof", path, "--method", "wootters")
        _, out_d, _ = run_cli(
            capsys, "eof", path, "--method", "decomposition", "--restarts", "5"
        )
        w = json.loads(out_w)["value_bits"]
        d = json.loads(out_d)["value_bits"]
        assert abs(w - d) < 1e-4

    def test_wrong_dimension(self, tmp_path, capsys):
        save_state(ginibre_state(2, 3, 2, seed=1), tmp_path / "s.json")
        code, _, err = run_cli(capsys, "eof", str(tmp_path / "s.json"))
        assert code == 2


class TestVerifyCommand:
    def test_battery_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--battery", "nonnegativity", "--trials", "20", "--seed", "0",
        )
        assert code == 0
        assert "nonnegativity" in out

    def test_battery_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--battery", "marginal_invariance", "--trials", "10", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["batteries"][0]["failures"] == 0

    def test_battery_seconds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--battery", "nonnegativity", "--trials", "5", "--json",
        )
        assert code == 0
        seconds = json.loads(out)["batteries"][0]["seconds"]
        assert isinstance(seconds, float) and seconds > 0
        code, out, _ = run_cli(
            capsys, "verify", "--battery", "nonnegativity", "--trials", "5",
        )
        header, row = out.splitlines()[:2]
        assert "seconds" in header.split()
        assert float(row.split()[3]) >= 0

    def test_bogus_battery(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--battery", "bogus", "--trials", "5")
        assert code == 2

    def test_kw_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--kw-check", str(FIXTURES / "rank2_03.json"),
            "--restarts", "5",
        )
        assert code == 0
        assert "koashi_winter_residual" in out

    def test_kw_check_defaults_are_the_battery_config(self):
        args = build_parser().parse_args(["verify", "--kw-check", "x.json", "--seed", "3"])
        N, cfg = _kw_check_solve(args)
        assert (N, cfg) == (_KW_N, replace(_PE_CFG, seed=3))
        args = build_parser().parse_args(
            ["verify", "--kw-check", "x.json", "--N", "5", "--restarts", "2", "--max-iters", "9"]
        )
        assert _kw_check_solve(args) == (5, OptimizerConfig(restarts=2, max_iters=9, seed=0))

    @pytest.mark.parametrize("flag", ["--N", "--restarts", "--max-iters"])
    @pytest.mark.parametrize("selection", [("--battery", "nonnegativity"), ("--all",)])
    def test_kw_check_flags_rejected_for_batteries(self, capsys, flag, selection):
        code, out, err = run_cli(capsys, "verify", *selection, "--trials", "1", flag, "3")
        assert code == 2
        assert flag in err and "--kw-check" in err
        assert out == ""

    def test_no_selection_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2


class TestMakeCommand:
    def test_bell_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        code, _, _ = run_cli(capsys, "make", "--kind", "bell", "-o", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "entropy", str(path))
        assert json.loads(out)["value_bits"]["mutual_information"] == 2

    def test_werner_valid(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        code, _, _ = run_cli(capsys, "make", "--kind", "werner", "--p", "0.3", "-o", str(path))
        assert code == 0
        load_state(str(path))  # raises if invariants fail

    def test_werner_bad_p(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "make", "--kind", "werner", "--p", "1.5", "-o", str(tmp_path / "w.json")
        )
        assert code == 2
        assert "werner parameter must be in [0, 1]" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--kind", "ginibre", "--dims", "2", "2", "--rank", "0"), "rank must be in [1, 4]"),
            (("--kind", "ginibre", "--dims", "2", "2", "--rank", "5"), "rank must be in [1, 4]"),
            (("--kind", "classical", "--probs", "0.5", "0.4"),
             "probabilities must sum to 1, got 0.9"),
            (("--kind", "classical", "--probs", "1.2", "-0.2"),
             "probabilities must be nonnegative"),
        ],
        ids=["rank0", "rank5", "sum09", "negative"],
    )
    def test_bad_parameters_rejected(self, tmp_path, capsys, argv, message):
        # each invariant is checked by the state constructor, not the CLI
        code, _, err = run_cli(capsys, "make", *argv, "-o", str(tmp_path / "s.json"))
        assert code == 2
        assert message in err
        assert "np.float64(" not in err

    def test_ginibre_bytes_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys,
                "make", "--kind", "ginibre", "--dims", "2", "3",
                "--rank", "2", "--seed", "9", "-o", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_classical_probs(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        code, _, _ = run_cli(
            capsys, "make", "--kind", "classical", "--probs", "0.5", "0.5", "-o", str(path)
        )
        assert code == 0
        rho, _ = load_state(str(path))
        np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


class TestFixtures:
    def test_fixture_regeneration_is_stable(self, tmp_path, capsys):
        # the committed bell fixture matches a fresh CLI build bit for bit
        path = tmp_path / "bell.json"
        run_cli(capsys, "make", "--kind", "bell", "--label", "bell", "-o", str(path))
        assert path.read_bytes() == (FIXTURES / "bell.json").read_bytes()

    def test_all_fixtures_load(self):
        for path in sorted(FIXTURES.glob("*.json")):
            rho, label = load_state(str(path))
            assert rho.state.dim == rho.n_A * rho.n_B

    def test_report_rerun_reproduces_value(self, tmp_path, capsys):
        # rerunning the CLI with a report's echoed config reproduces the value
        args = (
            "discord", str(FIXTURES / "rank2_01.json"),
            "--variant", "P", "--seed", "5", "--restarts", "4", "--max-iters", "600",
        )
        _, out, _ = run_cli(capsys, *args)
        doc = json.loads(out)
        cfg = doc["config"]
        assert set(cfg) == {"restarts", "max_iters", "seed"}
        _, out2, _ = run_cli(
            capsys,
            "discord", str(FIXTURES / "rank2_01.json"),
            "--variant", "P",
            "--seed", str(cfg["seed"]),
            "--restarts", str(cfg["restarts"]),
            "--max-iters", str(cfg["max_iters"]),
        )
        doc2 = json.loads(out2)
        assert abs(doc2["value_bits"] - doc["value_bits"]) <= 1e-12

"""CLI behavior tests: exit codes, round-trips, diagnostics, golden files."""

import dataclasses
import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from helpers import GOLDEN_DIR, golden_scenarios, replay_golden, run_cli

import gfusion as gf
from gfusion import cli
from gfusion.errors import SystemFileError
from gfusion.io import load_system, save_system, system_from_dict, system_to_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def frame_file(tmp_path):
    path = tmp_path / "frame.json"
    save_system(gf.generate("frame", 5, 2, seed=101), str(path))
    return str(path)


@pytest.fixture()
def degenerate_file(tmp_path):
    sys = gf.make_system(2, "real", [(1.0, np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]))])
    path = tmp_path / "degenerate.json"
    save_system(sys, str(path))
    return str(path)


class TestRoundTrip:
    def test_serialize_parse_is_value_identical(self, tmp_path):
        sys = gf.generate("frame", 6, 3, seed=55, field="complex")
        path = tmp_path / "sys.json"
        save_system(sys, str(path))
        back = load_system(str(path))
        assert back.field == sys.field and back.dim == sys.dim
        for a, b in zip(sys.subsystems, back.subsystems):
            assert np.array_equal(a.operator, b.operator)
            assert np.array_equal(a.subspace.basis, b.subspace.basis)
            assert a.weight == b.weight

    def test_parse_serialize_reproduces_canonical_dict(self):
        sys = gf.generate("riesz", 5, 2, seed=7)
        d = system_to_dict(sys)
        assert system_to_dict(system_from_dict(d)) == d

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_written_systems_are_the_stdlib_bytes_of_the_payload(self, tmp_path, field):
        # gen -o and dual --emit-dual write arrays straight to text; the bytes are json.dumps's of what they parse to.
        def canonical(data):
            return json.dumps(data, sort_keys=True, indent=2) + "\n"

        gen_file, dual_file = tmp_path / "gen.json", tmp_path / "dual.json"
        code, out = run_cli(["gen", "--dim", "5", "--blocks", "3", "--seed", "4", "--field", field, "-o", str(gen_file)])
        assert code == 0
        assert gen_file.read_text(encoding="utf-8") == out == canonical(json.loads(out))
        code, out = run_cli(["dual", str(gen_file), "--seed", "1", "--emit-dual", str(dual_file)])
        assert code == 0
        assert out == canonical(json.loads(out))
        assert dual_file.read_text(encoding="utf-8") == canonical(json.loads(out)["dual_system"])

    def test_verdicts_identical_after_round_trip(self, frame_file, tmp_path):
        code1, out1 = run_cli(["analyze", frame_file])
        resaved = tmp_path / "resaved.json"
        save_system(load_system(frame_file), str(resaved))
        code2, out2 = run_cli(["analyze", str(resaved)])
        assert code1 == code2 == 0
        payload1, payload2 = json.loads(out1), json.loads(out2)
        for key in ("bounds", "spectral_extremes", "verdict", "parseval", "gf_complete"):
            assert payload1[key] == payload2[key]


COORDINATE_FILE = {
    "version": 1,
    "field": "real",
    "dim": 2,
    "subsystems": [
        {"weight": 1.0, "subspace": [[1.0], [0.0]], "lambda": [[1.0, 0.0]]},
        {"weight": 1.0, "subspace": [[0.0], [1.0]], "lambda": [[0.0, 1.0]]},
    ],
}


class TestExitCodes:
    def test_analyze_frame_exits_zero(self, frame_file):
        code, out = run_cli(["analyze", frame_file])
        assert code == 0
        assert json.loads(out)["verdict"] == "frame"

    def test_analyze_handwritten_coordinate_file(self, tmp_path):
        path = tmp_path / "coord.json"
        path.write_text(json.dumps(COORDINATE_FILE))
        code, out = run_cli(["analyze", str(path)])
        payload = json.loads(out)
        assert code == 0
        assert payload["parseval"] is True
        assert abs(payload["bounds"]["lower"] - 1.0) < 1e-12
        assert abs(payload["bounds"]["upper"] - 1.0) < 1e-12
        # canonical file: the orthonormal spanning columns survive verbatim
        assert system_to_dict(load_system(str(path)))["subsystems"] == COORDINATE_FILE["subsystems"]

    def test_analyze_degenerate_exits_one(self, degenerate_file):
        code, out = run_cli(["analyze", degenerate_file])
        assert code == 1
        assert json.loads(out)["verdict"] == "not_a_frame"

    def test_tol_override_flips_verdict(self, frame_file):
        code, _ = run_cli(["analyze", frame_file, "--tol", "1e9"])
        assert code == 1

    def test_gen_has_no_tol_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen", "--dim", "2", "--blocks", "1", "--seed", "1", "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        code, _ = run_cli(["analyze", str(tmp_path / "nope.json")])
        assert code == 2

    def test_mismatched_pair_exits_two(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_system(gf.generate("onb", 4, 2, seed=1), str(a))
        save_system(gf.generate("onb", 6, 2, seed=1), str(b))
        code, _ = run_cli(["cross", str(a), str(b)])
        assert code == 2

    def test_onb_and_riesz_verdicts(self, tmp_path):
        onb = tmp_path / "onb.json"
        save_system(gf.generate("onb", 4, 2, seed=2), str(onb))
        assert run_cli(["onb", str(onb)])[0] == 0
        assert run_cli(["riesz", str(onb)])[0] == 0

    def test_weighted_system_fails_onb(self, tmp_path):
        path = tmp_path / "weighted.json"
        eye = np.eye(2)
        sys = gf.make_system(2, "real", [(2.0, eye[:, [0]], eye[[0], :]), (1.0, eye[:, [1]], eye[[1], :])])
        save_system(sys, str(path))
        assert run_cli(["onb", str(path)])[0] == 1

    def test_dual_and_induce(self, frame_file):
        assert run_cli(["dual", frame_file, "--seed", "3"])[0] == 0
        assert run_cli(["induce", frame_file])[0] == 0

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_dual_residual_is_the_exact_norm_and_ignores_the_seed(self, tmp_path, field):
        # Both residual fields are ||I - K_d^H K||_2 (the two orders are adjoints), which bounds
        # every reconstruction residual from above; the seed changes nothing but its echo.
        sys_ = gf.generate("frame", 6, 3, seed=7, field=field)
        path = tmp_path / "f.json"
        save_system(sys_, str(path))
        runs = [json.loads(run_cli(["dual", str(path), "--seed", seed])[1]) for seed in ("1", "2")]
        k, k_d = gf.analysis_matrix(sys_), gf.analysis_matrix(gf.canonical_dual(sys_))
        oracle = np.linalg.svd(np.eye(6) - k_d.conj().T @ k, compute_uv=False)[0]
        assert runs[0]["max_primal_residual"] == runs[0]["max_swapped_residual"]
        assert runs[0]["max_primal_residual"] == pytest.approx(oracle, rel=1e-6)
        res = gf.reconstruct(sys_, gf.canonical_dual(sys_), np.linalg.qr(np.eye(6))[0])
        assert max(res.primal_residual, res.swapped_residual) <= runs[0]["max_primal_residual"] * (1 + 1e-9)
        strip = [{k: v for k, v in run.items() if k not in ("argv", "seed")} for run in runs]
        assert strip[0] == strip[1]

    def test_perturb_end_to_end(self, frame_file, tmp_path):
        payload = json.loads(run_cli(["analyze", frame_file])[1])
        radius = 0.5 * np.sqrt(payload["bounds"]["lower"])
        pert = tmp_path / "pert.json"
        code, _ = run_cli(
            ["gen", "--base", frame_file, "--noise", str(radius), "--seed", "42", "-o", str(pert)]
        )
        assert code == 0
        code, out = run_cli(["perturb", frame_file, str(pert), "--theorem", "analysis", "--seed", "1"])
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["hypothesis_holds"] and rep["bracket_ok"]

    @pytest.mark.parametrize("theorem", ["t52", "synth", "cR", "analysis", "lemma"])
    def test_negative_samples_is_an_input_error(self, frame_file, theorem, capsys):
        code, out = run_cli(["perturb", frame_file, frame_file, "--theorem", theorem, "--seed", "1", "--samples", "-5"])
        assert (code, out) == (2, "")
        assert "--samples" in json.loads(capsys.readouterr().err)["message"]

    def test_lemma_needs_a_sample(self, frame_file, capsys):
        code, out = run_cli(["perturb", frame_file, frame_file, "--theorem", "lemma", "--seed", "1", "--samples", "0"])
        assert (code, out) == (2, "")
        assert "--samples" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("argv", [["analyze", "F", "-o", "OUT"], ["dual", "F", "--seed", "1", "--emit-dual", "OUT"]])
    def test_unwritable_output_file_is_an_input_error(self, frame_file, tmp_path, argv, capsys):
        target = str(tmp_path / "missing" / "x.json")
        code, out = run_cli([{"F": frame_file, "OUT": target}.get(a, a) for a in argv])
        assert (code, out) == (2, "")
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GFusionError" and target in err["message"]


def _literal_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


EYE_FILE = """{"version": 1, "field": "real", "dim": 2, "subsystems": [
  {"weight": 1.0, "subspace": [[1.0, 0.0], [0.0, 1.0]], "lambda": [[1.0, 0.0], [0.0, 1.0]]}]}"""
# The same structure with S = diag(1, 0): gf-complete fails, so it is not a frame.
RANK_ONE_FILE = """{"version": 1, "field": "real", "dim": 2, "subsystems": [
  {"weight": 1.0, "subspace": [[1.0, 0.0], [0.0, 1.0]], "lambda": [[1.0, 0.0], [0.0, 0.0]]}]}"""


class TestNonFrameAndUsageExits:
    def test_dual_of_a_non_frame_is_a_verdict_with_no_residual(self, tmp_path):
        code, out = run_cli(["dual", _literal_file(tmp_path, "r.json", RANK_ONE_FILE), "--seed", "1"])
        payload = _strict_json(out)
        assert code == 1
        assert set(payload) == ENVELOPE | {"verdict"} and payload["verdict"] == "not_a_frame"

    def test_cross_with_a_non_frame_lambda_is_a_failed_precondition(self, tmp_path, capsys):
        theta, lam = (_literal_file(tmp_path, n, t) for n, t in (("e.json", EYE_FILE), ("r.json", RANK_ONE_FILE)))
        code, out = run_cli(["cross", theta, lam])
        assert (code, out) == (2, "")
        assert _strict_json(capsys.readouterr().err) == {
            "error": "PreconditionFailed",
            "message": "lambda is not a g-fusion frame",
        }

    @pytest.mark.parametrize("theorem", ["t52", "cR", "synth", "analysis"])
    def test_perturb_of_a_non_frame_reference_is_an_input_error(self, tmp_path, theorem, capsys):
        ref, other = (_literal_file(tmp_path, n, t) for n, t in (("r.json", RANK_ONE_FILE), ("e.json", EYE_FILE)))
        code, out = run_cli(["perturb", ref, other, "--theorem", theorem, "--lam", "0.1", "--seed", "1"])
        assert (code, out) == (2, "")
        assert _strict_json(capsys.readouterr().err) == {
            "error": "NotAFrameError",
            "message": "the reference system must be a g-fusion frame",
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--noise", "0.1", "--seed", "1"], "--noise needs --base"),
            (["gen", "--seed", "1"], "gen needs --dim and --blocks (or --base)"),
            (["gen", "--dim", "3", "--seed", "1"], "gen needs --dim and --blocks (or --base)"),
            (["gen", "--blocks", "2", "--seed", "1"], "gen needs --dim and --blocks (or --base)"),
        ],
    )
    def test_gen_without_a_structure_is_an_input_error(self, argv, message, capsys):
        code, out = run_cli(argv)
        assert (code, out) == (2, "")
        assert _strict_json(capsys.readouterr().err) == {"error": "GFusionError", "message": message}


def _run_main(argv, capsys):
    """cli.main in this process: (exit code, stdout, stderr), an argparse exit included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParserReuse:
    def test_repeated_calls_repeat_every_outcome(self, frame_file, tmp_path, capsys):
        sequence = [
            (["analyze", frame_file], 0),
            (["perturb", frame_file, frame_file, "--theorem", "lemma", "--seed", "1"], 0),
            (["gen", "--dim", "2", "--blocks", "1", "--seed", "1", "--tol", "1e-3"], 2),
            (["--help"], 0),
            (["analyze", str(tmp_path / "nope.json")], 2),
        ]
        cli._build_parser.cache_clear()
        first = [_run_main(argv, capsys) for argv, _ in sequence]
        again = [_run_main(argv, capsys) for argv, _ in sequence]
        assert again == first
        assert [code for code, _, _ in first] == [code for _, code in sequence]
        assert "unrecognized arguments: --tol 1e-3" in first[2][2]
        assert first[3][1].startswith("usage: gfusion")
        assert json.loads(first[4][2])["error"] == "SystemFileError" and first[4][1] == ""
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(sequence) - 1)

    def test_help_is_wrapped_at_the_width_of_each_call(self, monkeypatch, capsys):
        outputs = []
        for columns in ("50", "150"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = _run_main(["perturb", "--help"], capsys)
            with pytest.raises(SystemExit):
                cli._build_parser.__wrapped__().parse_args(["perturb", "--help"])
            assert code == 0 and out == capsys.readouterr().out
            outputs.append(out)
        assert outputs[0] != outputs[1]


ENVELOPE = {"command", "argv", "inputs", "seed", "tolerances"}


def _strict_json(text):
    """json.loads that rejects the non-JSON tokens Infinity, -Infinity and NaN."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestEnvelope:
    @pytest.mark.parametrize(
        "argv, tol_name, seed, fields",
        [
            (["analyze", "frame"], "tol_pd", None,
             {"dim", "field", "blocks", "verdict", "bounds", "spectral_extremes", "parseval", "gf_complete"}),
            (["dual", "frame", "--seed", "3"], "residual_tol", 3,
             {"verdict", "max_primal_residual", "max_swapped_residual", "dual_system"}),
            (["riesz", "riesz"], "tol", None, {"verdict", "riesz_bounds"}),
            (["onb", "onb"], "tol", None, {"verdict"}),
            (["cross", "onb", "riesz"], "tol", None, {"report"}),
            (["induce", "riesz"], "tol", None, {"family", "report"}),
            (["perturb", "frame", "frame", "--theorem", "analysis", "--seed", "4"], "bracket_tol", 4,
             {"theorem", "params", "samples", "report"}),
        ],
    )
    def test_every_report_echoes_a_non_default_tolerance(self, tmp_path, argv, tol_name, seed, fields):
        onb = gf.generate("onb", 4, 2, seed=2)
        systems = {"frame": gf.generate("frame", 5, 2, seed=101), "onb": onb, "riesz": gf.generate_like(onb, "riesz", 3)}
        files = {}
        for name, sys_ in systems.items():
            files[name] = str(tmp_path / f"{name}.json")
            save_system(sys_, files[name])
        full = argv[:1] + [files.get(a, a) for a in argv[1:]] + ["--tol", "1e-7"]
        code, out = run_cli(full)
        report = _strict_json(out)
        assert code in (0, 1)
        assert set(report) == ENVELOPE | fields
        assert report["command"] == argv[0] and report["argv"] == full
        assert report["seed"] == seed
        assert report["tolerances"] == {tol_name: 1e-7}


class TestLemmaReportIsStrictJson:
    def _files(self, tmp_path, second, field="real"):
        paths = []
        for name, lam in (("eye.json", [[1.0, 0.0], [0.0, 1.0]]), ("other.json", second)):
            path = tmp_path / name
            path.write_text(json.dumps({
                "version": 1, "field": field, "dim": 2,
                "subsystems": [{"weight": 1.0, "subspace": [[1.0, 0.0], [0.0, 1.0]], "lambda": lam}],
            }))
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("mu, mode", [("0.2", "certified_sufficient"), ("0", "exact")])
    def test_identity_u_reports_the_supremum_as_its_margin(self, tmp_path, field, mu, mode):
        # I - U = 0 has no top singular vector; e_1, like every unit vector, attains -(lam1 + lam2).
        ref, same = self._files(tmp_path, [[1.0, 0.0], [0.0, 1.0]], field)
        code, out = run_cli(["perturb", ref, same, "--theorem", "lemma", "--lam", "0.1", "--mu", mu, "--seed", "1"])
        rep = _strict_json(out)["report"]
        assert code == 0
        assert (rep["mode"], rep["hypothesis_holds"], rep["sandwich_ok"]) == (mode, True, True)
        assert rep["hypothesis_margin"] == rep["cert_margin"] == -(float(mu) + 0.1)

    def test_singular_u_reports_a_null_inverse_norm(self, tmp_path):
        ref, zero = self._files(tmp_path, [[0.0, 0.0], [0.0, 0.0]])
        code, out = run_cli(["perturb", ref, zero, "--theorem", "lemma", "--seed", "1"])
        rep = _strict_json(out)["report"]
        assert code == 1
        assert rep["sigma_min"] == 0.0 and rep["inverse_norm"] is None and rep["sandwich_ok"] is False

    def test_inverse_norm_beyond_the_float_range_is_an_input_error(self, tmp_path, capsys):
        ref, tiny = self._files(tmp_path, [[1.0, 0.0], [0.0, 1e-160]])  # sigma_min(U) = 1e-320
        code, out = run_cli(["perturb", ref, tiny, "--theorem", "lemma", "--seed", "1"])
        assert (code, out) == (2, "")
        assert _strict_json(capsys.readouterr().err) == {
            "error": "NonFiniteInput",
            "message": "inverse_norm overflows a float",
        }


class TestLemmaArm:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_report_is_the_certifier_report(self, tmp_path, field):
        paths = []
        for name, seed, blocks in (("lam", 81, 3), ("theta", 82, 4)):
            paths.append(str(tmp_path / f"{name}.json"))
            save_system(gf.generate("frame", 6, blocks, seed=seed, field=field, max_condition=50), paths[-1])
        flags = ["--lam", "0.2", "--mu", "0.1", "--gamma", "0.05", "--samples", "300", "--seed", "7"]
        code, out = run_cli(["perturb", *paths, "--theorem", "lemma", *flags])
        rep = gf.certify_invertibility_lemma(
            load_system(paths[0]), load_system(paths[1]), gf.PerturbParams(0.2, 0.1, 0.05), samples=300, seed=7
        )
        assert code == (0 if rep.hypothesis_holds and rep.sandwich_ok else 1)
        assert _strict_json(out)["report"] == dataclasses.asdict(rep)

    def test_lam1_beyond_one_names_lam_gamma_and_its_value(self, frame_file, capsys):
        argv = ["perturb", frame_file, frame_file, "--theorem", "lemma", "--lam", "0.99", "--gamma", "5", "--seed", "1"]
        code, out = run_cli(argv)
        assert (code, out) == (2, "")
        a = float(load_system(frame_file).spectrum[0])
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"lam1 = lam + gamma/sqrt(A) = 0.99 + 5.0/sqrt({a!r}) = {0.99 + 5.0 / a**0.5!r} must be below 1",
        }

    def test_ignores_tol_and_echoes_the_thresholds_that_decide_it(self, frame_file, capsys):
        argv = ["perturb", frame_file, frame_file, "--theorem", "lemma", "--lam", "0.3", "--mu", "0.3", "--seed", "1"]
        payloads = [json.loads(run_cli(argv + tol)[1]) for tol in ([], ["--tol", "0.5"])]
        assert payloads[0]["report"] == payloads[1]["report"]
        assert [p["tolerances"] for p in payloads] == [
            {"bracket_tol": tol, "margin_tol": 1e-12, "lemma_slack": 1e-9} for tol in (1e-9, 0.5)
        ]
        code, out, _ = _run_main(["perturb", "--help"], capsys)
        assert code == 0 and "--theorem lemma ignores --tol" in " ".join(out.split())

    @pytest.mark.parametrize(
        "other, error",
        [
            (gf.generate("frame", 5, 2, seed=101, field="complex"), "SystemMismatch"),
            (gf.generate("frame", 4, 2, seed=101), "SystemMismatch"),
            (None, "NotAFrameError"),
        ],
        ids=["mixed_field", "other_dimension", "non_frame_reference"],
    )
    def test_input_errors(self, frame_file, degenerate_file, tmp_path, other, error, capsys):
        ref, perturbed = frame_file, str(tmp_path / "other.json")
        if other is None:
            ref, perturbed = degenerate_file, degenerate_file
        else:
            save_system(other, perturbed)
        code, out = run_cli(["perturb", ref, perturbed, "--theorem", "lemma", "--seed", "1"])
        assert (code, out) == (2, "")
        assert json.loads(capsys.readouterr().err)["error"] == error


class TestNumericOptions:
    @pytest.mark.parametrize(
        "flag, value",
        [(f, v) for f in ("--tol", "--lam", "--mu", "--gamma", "--noise") for v in ("nan", "inf", "-inf")]
        + [("--tol", "-1"), ("--lam", "abc")],
    )
    def test_non_finite_or_negative_tolerance_is_a_usage_error(self, frame_file, flag, value, capsys):
        argv = {
            "--tol": ["analyze", frame_file],
            "--noise": ["gen", "--base", frame_file, "--seed", "1"],
        }.get(flag, ["perturb", frame_file, frame_file, "--theorem", "t52", "--seed", "1"])
        code, out, err = _run_main([*argv, f"{flag}={value}"], capsys)  # "=": argparse reads a bare -inf as an option
        assert (code, out) == (2, "")
        assert f"argument {flag}: " in err and repr(value) in err

    def test_lam_beyond_one_is_an_input_error_raised_after_both_files_are_read(self, frame_file, capsys):
        code, out = run_cli(["perturb", frame_file, frame_file, "--theorem", "t52", "--lam", "1.5", "--seed", "1"])
        assert (code, out) == (2, "")
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "lam and mu must lie in [0, 1)"}

    def test_zero_tolerance_is_accepted(self, frame_file):
        assert run_cli(["analyze", frame_file, "--tol", "0"])[0] == 0

    @pytest.mark.parametrize(
        "argv, target",
        [(["gen", "--base", "F", "--noise", "-0.05"], "radius"), (["gen", "--dim", "0", "--blocks", "1"], "dim")],
    )
    def test_gen_rejects_a_negative_noise_or_an_empty_shape(self, frame_file, argv, target, capsys):
        code, out = run_cli([frame_file if a == "F" else a for a in argv] + ["--seed", "1"])
        assert (code, out) == (2, "")
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and target in err["message"]


class TestParseDiagnostics:
    def test_bad_field_value(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "field": "rational", "dim": 2, "subsystems": []}')
        with pytest.raises(SystemFileError, match="field"):
            load_system(str(path))

    def test_ragged_matrix_carries_path(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "field": "real",
                    "dim": 2,
                    "subsystems": [
                        {"weight": 1.0, "subspace": [[1.0], [0.0]], "lambda": [[1.0, 0.0], [1.0]]}
                    ],
                }
            )
        )
        with pytest.raises(SystemFileError, match=r"subsystems\[0\].lambda"):
            load_system(str(path))

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text('{"version": 9, "field": "real", "dim": 1, "subsystems": []}')
        with pytest.raises(SystemFileError, match="version"):
            load_system(str(path))

    def test_complex_entries_rejected_in_real_file(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "field": "real",
                    "dim": 1,
                    "subsystems": [{"weight": 1.0, "subspace": [[[1.0, 0.0]]], "lambda": [[1.0]]}],
                }
            )
        )
        with pytest.raises(SystemFileError):
            load_system(str(path))

    def test_json_syntax_error_has_location(self, tmp_path):
        path = tmp_path / "syntax.json"
        path.write_text("{broken")
        with pytest.raises(SystemFileError, match=r":\d+:\d+"):
            load_system(str(path))


def test_golden_files(tmp_path):
    names = replay_golden(tmp_path)
    assert len(names) == 20
    for name in names:  # every payload is strict JSON: no NaN or Infinity token
        _strict_json((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))


def _golden_expect(argv: list[str]) -> dict:
    """What the benchmark's checker expects of one golden scenario, read off its argv as its request lists build it."""
    cmd = argv[0]
    if cmd == "gen":
        flags = dict(zip(argv[1::2], argv[2::2]))  # every gen argument of the scenarios is a --flag value pair
        if "--noise" in flags:
            return {"kind": "noise", "base": flags["--base"], "noise": float(flags["--noise"])}
        if "--base" in flags:
            return {"kind": flags["--kind"], "base": flags["--base"]}
        return {"kind": flags.get("--kind", "frame"), "dim": int(flags["--dim"]), "blocks": int(flags["--blocks"]),
                "field": flags.get("--field", "real")}
    if cmd == "cross":
        return {"theta": argv[1], "system": argv[2]}
    if cmd == "perturb":
        return {"system": argv[1], "perturbed": argv[2]}
    return {"system": argv[1]}


def test_golden_payloads_pass_the_benchmark_checker(tmp_path, monkeypatch):
    # perfbench's checker compares each payload with plain-numpy facts of the files it read (no gfusion), so a
    # regenerated golden is checked against something other than itself.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks, reference = importlib.import_module("checks"), importlib.import_module("reference")
    facts = reference.Facts(tmp_path)
    kinds = []
    for name, argv, _ in golden_scenarios(tmp_path):
        code, out = run_cli(argv)
        req = {"argv": argv, "expect": _golden_expect(argv)}
        req["facts"] = facts.for_request(req)
        assert checks.check(req, code, out, tmp_path) == [], name or argv
        kinds.append(argv[0])
    assert len(kinds) == 22 and kinds.count("gen") == 8

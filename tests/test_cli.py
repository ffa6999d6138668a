import hashlib
import importlib.util
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from waylab import serialize
from waylab.graded import GradedSpace, PureState


ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
PERFBENCH = ROOT / "perfbench"


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "waylab", *args],
                          capture_output=True, text=True, cwd=cwd)


def run_console_script(*args):
    """Run the ``waylab`` console script.

    An installed ``waylab`` on PATH is run as is. Without one (the suite
    runs uninstalled with ``PYTHONPATH=src``), the ``waylab`` entry under
    ``[project.scripts]`` in pyproject.toml is resolved and called in a
    fresh interpreter the way the installed wrapper calls it.
    """
    if shutil.which("waylab") is not None:
        return subprocess.run(["waylab", *args], capture_output=True, text=True)
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["waylab"]
    module, attr = entry.split(":")
    wrapper = ("import importlib, sys; sys.argv[0] = 'waylab'; "
               f"sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())")
    return subprocess.run([sys.executable, "-c", wrapper, *args],
                          capture_output=True, text=True)


@pytest.fixture
def eplus_file(tmp_path):
    state = PureState(GradedSpace.qubit(), np.array([1.0, 1.0]) / math.sqrt(2))
    path = tmp_path / "eplus.json"
    path.write_text(serialize.dumps(serialize.state_to_json(state)))
    return str(path)


@pytest.fixture
def number_state_file(tmp_path):
    sp = GradedSpace.ladder(3)
    state = PureState(sp, np.eye(sp.total_dim)[sp.slice_of(3).start])
    path = tmp_path / "n3.json"
    path.write_text(serialize.dumps(serialize.state_to_json(state)))
    return str(path)


def write_dist(tmp_path, name, probs):
    path = tmp_path / name
    path.write_text(serialize.dumps({str(k): v for k, v in probs.items()}))
    return str(path)


class TestTwirl:
    def test_eplus_blocks(self, eplus_file):
        res = run_cli("twirl", eplus_file)
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        blocks = payload["twirled"]["blocks"]
        assert blocks["0"][0][0][0] == pytest.approx(0.5)
        assert blocks["1"][0][0][0] == pytest.approx(0.5)
        assert payload["frameness_entropy_bits"] == pytest.approx(1.0)
        assert payload["variance_measure"] == pytest.approx(1.0)

    def test_number_state_unchanged(self, number_state_file):
        res = run_cli("twirl", number_state_file)
        payload = json.loads(res.stdout)
        assert payload["twirled"]["blocks"]["3"][0][0][0] == pytest.approx(1.0)
        assert payload["variance_measure"] == pytest.approx(0.0)

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli("twirl", str(bad))
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_unnormalized_state_exit_2(self, tmp_path):
        bad = tmp_path / "unnorm.json"
        bad.write_text(serialize.dumps({"charges": [0, 1], "sector_dims": [1, 1],
                                        "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}))
        res = run_cli("twirl", str(bad))
        assert res.returncode == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_amplitude_exit_2_before_any_divide(self, tmp_path, capsys):
        from waylab import cli

        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"charges": [0, 1], "sector_dims": [1, 1],
                                   "amplitudes": [[math.nan, 0.0], [1.0, 0.0]]}))
        assert cli.main(["twirl", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "not normalized" in err


class TestConvert:
    def test_uniform_to_asbit_feasible(self, tmp_path):
        p = write_dist(tmp_path, "p.json", {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})
        q = write_dist(tmp_path, "q.json", {0: 0.5, 1: 0.5})
        res = run_cli("convert", p, q)
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["feasible"] is True
        assert payload["weights"]["0"] == pytest.approx(0.5)
        assert payload["weights"]["2"] == pytest.approx(0.5)

    def test_gapped_pair_feasible(self, tmp_path):
        p = write_dist(tmp_path, "p.json", {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})
        q = write_dist(tmp_path, "q.json", {1: 0.5, 3: 0.5})
        assert run_cli("convert", p, q).returncode == 0

    def test_wide_pair_infeasible_exit_1(self, tmp_path):
        p = write_dist(tmp_path, "p.json", {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})
        q = write_dist(tmp_path, "q.json", {0: 0.5, 3: 0.5})
        res = run_cli("convert", p, q)
        assert res.returncode == 1
        assert json.loads(res.stdout)["feasible"] is False

    def test_identical_feasible(self, tmp_path):
        p = write_dist(tmp_path, "p.json", {2: 0.375, 4: 0.625})
        res = run_cli("convert", p, p)
        assert res.returncode == 0

    def test_bad_distribution_exit_2(self, tmp_path):
        p = write_dist(tmp_path, "p.json", {0: 0.7, 1: 0.7})
        q = write_dist(tmp_path, "q.json", {0: 1.0})
        assert run_cli("convert", p, q).returncode == 2

    @pytest.mark.parametrize("content, error", [
        ("[0.5, 0.5]", "expected a JSON object"),
        ("0.5", "expected a JSON object"),
        ("null", "expected a JSON object"),
        ('{"0": NaN, "1": 1.0}', "non-finite probability at charge 0"),
    ], ids=["list", "number", "null", "nan-probability"])
    def test_unusable_distribution_file_exit_2(self, tmp_path, capsys, content, error):
        from waylab import cli

        p = tmp_path / "p.json"
        p.write_text(content)
        q = write_dist(tmp_path, "q.json", {0: 1.0})
        assert cli.main(["convert", str(p), q]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: invalid distribution file: {error}")

    def test_solver_disagreement_exit_3(self, tmp_path, monkeypatch, capsys):
        # a feasible verdict that the residual's LP contradicts must not print
        from waylab import cli
        from waylab.convert import ConversionCertificate

        def lying(p, q):
            return ConversionCertificate(True, {0: 1.0}, p, q)

        monkeypatch.setattr(cli, "deterministic_convertible", lying)
        p = write_dist(tmp_path, "p.json", {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})
        q = write_dist(tmp_path, "q.json", {0: 0.5, 3: 0.5})
        assert cli.main(["convert", p, q]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: convertibility solvers disagree")


    @pytest.mark.parametrize("d, code", [(5e-9, 0), (5.5e-9, 1)])
    def test_tolerance_band_pairs_get_a_verdict(self, tmp_path, capsys, d, code):
        # within a small factor of the tolerance the window's fit decides; the
        # LP behind the printed residual does not turn either verdict into exit 3
        from waylab import cli

        p = write_dist(tmp_path, "p.json", {0: 0.45 - d, 1: 0.5, 2: 0.05 + d})
        q = write_dist(tmp_path, "q.json", {0: 0.9, 1: 0.1})
        assert cli.main(["convert", p, q]) == code
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] == (code == 0)
        assert out["residual"] < 2e-8

class TestDiscriminateCommand:
    def test_uniform_ud(self):
        res = run_cli("discriminate", "--resource", "uniform", "--param", "3",
                      "--criterion", "ud")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["success_numeric"] == pytest.approx(0.75)
        assert payload["fail_numeric"] == pytest.approx(0.25)

    def test_coherent_mle(self):
        res = run_cli("discriminate", "--resource", "coherent", "--param", "1.0",
                      "--criterion", "mle")
        payload = json.loads(res.stdout)
        assert payload["success_numeric"] == pytest.approx(0.8865963, abs=1e-6)
        assert payload["success_closed_form"] == pytest.approx(
            payload["success_numeric"], abs=1e-8)

    def test_opt_phase_rejects_ud(self):
        res = run_cli("discriminate", "--resource", "opt_phase", "--param", "3",
                      "--criterion", "ud")
        assert res.returncode == 2

    def test_non_integer_m_rejected(self):
        res = run_cli("discriminate", "--resource", "uniform", "--param", "2.5",
                      "--criterion", "ud")
        assert res.returncode == 2

    @pytest.mark.parametrize("criterion", ["ud", "mle"])
    def test_coherent_truncation_failure_exit_3_within_two_seconds(self, criterion):
        # a valid input the truncation cannot handle is a numerical failure,
        # not an input error
        t0 = time.perf_counter()
        res = run_cli("discriminate", "--resource", "coherent", "--param", "30",
                      "--criterion", criterion)
        assert time.perf_counter() - t0 < 2.0
        assert res.returncode == 3
        assert res.stderr.startswith("error: ")
        assert res.stdout == ""


@pytest.mark.parametrize("argv", [
    ["discriminate", "--resource", "coherent", "--param", "inf", "--criterion", "ud"],
    ["discriminate", "--resource", "uniform", "--param", "inf", "--criterion", "ud"],
    ["discriminate", "--resource", "uniform", "--param=-inf", "--criterion", "mle"],
    ["discriminate", "--resource", "uniform", "--param", "nan", "--criterion", "ud"],
    ["discriminate", "--resource", "opt_phase", "--param", "inf", "--criterion", "mle"],
    ["curves", "--figure", "fig2", "--grid", "1,inf"],
    ["curves", "--figure", "fig3", "--grid", "inf"],
    ["curves", "--figure", "fig2", "--grid", "nan"],
], ids=["coherent-inf", "uniform-inf", "uniform-minus-inf", "uniform-nan",
        "opt_phase-inf", "fig2-inf", "fig3-inf", "fig2-nan"])
def test_non_finite_param_or_grid_exit_2(argv, capsys):
    from waylab import cli

    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


class TestCurves:
    def test_fig2_row_contains_smooth_form_value(self):
        res = run_cli("curves", "--figure", "fig2", "--grid", "1")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "resource,param,mean_N,criterion,success_numeric,success_closed_form"
        coh = next(l for l in lines if l.startswith("coherent"))
        closed = float(coh.split(",")[5])
        assert closed == pytest.approx(1 - math.exp(-1) / 2, abs=1e-9)

    def test_fig2_ozawa_reference_value(self):
        res = run_cli("curves", "--figure", "fig2", "--grid", "1,2")
        ref = [l for l in res.stdout.strip().split("\n")
               if l.startswith("ozawa_reference")]
        assert float(ref[0].split(",")[4]) == pytest.approx(0.95)

    def test_fig3_rows_and_ordering_flags(self):
        res = run_cli("curves", "--figure", "fig3", "--grid", "1,8")
        lines = res.stdout.strip().split("\n")[1:]
        by_key = {}
        for line in lines:
            r, p, mean_n, crit, num, closed = line.split(",")
            by_key[(r, float(mean_n))] = float(num)
        # verified ordering: coherent leads at small mean, opt_phase at 8
        assert by_key[("coherent", 1.0)] > by_key[("opt_phase", 1.0)] \
            > by_key[("uniform", 1.0)]
        assert by_key[("opt_phase", 8.0)] > by_key[("coherent", 8.0)] \
            > by_key[("uniform", 8.0)]

    def test_fig3_bad_grid_exit_2(self):
        assert run_cli("curves", "--figure", "fig3", "--grid", "0.3").returncode == 2

    def test_empty_grid_exit_2(self):
        assert run_cli("curves", "--figure", "fig2", "--grid", "").returncode == 2


class TestCircuitCommand:
    def test_ud_m3_eplus(self):
        res = run_cli("circuit", "--kind", "ud", "--m", "3", "--input", "e+")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["outcomes"]["plus"]["probability"] == pytest.approx(0.75)
        assert payload["outcomes"]["fail"]["probability"] == pytest.approx(0.25)
        assert payload["verification"]["conservation_norm"] <= 1e-10
        assert payload["verification"]["yanase_norm"] <= 1e-10

    def test_mle_m3_success(self):
        res = run_cli("circuit", "--kind", "mle", "--m", "3", "--input", "e+")
        payload = json.loads(res.stdout)
        assert payload["outcomes"]["plus"]["probability"] == pytest.approx(1.0)
        res = run_cli("circuit", "--kind", "mle", "--m", "3", "--input", "e-")
        payload = json.loads(res.stdout)
        assert payload["outcomes"]["minus"]["probability"] == pytest.approx(0.75)

    def test_repeatable_restores(self):
        res = run_cli("circuit", "--kind", "repeatable", "--m", "2",
                      "--input", "e-")
        payload = json.loads(res.stdout)
        minus = payload["outcomes"]["minus"]
        assert minus["post_state_fidelity_to_input"] == pytest.approx(1.0, abs=1e-9)

    def test_invalid_kind_exit_2(self):
        res = run_cli("circuit", "--kind", "bogus", "--m", "2")
        assert res.returncode == 2

    def test_invalid_m_exit_2(self):
        assert run_cli("circuit", "--kind", "ud", "--m", "0").returncode == 2


class TestOzawaCommand:
    def test_model_scenario(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({
            "model": {"kind": "ud", "m": 3},
            "system_state": {"amplitudes": [[0.7071067811865476, 0.0],
                                            [0.0, 0.7071067811865476]]}}))
        res = run_cli("ozawa", str(scen))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["violation"] is False
        assert payload["noise"] >= payload["bound"] - 1e-10

    def test_bound_only_scenario(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({
            "system_space": {"charges": [0, 1], "sector_dims": [1, 1]},
            "apparatus_space": {"charges": [0, 1, 2], "sector_dims": [1, 1, 1]},
            "L": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            "system_state": [[0.7071067811865476, 0.0], [0.0, 0.7071067811865476]],
            "apparatus_state": [[0, 0], [1, 0], [0, 0]]}))
        res = run_cli("ozawa", str(scen))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["bound"] == pytest.approx(1.0)

    def test_commuting_observable_zero_bound(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({
            "system_space": {"charges": [0, 1], "sector_dims": [1, 1]},
            "apparatus_space": {"charges": [0, 1], "sector_dims": [1, 1]},
            "L": [[[1, 0], [0, 0]], [[0, 0], [3, 0]]],
            "system_state": [[0.6, 0.0], [0.8, 0.0]],
            "apparatus_state": [[0.6, 0.0], [0.8, 0.0]]}))
        payload = json.loads(run_cli("ozawa", str(scen)).stdout)
        assert payload["bound"] == pytest.approx(0.0, abs=1e-12)

    def test_missing_file_exit_2(self):
        assert run_cli("ozawa", "/nonexistent.json").returncode == 2

    def test_bound_only_nan_observable_exit_2(self, tmp_path, capsys):
        # a NaN in L once printed {"bound":NaN,...}, which is not JSON, and exited 0
        from waylab import cli

        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({
            "system_space": {"charges": [0, 1], "sector_dims": [1, 1]},
            "apparatus_space": {"charges": [0, 1], "sector_dims": [1, 1]},
            "L": [[[math.nan, 0], [1, 0]], [[1, 0], [0, 0]]],
            "system_state": [[0.6, 0.0], [0.8, 0.0]],
            "apparatus_state": [[0.6, 0.0], [0.8, 0.0]]}))
        assert cli.main(["ozawa", str(scen)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: matrix is not Hermitian within tolerance: nan")

    @pytest.mark.parametrize("system_state, apparatus_state", [
        ([[0, 0], [0, 0]], [[1, 0], [0, 0]]),
        ([[0.6, 0], [0.8, 0]], [[0, 0], [0, 0]]),
        ([[1e200, 0], [1e200, 0]], [[1, 0], [0, 0]]),
    ], ids=["zero-system", "zero-apparatus", "overflow"])
    def test_bound_only_state_without_finite_norm_exit_2(self, tmp_path, system_state,
                                                         apparatus_state):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({
            "system_space": {"charges": [0, 1], "sector_dims": [1, 1]},
            "apparatus_space": {"charges": [0, 1], "sector_dims": [1, 1]},
            "L": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            "system_state": system_state, "apparatus_state": apparatus_state}))
        res = run_cli("ozawa", str(scen))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: the product state's squared norm")

    @pytest.mark.parametrize("state", [
        {"amps": [[1.0, 0.0], [0.0, 0.0]]},
        {"amplitudes": [["a", 0], [0, 0]]},
    ], ids=["no-amplitudes", "non-numeric-amplitudes"])
    def test_malformed_inline_system_state_exit_2(self, tmp_path, state):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"model": {"kind": "ud", "m": 2},
                                    "system_state": state}))
        res = run_cli("ozawa", str(scen))
        assert res.returncode == 2
        assert res.stderr.startswith("error: invalid qubit state")

    def test_nan_inline_system_state_exit_2(self, tmp_path, capsys):
        from waylab import cli

        scen = tmp_path / "scen.json"
        state = {"amplitudes": [[math.nan, 0], [1, 0]]}
        scen.write_text(json.dumps({"model": {"kind": "ud", "m": 2}, "system_state": state}))
        assert cli.main(["ozawa", str(scen)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: qubit state must be a normalized two-component")

    @pytest.mark.parametrize("content", ["5", "null", "[1, 2]", '"text"'],
                             ids=["int", "null", "list", "string"])
    def test_non_object_scenario_exit_2(self, tmp_path, content):
        scen = tmp_path / "scen.json"
        scen.write_text(content)
        res = run_cli("ozawa", str(scen))
        assert res.returncode == 2
        assert res.stderr.startswith("error: invalid scenario file")


class TestDeterminism:
    CASES = [
        ("discriminate", "--resource", "coherent", "--param", "1.3",
         "--criterion", "ud"),
        ("curves", "--figure", "fig2", "--grid", "0.5,1,2"),
        ("curves", "--figure", "fig3", "--grid", "1,2"),
        ("circuit", "--kind", "repeatable", "--m", "2", "--input", "e+"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0] + "-" + c[-1])
    def test_byte_identical_reruns(self, case):
        first = run_cli(*case)
        second = run_cli(*case)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty

    def test_twirl_deterministic(self, eplus_file):
        outs = {run_cli("twirl", eplus_file).stdout for _ in range(3)}
        assert len(outs) == 1

    def test_console_script_entry_point(self):
        """The declared ``waylab`` console script gives the paper's M/(M+1).

        The installed binary is run when one is on PATH, since that is what
        users call. Otherwise the entry point declared in pyproject.toml is
        run, so an uninstalled checkout still checks the declaration. The
        command in ``res.args``, shown on failure, tells which path ran.
        """
        res = run_console_script("discriminate", "--resource", "uniform",
                                 "--param", "2", "--criterion", "ud")
        assert res.returncode == 0
        assert json.loads(res.stdout)["success_numeric"] == pytest.approx(2 / 3)

    def test_csv_format_quotes_nested_values(self, eplus_file):
        res = run_cli("twirl", eplus_file, "--format", "csv")
        assert res.returncode == 0
        import csv as csvmod
        import io
        rows = list(csvmod.reader(io.StringIO(res.stdout)))
        assert rows[0] == ["key", "value"]
        assert all(len(r) == 2 for r in rows[1:])

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "curve.csv"
        res = run_cli("curves", "--figure", "fig2", "--grid", "1",
                      "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().startswith("resource,")


class TestRecordedOutput:
    def test_cli_variants_match_recorded_digests(self, tmp_path, monkeypatch):
        """Every CLI variant of the benchmark prints its recorded bytes.

        ``perfbench/cli_digests.json`` holds the exit code and stdout sha256 of
        each variant that ``perfbench/workloads.py::cli_variant`` builds; the
        variants are rebuilt here and run in-process.
        """
        spec = importlib.util.spec_from_file_location(
            "waylab_bench_workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
        spec.loader.exec_module(workloads)
        digests = json.loads((PERFBENCH / "cli_digests.json").read_text())
        assert digests
        mismatched = []
        for key, want in sorted(digests.items()):
            form, i = key.rsplit("/", 1)
            argv, files = workloads.cli_variant(form, int(i))
            paths = {}
            for name, text in files.items():
                paths[name] = str(tmp_path / f"{form}-{i}-{name}.json")
                Path(paths[name]).write_text(text)
            code, stdout = workloads.cli_in_process([a.format(**paths) for a in argv])
            if code != want["exit"] or hashlib.sha256(stdout).hexdigest() != want["sha256"]:
                mismatched.append(key)
        assert mismatched == []

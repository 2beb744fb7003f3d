import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracszego as dz
from diracszego import io
from diracszego.cli import main
from conftest import indefinite_s0_params, near_singular_s0_params


def run(args):
    return main([str(a) for a in args])


def package_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(dz.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.fixture
def sys_doc(tmp_path):
    path = tmp_path / "sys.json"
    assert run(["generate", "--example41", "1,1,1", "--steps", 8,
                "--out", path]) == 0
    return path


class TestGenerate:
    def test_writes_valid_document(self, sys_doc):
        sys_in = io.potentials_from_doc(io.read_doc(str(sys_doc)))
        assert sys_in.N == 8
        assert dz.validate(sys_in).passed

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["generate", "--steps", "2", "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: generate: exactly one of")

    def test_params_document_source(self, tmp_path):
        params = dz.example41_params(2.0, 1.0, 1j)
        ppath = tmp_path / "params.json"
        io.write_doc(str(ppath), io.bdt_params_to_doc(params))
        out = tmp_path / "sys.json"
        assert run(["generate", "--params", ppath, "--steps", "4",
                    "--out", out]) == 0


    def test_example41_rejects_a_nonreal_a(self, tmp_path, capsys):
        """a is passed on whole, not as its real part, so 1+2j is rejected."""
        out = tmp_path / "sys.json"
        assert run(["generate", "--example41", "1+2j,1,1", "--steps", 3, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == "error: generate --example41: a must be real and nonzero\n"
        assert not out.exists()

    def test_example41_past_the_square_of_the_range(self, tmp_path, capsys):
        """||A||_F = 1e160 squares past the largest double: no RuntimeWarning."""
        out = tmp_path / "sys.json"
        assert run(["generate", "--example41", "1e160,1,1", "--steps", 5, "--out", out]) == 0
        assert capsys.readouterr().err == ""

    def test_params_with_s0_not_positive_exit_2(self, tmp_path, capsys):
        params = indefinite_s0_params(np.random.default_rng(0))
        ppath, out = tmp_path / "params.json", tmp_path / "sys.json"
        io.write_doc(str(ppath), io.bdt_params_to_doc(params))
        assert run(["generate", "--params", ppath, "--steps", "4", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the generating recursion requires S0 > 0")
        assert err.count("\n") == 1 and not out.exists()


class TestPipeline:
    def test_direct_inverse_round_trip(self, tmp_path, sys_doc):
        tay = tmp_path / "tay.json"
        back = tmp_path / "back.json"
        assert run(["direct", "--system", sys_doc, "--out", tay]) == 0
        assert run(["inverse", "--taylor", tay, "--out", back]) == 0
        a = io.potentials_from_doc(io.read_doc(str(sys_doc)))
        b = io.potentials_from_doc(io.read_doc(str(back)))
        dev = max(np.abs(x - y).max() for x, y in zip(a.C, b.C))
        assert dev < 1e-8

    def test_inverse_rejects_indefinite(self, tmp_path, capsys):
        alpha = dz.TaylorSequence(p=1, alpha=(np.eye(1), 5 * np.eye(1)))
        tay = tmp_path / "bad.json"
        io.write_doc(str(tay), io.taylor_to_doc(alpha))
        assert run(["inverse", "--taylor", tay, "--out", tmp_path / "o.json"]) == 4
        assert "index 1" in capsys.readouterr().err

    def test_only_the_toeplitz_error_line_names_a_first_failing_index(self, tmp_path, capsys):
        alpha = dz.TaylorSequence(p=1, alpha=(np.eye(1), 5 * np.eye(1)))
        with pytest.raises(dz.errors.ToeplitzNotPD) as info:
            dz.inverse_potentials(alpha)
        tay = tmp_path / "bad.json"
        io.write_doc(str(tay), io.taylor_to_doc(alpha))
        run(["inverse", "--taylor", tay, "--out", tmp_path / "o.json"])
        assert capsys.readouterr().err == f"error: {info.value} (first failing index 1)\n"
        system, _ = dz.generate(dz.example41_params(1.0, 1.0, 1.0), 6)
        C = list(system.C)
        C[4] = -C[4]
        broken = dz.PotentialSequence(system.ctx, tuple(C))
        with pytest.raises(dz.errors.NotPositiveDefinite) as info:
            dz.dirac_to_szego(broken)
        assert info.value.index == 4
        path = tmp_path / "broken.json"
        io.write_doc(str(path), io.potentials_to_doc(broken))
        assert run(["szego", "--to-szego", "--in", path, "--out", tmp_path / "o.json"]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_direct_writes_alpha_only(self, tmp_path, sys_doc, monkeypatch):
        # the positivity profile costs O(N^4 p^3) and no reader uses it
        calls = []

        def counted(alpha):
            calls.append(alpha)
            return [0.0] * (alpha.N + 1)

        for target in ("diracszego.inverse", "diracszego.cli"):
            monkeypatch.setattr(f"{target}.toeplitz_positivity", counted, raising=False)
        tay = tmp_path / "tay.json"
        assert run(["direct", "--system", sys_doc, "--out", tay]) == 0
        assert list(json.loads(tay.read_text())["payload"]) == ["alpha"]
        assert calls == []

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["direct", "--system", tmp_path / "nope.json",
                    "--out", tmp_path / "o.json"]) == 1

    def test_malformed_json_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["direct", "--system", bad, "--out", tmp_path / "o.json"]) == 1


class TestVerify:
    def test_valid_system_passes(self, tmp_path, sys_doc):
        rep = tmp_path / "rep.json"
        assert run(["verify", "--system", sys_doc, "--out", rep]) == 0
        doc = json.loads(rep.read_text())
        assert doc["payload"]["passed"] is True
        assert all(s["residual"] < 1e-9
                   for s in doc["payload"]["summation_residuals"])

    @pytest.mark.parametrize("N", [12, 50, 200, 500])
    def test_valid_system_passes_at_length(self, tmp_path, N):
        sys_path, rep = tmp_path / "sys.json", tmp_path / "rep.json"
        assert run(["generate", "--example41", "1,1,1", "--steps", N, "--out", sys_path]) == 0
        assert run(["verify", "--system", sys_path, "--out", rep]) == 0
        payload = json.loads(rep.read_text())["payload"]
        assert all(s["residual"] < 1e-9 for s in payload["summation_residuals"])
        assert all(c["relative_residual"] < 1e-9
                   for c in payload["determinant_identity_residuals"])

    def test_relative_break_at_length_is_caught(self, tmp_path, capsys):
        # scaling one coefficient by 1 + 1e-8 breaks C j C = j at relative size 2e-8
        system, _ = dz.generate(dz.example41_params(1.0, 1.0, 1.0), 200)
        C = list(system.C)
        C[100] = C[100] * (1 + 1e-8)
        broken = dz.PotentialSequence(ctx=system.ctx, C=tuple(C))
        assert not dz.validate(broken).passed
        path = tmp_path / "broken.json"
        io.write_doc(str(path), io.potentials_to_doc(broken))
        assert run(["verify", "--system", path, "--out", tmp_path / "r.json"]) == 2
        err = capsys.readouterr().err
        assert "C_100" in err and "summation defect" in err

    def test_break_between_checkpoints_is_caught(self, tmp_path, capsys):
        # the summation defect is judged at every r: a break at k = 150 of N = 200
        # shows at r = 150 (1.4e-9) but has faded to rounding level by r = N
        system, _ = dz.generate(dz.example41_params(1.0, 1.0, 1.0), 200)
        C = list(system.C)
        C[150] = C[150] * (1 + 1e-8)
        path = tmp_path / "broken.json"
        io.write_doc(str(path), io.potentials_to_doc(dz.PotentialSequence(system.ctx, tuple(C))))
        assert run(["verify", "--system", path, "--out", tmp_path / "r.json"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert any("summation defect at lambda=(1-1j), r=150 " in line for line in lines)

    def test_custom_lambda_grid(self, tmp_path, sys_doc):
        rep = tmp_path / "rep.json"
        assert run(["verify", "--system", sys_doc,
                    "--lambda-grid", "1-1j,-0.5-2j", "--out", rep]) == 0
        doc = json.loads(rep.read_text())
        assert len(doc["payload"]["determinant_identity_residuals"]) == 2

    @pytest.mark.parametrize("grid", ["1,-2j", "0,-2j"])
    def test_real_grid_point_is_a_usage_error(self, tmp_path, sys_doc, capsys, grid):
        """The summation formula needs Im lambda != 0: a real point of the grid
        is a bad command line, not an invariant failure of the valid system."""
        rep = tmp_path / "rep.json"
        assert run(["verify", "--system", sys_doc, "--lambda-grid", grid, "--out", rep]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and not rep.exists()
        assert err.startswith("error: verify: --lambda-grid point") and "is real" in err

    def test_broken_system_fails(self, tmp_path, capsys):
        ctx = dz.SignatureContext(p=1)
        C = [np.eye(2, dtype=complex)] * 3 + [np.diag([2.0, 1.0]).astype(complex)]
        bad = dz.PotentialSequence(ctx=ctx, C=tuple(C))
        path = tmp_path / "bad.json"
        io.write_doc(str(path), io.potentials_to_doc(bad))
        assert run(["verify", "--system", path, "--out", tmp_path / "r.json"]) == 2


class TestNonFiniteInput:
    """A NaN in an input document ends in one error line and a nonzero exit."""

    @pytest.fixture
    def nan_system_doc(self, tmp_path):
        system, _ = dz.generate(dz.example41_params(1.0, 1.0, 1.0), 6)
        C = [c.copy() for c in system.C]
        C[3][0, 1] = np.nan
        path = tmp_path / "nan.json"
        io.write_doc(str(path), io.potentials_to_doc(dz.PotentialSequence(system.ctx, tuple(C))))
        return path

    @pytest.fixture
    def nan_taylor_doc(self, tmp_path):
        system, _ = dz.generate(dz.example41_params(1.0, 1.0, 1.0), 6)
        alpha = list(dz.direct_taylor(system).alpha)
        alpha[3] = np.full((1, 1), np.nan)
        path = tmp_path / "nan-taylor.json"
        io.write_doc(str(path), io.taylor_to_doc(dz.TaylorSequence(p=1, alpha=tuple(alpha))))
        return path

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_to_szego(self, tmp_path, nan_system_doc, capsys):
        assert run(["szego", "--to-szego", "--in", nan_system_doc,
                    "--out", tmp_path / "o.json"]) != 0
        self.assert_one_error_line(capsys)

    def test_direct_without_validation(self, tmp_path, nan_system_doc, capsys):
        assert run(["direct", "--no-validate", "--system", nan_system_doc,
                    "--out", tmp_path / "o.json"]) != 0
        self.assert_one_error_line(capsys)

    def test_inverse(self, tmp_path, nan_taylor_doc, capsys):
        assert run(["inverse", "--taylor", nan_taylor_doc, "--out", tmp_path / "o.json"]) != 0
        self.assert_one_error_line(capsys)


class TestSzegoCommand:
    def test_conversion_cycle(self, tmp_path, sys_doc):
        sz = tmp_path / "sz.json"
        back = tmp_path / "back.json"
        assert run(["szego", "--to-szego", "--in", sys_doc, "--out", sz]) == 0
        assert run(["szego", "--to-dirac", "--in", sz, "--out", back]) == 0
        a = io.potentials_from_doc(io.read_doc(str(sys_doc)))
        b = io.potentials_from_doc(io.read_doc(str(back)))
        assert max(np.abs(x - y).max() for x, y in zip(a.C, b.C)) < 1e-10

    def test_schur_extraction(self, tmp_path, capsys):
        sz = tmp_path / "sz.json"
        assert run(["szego", "--from-schur", "0.3,-0.2,0.1", "--out", sz]) == 0
        assert run(["szego", "--schur", "--in", sz]) == 0
        rho = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(complex(*rho[0]) - 0.3) < 1e-12
        assert abs(complex(*rho[1]) - (-0.2)) < 1e-12

    def test_round_trip_report(self, sys_doc, capsys):
        assert run(["szego", "--round-trip", "--in", sys_doc]) == 0
        out = capsys.readouterr().out
        assert "round-trip max deviation" in out

    def test_mode_flags_are_exclusive(self, sys_doc, capsys):
        assert run(["szego", "--to-szego", "--to-dirac", "--in", sys_doc]) == 1


class TestWeylCommand:
    def test_evaluates_explicit_function(self, tmp_path, capsys):
        params = dz.example41_params(1.0, 1.0, 1.0)
        ppath = tmp_path / "params.json"
        io.write_doc(str(ppath), io.bdt_params_to_doc(params))
        assert run(["weyl", "--params", ppath, "--lambda", "0,-1"]) == 0
        val = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(complex(*val[0][0]) - (-0.4 - 0.2j)) < 1e-12

    def test_herglotz_convention(self, tmp_path, capsys):
        params = dz.example41_params(1.0, 1.0, 1.0)
        ppath = tmp_path / "params.json"
        io.write_doc(str(ppath), io.bdt_params_to_doc(params))
        assert run(["weyl", "--params", ppath, "--lambda", "0,-1",
                    "--convention", "K"]) == 0
        val = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(complex(*val[0][0]) - (1 - 2j)) < 1e-12

    def test_s0_singular_to_working_precision_exit_2(self, tmp_path, capsys):
        """The triple ``generate --params`` rejects is rejected here too."""
        ppath = tmp_path / "params.json"
        io.write_doc(str(ppath), io.bdt_params_to_doc(near_singular_s0_params()))
        assert run(["weyl", "--params", ppath, "--lambda", "0,-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: the generating recursion requires S0 > 0")

    @pytest.mark.parametrize("lam, code", [("0,1", 1), ("2,1e-9", 1), ("2,0", 0), ("0,-1", 0)])
    def test_rejects_the_upper_half_plane(self, tmp_path, capsys, lam, code):
        ppath = tmp_path / "params.json"
        io.write_doc(str(ppath), io.bdt_params_to_doc(dz.example41_params(1.0, 1.0, 1.0)))
        assert run(["weyl", "--params", ppath, "--lambda", lam]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1
            assert "upper half-plane" in err
        else:
            assert err == "" and len(json.loads(out)) == 1


class TestDocuments:
    def test_round_trip_serialization(self, rng):
        params = dz.random_bdt_parameters(rng, 3, 2)
        doc = io.bdt_params_to_doc(params)
        back = io.bdt_params_from_doc(json.loads(json.dumps(doc)))
        assert np.array_equal(back.A, params.A)
        assert np.array_equal(back.Pi0, params.Pi0)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "mystery", "payload": {}}))
        with pytest.raises(dz.errors.DocumentError):
            io.read_doc(str(path))

    def test_taylor_document_with_positivity_profile_loads(self, ex41_system):
        # taylor documents once carried the key toeplitz_min_eigs; readers ignore it
        alpha = dz.direct_taylor(ex41_system)
        doc = io.taylor_to_doc(alpha)
        doc["payload"]["toeplitz_min_eigs"] = dz.toeplitz_positivity(alpha)
        back = io.taylor_from_doc(json.loads(json.dumps(doc)))
        assert all(np.array_equal(a, b) for a, b in zip(back.alpha, alpha.alpha))

    def test_shape_mismatch_rejected(self, tmp_path):
        doc = {"kind": "potentials", "version": "1", "p": 2,
               "payload": {"C": [[[[1.0, 0.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [1.0, 0.0]]]]}}
        with pytest.raises(dz.errors.DocumentError):
            io.potentials_from_doc(doc)


I1 = [[[1.0, 0.0]]]                                  # 1 x 1 identity as [re, im] pairs
I2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

# case -> (kind, p, payload); each breaks one rule of the document format
MALFORMED = {
    "ragged alpha": ("taylor", 1, {"alpha": [I1, [[[1.0, 0.0], [0.0, 0.0]]]]}),
    "alpha of the wrong p": ("taylor", 2, {"alpha": [I1, I1]}),
    "ragged C": ("potentials", 1, {"C": [I2, I1]}),
    "string entry": ("potentials", 1, {"C": [[[["1.0", 0.0], [0.0, 0.0]], I2[1]]]}),
    "empty list": ("potentials", 1, {"C": []}),
    "theta of the wrong length": ("szego", 1, {"R": [I2, I2], "theta": [[1.0, 0.0]]}),
    "theta zero": ("szego", 1, {"R": [I2], "theta": [[0.0, 0.0]]}),
    "bdt-params of the wrong shape": ("bdt-params", 1, {"A": I1, "S0": I1, "Pi0": I1}),
    "p true": ("potentials", True, {"C": [I2]}),
    "bools among numbers": ("potentials", 1, {"C": [[[[True, 0.0], [0.0, 0.0]],
                                                    [[0.0, 0.0], [1.0, False]]]]}),
}

# kind -> (reader, command line that reads the document at {doc} and writes {out})
READERS = {
    "potentials": (io.potentials_from_doc, ["direct", "--system", "{doc}", "--out", "{out}"]),
    "taylor": (io.taylor_from_doc, ["inverse", "--taylor", "{doc}", "--out", "{out}"]),
    "szego": (io.szego_from_doc, ["szego", "--to-dirac", "--in", "{doc}", "--out", "{out}"]),
    "bdt-params": (io.bdt_params_from_doc,
                   ["generate", "--params", "{doc}", "--steps", "2", "--out", "{out}"]),
}


def malformed_command(case, tmp_path):
    """Write the case's document; return its reader, the document and a command line."""
    kind, p, payload = MALFORMED[case]
    doc = {"kind": kind, "version": "1", "p": p, "payload": payload}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    reader, argv = READERS[kind]
    return reader, doc, [a.format(doc=path, out=tmp_path / "out.json") for a in argv]


class TestMalformedDocuments:
    """A malformed document raises DocumentError; the CLI exits 1 with one line."""

    @pytest.mark.parametrize("case", MALFORMED)
    def test_reader_raises_document_error(self, case, tmp_path):
        reader, doc, _ = malformed_command(case, tmp_path)
        with pytest.raises(dz.errors.DocumentError):
            reader(doc)

    @pytest.mark.parametrize("case", MALFORMED)
    def test_cli_prints_one_error_line(self, case, tmp_path, capsys):
        _, _, argv = malformed_command(case, tmp_path)
        assert main(argv) == 1
        TestNonFiniteInput.assert_one_error_line(capsys)

    def test_no_traceback_from_a_fresh_interpreter(self, tmp_path):
        _, _, argv = malformed_command("theta zero", tmp_path)
        proc = subprocess.run([sys.executable, "-m", "diracszego.cli", *argv], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


class TestEigensolverFailure:
    """A LinAlgError from LAPACK exits 2 with one error line, not a traceback."""

    @pytest.mark.parametrize("command", [["direct", "--system"], ["szego", "--to-szego", "--in"]],
                             ids=["direct", "szego-to-szego"])
    def test_exits_2_with_one_error_line(self, command, sys_doc, tmp_path, monkeypatch, capsys):
        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        out = tmp_path / "o.json"
        assert run([*command, sys_doc, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "error: linear algebra failure: Eigenvalues did not converge\n"
        assert not out.exists()


class TestUsageErrors:
    """A command line that names no valid action exits 1 with one error line."""

    @pytest.mark.parametrize("argv", [
        [],
        ["generate", "--example41", "1,1,1", "--out", "o.json"],
        ["generate", "--example41", "1,1,1", "--steps", "two", "--out", "o.json"],
        ["generate", "--example41", "1,1,1", "--steps", "-1", "--out", "o.json"],
        ["generate", "--example41", "0,1,1", "--steps", "2", "--out", "o.json"],
        ["szego", "--to-szego", "--out", "o.json"],
        ["szego", "--from-schur", "0.3"],
    ])
    def test_exits_1_with_one_error_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        TestNonFiniteInput.assert_one_error_line(capsys)
        assert not (tmp_path / "o.json").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--help"])
        assert info.value.code == 0
        assert "--steps" in capsys.readouterr().out


class TestColdStart:
    def test_cli_import_does_not_load_scipy(self):
        # SciPy costs about 0.25 s of every command's start; the package,
        # its test-data generator random_szego_sequence included, never loads it
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import diracszego.cli\n"
            "assert 'scipy' not in sys.modules, 'SciPy loaded by import diracszego.cli'\n"
            "from diracszego import random_szego_sequence\n"
            "sz = random_szego_sequence(np.random.default_rng(0), 2, 3)\n"
            "assert len(sz.R) == 4 and 'scipy' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

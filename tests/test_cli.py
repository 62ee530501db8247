import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qpmedia
from conftest import small_drude_disk, stable_spec
from qpmedia.cli import _CHECKSUM_BLOCK, _checksum, _grid, main
from qpmedia.constants import HARTREE_TO_EV
from qpmedia.medium import spec_to_json


@pytest.fixture
def model_file(tmp_path):
    spec = stable_spec(seed=777, n=3)
    path = tmp_path / "model.json"
    path.write_text(spec_to_json(spec) + "\n", encoding="utf-8")
    return path


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("#")  # conversion constant for auditability
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def scalar_model(tmp_path, k=2.0, gamma=0.5):
    from conftest import scalar_spec

    path = tmp_path / "scalar.json"
    path.write_text(spec_to_json(scalar_spec(k, gamma)) + "\n", encoding="utf-8")
    return path


class TestSpectrum:
    def test_row_count_and_determinism(self, model_file, tmp_path, capsys):
        out = tmp_path / "s.csv"
        args = [
            "spectrum", "--model", str(model_file), "--omega-min", "0",
            "--omega-max", "7", "--omega-step", "0.01", "--out", str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        header, rows = read_rows(out)
        assert header == ["omega_eV", "im_alpha", "absorptive", "dispersive"]
        assert len(rows) == 701
        assert main(args) == 0
        assert out.read_bytes() == first
        summary = capsys.readouterr().out
        assert "sha256=" in summary

    def test_split_adds_up(self, model_file, tmp_path):
        out = tmp_path / "s.csv"
        main(
            [
                "spectrum", "--model", str(model_file), "--omega-min", "0.5",
                "--omega-max", "3.0", "--omega-step", "0.25", "--out", str(out),
            ]
        )
        _, rows = read_rows(out)
        for cells in rows:
            total, absorb, disp = float(cells[1]), float(cells[2]), float(cells[3])
            assert total == pytest.approx(absorb + disp, abs=1e-12)

    def test_svg_written(self, model_file, tmp_path):
        out = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        main(
            [
                "spectrum", "--model", str(model_file), "--omega-min", "0.5",
                "--omega-max", "3.0", "--omega-step", "0.5", "--out", str(out),
                "--svg", str(svg),
            ]
        )
        assert svg.read_text(encoding="utf-8").startswith("<svg")

    def test_svg_of_one_point_grid(self, model_file, tmp_path):
        out = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        assert main(
            [
                "spectrum", "--model", str(model_file), "--omega-min", "1",
                "--omega-max", "1", "--omega-step", "0.1", "--out", str(out),
                "--svg", str(svg),
            ]
        ) == 0
        _, rows = read_rows(out)
        assert len(rows) == 1
        text = svg.read_text(encoding="utf-8")
        assert text.rstrip().endswith("</svg>")
        points = [
            line.split('points="')[1].split('"')[0]
            for line in text.splitlines()
            if line.startswith("<polyline")
        ]
        assert len(points) == 3
        for pts in points:
            x, y = (float(v) for v in pts.split(","))  # one point, inside the canvas
            assert 0.0 <= x <= 720.0 and 0.0 <= y <= 360.0


class TestModes:
    def test_ev_conversion_of_damped_scalar(self, tmp_path):
        model = scalar_model(tmp_path)
        out = tmp_path / "modes.csv"
        assert main(["modes", "--model", str(model), "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["k", "re_mu", "im_mu"]
        vals = sorted(float(r[1]) for r in rows)
        expected = np.sqrt(7.0) / 2.0 * HARTREE_TO_EV
        assert vals[0] == pytest.approx(-expected, rel=1e-10)
        assert vals[1] == pytest.approx(expected, rel=1e-10)

    def test_vector_dump(self, tmp_path):
        model = scalar_model(tmp_path)
        out = tmp_path / "modes.csv"
        vecs = tmp_path / "vecs.txt"
        main(["modes", "--model", str(model), "--out", str(out), "--vectors", str(vecs)])
        lines = vecs.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert len(lines[0].split()) == 4  # two complex pairs


    def test_reads_only_the_eigensystem(self, model_file, tmp_path, monkeypatch):
        # no A, cond(A) or J_B is built, and both tables are those of the
        # eigensystem that spectral.prepare returns
        from qpmedia import spectral
        from qpmedia.medium import spec_from_json

        _, eig = spectral.prepare(spec_from_json(model_file.read_text(encoding="utf-8")))

        def unused(*args):
            raise AssertionError("qpm modes built A or J_B")

        monkeypatch.setattr(spectral, "attach_similarity", unused)
        monkeypatch.setattr(spectral, "attach_JB", unused)
        out, vecs = tmp_path / "modes.csv", tmp_path / "vecs.txt"
        argv = ["modes", "--model", str(model_file), "--out", str(out), "--vectors", str(vecs)]
        assert main(argv) == 0
        re_mu, im_mu = eig.values.real * HARTREE_TO_EV, eig.values.imag * HARTREE_TO_EV
        rows = "".join("%d,%.12g,%.12g\n" % row for row in zip(range(re_mu.size), re_mu, im_mu))
        header = f"# 1 Hartree = {HARTREE_TO_EV!r} eV\nk,re_mu,im_mu\n"
        assert out.read_text(encoding="utf-8") == header + rows
        lines = (" ".join("%.12g %.12g" % (z.real, z.imag) for z in v) for v in eig.right_vectors.T)
        assert vecs.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)

    def test_singular_similarity_still_has_modes(self, tmp_path):
        # cond(A) above SINGULAR_A_COND_THRESHOLD stops the commands that
        # read A, not the modes table
        from qpmedia.medium import simple_spec

        model = tmp_path / "critical.json"
        spec = simple_spec([[1.0 + 1e-13]], [[1.0]])
        model.write_text(spec_to_json(spec) + "\n", encoding="utf-8")
        out = tmp_path / "modes.csv"
        assert main(["modes", "--model", str(model), "--out", str(out)]) == 0
        assert len(read_rows(out)[1]) == 2


class TestFilter:
    def test_threshold_nesting(self, model_file, tmp_path):
        selected = {}
        for name, thr in (("a", "0.05"), ("b", "0.01")):
            out = tmp_path / f"{name}.csv"
            assert main(
                [
                    "filter", "--model", str(model_file), "--mode", "if",
                    "--threshold", thr, "--out", str(out),
                ]
            ) == 0
            _, rows = read_rows(out)
            selected[name] = {r[0] for r in rows if r[4] == "1"}
        assert selected["a"].issubset(selected["b"])

    def test_ef_window(self, tmp_path):
        model = scalar_model(tmp_path)
        out = tmp_path / "ef.csv"
        lo = 1.0 * HARTREE_TO_EV
        hi = 1.5 * HARTREE_TO_EV
        main(
            [
                "filter", "--model", str(model), "--mode", "ef",
                "--omega-lo", str(lo), "--omega-hi", str(hi), "--out", str(out),
            ]
        )
        _, rows = read_rows(out)
        assert all(r[4] == "1" for r in rows)  # |Re mu| = sqrt7/2 in window

    @pytest.mark.parametrize(
        "flags,name",
        [
            (["--mode", "if", "--threshold=nan"], "threshold"),
            (["--mode", "if", "--threshold=-1"], "threshold"),
            (["--mode", "ef", "--omega-lo", "nan", "--omega-hi", "1"], "omega_lo"),
            (["--mode", "ef", "--omega-lo", "0", "--omega-hi", "nan"], "omega_hi"),
        ],
    )
    def test_nan_or_negative_selection_rejected(self, model_file, tmp_path, capsys, flags, name):
        out = tmp_path / "filter.csv"
        code = main(["filter", "--model", str(model_file), *flags, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: ValueError: {name} must")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--mode", "if", "--threshold", "nan"], "threshold must be non-negative, got nan"),
            (["--mode", "if", "--threshold", "-1"], "threshold must be non-negative, got -1.0"),
            (["--mode", "ef", "--omega-lo", "nan", "--omega-hi", "1"], "omega_lo must not be nan"),
            (["--mode", "if"], "--threshold is required for --mode if"),
            (
                ["--mode", "ef", "--omega-lo", "0"],
                "--omega-lo/--omega-hi are required for --mode ef",
            ),
        ],
    )
    def test_selection_checked_before_decomposition(
        self, model_file, tmp_path, capsys, monkeypatch, flags, message
    ):
        from qpmedia import spectral

        def no_decomposition(spec):
            raise AssertionError("spectral.prepare ran before the selection was checked")

        monkeypatch.setattr(spectral, "prepare", no_decomposition)
        out = tmp_path / "filter.csv"
        code = main(["filter", "--model", str(model_file), *flags, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not out.exists()

    def test_infinite_threshold_selects_nothing(self, model_file, tmp_path):
        out = tmp_path / "filter.csv"
        code = main(
            ["filter", "--model", str(model_file), "--mode", "if", "--threshold", "inf", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_rows(out)
        assert rows and all(r[4] == "0" for r in rows)


class TestPropagate:
    def test_matches_reference_integrator(self, tmp_path):
        from conftest import scalar_spec
        from qpmedia.medium import KickDrive
        from qpmedia.oracles import integrate_reference_second_order

        model = scalar_model(tmp_path, k=1.0, gamma=0.0)
        out = tmp_path / "traj.csv"
        assert main(
            [
                "propagate", "--model", str(model), "--t-max", "5", "--t-step",
                "0.1", "--u0", "1.0", "--v0", "0.0", "--out", str(out),
            ]
        ) == 0
        _, rows = read_rows(out)
        assert len(rows) == 51
        spec = scalar_spec(1.0, 0.0)
        t = np.arange(0.0, 5.0 + 1e-12, 1e-3)
        oracle = integrate_reference_second_order(spec, KickDrive(np.zeros(1)), [1.0], [0.0], t)
        for cells in rows[:: 10]:
            ti = float(cells[0])
            idx = int(round(ti / 1e-3))
            assert float(cells[1]) == pytest.approx(oracle.u[idx, 0].real, abs=1e-7)


class TestBath:
    def test_rows_and_hermiticity(self, model_file, tmp_path):
        out = tmp_path / "bath.csv"
        assert main(
            [
                "bath", "--model", str(model_file), "--beta", "1.0",
                "--omega-min", "1.0", "--omega-max", "2.0", "--omega-step", "0.5",
                "--out", str(out),
            ]
        ) == 0
        header, rows = read_rows(out)
        assert header == ["omega_eV", "alpha", "beta", "re_gamma", "im_gamma", "re_S", "im_S"]
        assert len(rows) == 3 * 6 * 6
        table = {}
        for cells in rows:
            key = (cells[0], int(cells[1]), int(cells[2]))
            table[key] = complex(float(cells[3]), float(cells[4]))
        for (w, a, b), val in table.items():
            assert val == pytest.approx(np.conj(table[(w, b, a)]), abs=1e-10)


class TestBathMemory:
    def test_traced_peak_stays_below_two_xi(self, tmp_path):
        # Xi is the one F x 2n x 2n tensor the bath command holds: gamma and S
        # are formed one frequency at a time and the checksum streams the file
        from qpmedia import builders, openquantum, spectral

        spec = builders.build_synthetic(40, 1)
        model = tmp_path / "model.json"
        model.write_text(spec_to_json(spec) + "\n", encoding="utf-8")
        grid = _grid(0.05, 2.0, 0.05, "frequency") / HARTREE_TO_EV
        ext, _ = spectral.prepare(spec)
        xi_nbytes = openquantum.thermal_correlation(ext, 1.0, 1.0, grid, 1e-4).xi.nbytes
        assert xi_nbytes >= 4e6
        args = [
            "bath", "--model", str(model), "--beta", "1.0", "--omega-min", "0.05",
            "--omega-max", "2.0", "--omega-step", "0.05", "--out", str(tmp_path / "bath.csv"),
        ]
        tracemalloc.start()
        try:
            assert main(args) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * xi_nbytes


class TestChecksum:
    def test_streamed_digest_equals_the_whole_file_digest(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(np.random.default_rng(5).bytes(2 * _CHECKSUM_BLOCK + 12345))
        assert _checksum(path) == hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class TestField:
    def test_runs_and_writes_sidecar(self, tmp_path):
        from conftest import scalar_spec

        model = tmp_path / "m.json"
        model.write_text(spec_to_json(scalar_spec(2.0, 0.3)) + "\n", encoding="utf-8")
        plane_waves = [
            {"k": [0.01, 0.0, 0.0], "amplitude_re": [0.0, 1.0, 0.0]},
            {
                "k": [0.0, -0.02, 0.5],
                "amplitude_re": [0.25, 0.0, -1.5],
                "amplitude_im": [1.0, 0.0, 2.0],
            },
        ]
        waves = tmp_path / "waves.json"
        waves.write_text(
            json.dumps(
                {
                    "omega_min_ev": 10.0,
                    "omega_max_ev": 20.0,
                    "omega_step_ev": 10.0,
                    "plane_waves": plane_waves,
                    "k_queries": [[0.02, 0.0, 0.0], [0.0, 0.03, 0.0]],
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "field.csv"
        assert main(
            ["field", "--model", str(model), "--waves", str(waves), "--out", str(out)]
        ) == 0
        header, rows = read_rows(out)
        assert len(rows) == 2 * 2
        sidecar = out.with_suffix(out.suffix + ".deltas.json")
        doc = json.loads(sidecar.read_text(encoding="utf-8"))
        assert "similarity_gauge" in doc
        # one term per incident wave: its k and its amplitude at each frequency
        assert len(doc["delta_terms"]) == len(plane_waves)
        for term, wave in zip(doc["delta_terms"], plane_waves):
            assert term["k"] == wave["k"]
            assert term["amplitude_re"] == [wave["amplitude_re"]] * 2
            assert term["amplitude_im"] == [wave.get("amplitude_im", [0.0] * 3)] * 2

    def test_flat_k_queries_rejected(self, model_file, tmp_path, capsys):
        waves = tmp_path / "waves.json"
        waves.write_text(
            json.dumps(
                {
                    "omega_min_ev": 1.0,
                    "omega_max_ev": 2.0,
                    "omega_step_ev": 1.0,
                    "plane_waves": [
                        {"k": [0.01, 0.0, 0.0], "amplitude_re": [0.0, 1.0, 0.0]}
                    ],
                    "k_queries": [0.02, 0.0, 0.0],
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "field.csv"
        code = main(["field", "--model", str(model_file), "--waves", str(waves), "--out", str(out)])
        assert code == 1
        assert "k_queries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("amplitude_re", [float("nan"), 1.0, 0.0], "plane-wave amplitude must be finite"),
            ("amplitude_im", [0.0, float("nan"), 0.0], "plane-wave amplitude must be finite"),
            ("k_queries", [[0.02, 0.0, 0.0], [float("nan"), 0.0, 0.0]], "k_queries must be finite"),
            ("amplitude_re", [float("inf"), 1.0, 0.0], "plane-wave amplitude must be finite"),
            ("amplitude_im", [0.0, float("-inf"), 0.0], "plane-wave amplitude must be finite"),
        ],
    )
    # a numpy warning on the way to the error would be a second stderr line
    @pytest.mark.filterwarnings("error")
    def test_non_finite_field_input_rejected(self, model_file, tmp_path, capsys, key, value, message):
        wave = {"k": [0.01, 0.0, 0.0], "amplitude_re": [0.0, 1.0, 0.0]}
        doc = {
            "omega_min_ev": 1.0,
            "omega_max_ev": 2.0,
            "omega_step_ev": 1.0,
            "plane_waves": [wave],
            "k_queries": [[0.02, 0.0, 0.0]],
        }
        (doc if key == "k_queries" else wave)[key] = value
        waves = tmp_path / "waves.json"
        waves.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "field.csv"
        code = main(["field", "--model", str(model_file), "--waves", str(waves), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not out.exists()
        assert not out.with_suffix(out.suffix + ".deltas.json").exists()


class TestBuildRoundTrip:
    def test_build_then_spectrum(self, tmp_path):
        xyz = tmp_path / "g.xyz"
        xyz.write_text("2\ncluster\nAg 0 0 0\nAg 0 0 2.5\n", encoding="utf-8")
        params = tmp_path / "p.json"
        params.write_text(
            json.dumps(
                {
                    "drude_factor": 0.01,
                    "relaxation": 0.004,
                    "gaussian_width": 2.0,
                    "tunneling": {"enabled": False, "d0": 0.0, "steepness": 1.0},
                }
            ),
            encoding="utf-8",
        )
        model = tmp_path / "m.json"
        assert main(
            ["build", "--xyz", str(xyz), "--params", str(params), "--out", str(model)]
        ) == 0
        out = tmp_path / "s.csv"
        assert main(
            [
                "spectrum", "--model", str(model), "--omega-min", "0.05",
                "--omega-max", "2.0", "--omega-step", "0.05", "--out", str(out),
            ]
        ) == 0
        # re-running from the written model reproduces the file exactly
        first = out.read_bytes()
        assert main(
            [
                "spectrum", "--model", str(model), "--omega-min", "0.05",
                "--omega-max", "2.0", "--omega-step", "0.05", "--out", str(out),
            ]
        ) == 0
        assert out.read_bytes() == first
        # and the file matches the in-memory pipeline on the same model
        from qpmedia.constants import HARTREE_TO_EV
        from qpmedia.medium import KickDrive, spec_from_json
        from qpmedia.response import decompose_modes, reconstruct_spectrum
        from qpmedia.spectral import prepare

        spec = spec_from_json(model.read_text(encoding="utf-8"))
        _, eig = prepare(spec)
        ledger = decompose_modes(eig, spec, KickDrive(np.ones(spec.n)))
        _, rows = read_rows(out)
        grid = np.array([float(r[0]) for r in rows]) / HARTREE_TO_EV
        table = reconstruct_spectrum(ledger, np.arange(ledger.n_modes), grid)
        for cells, val in zip(rows, table.im_alpha):
            assert float(cells[1]) == float(format(val, ".12g"))


class TestCovDump:
    def test_per_sample_files(self, tmp_path):
        model = scalar_model(tmp_path, k=1.0, gamma=0.0)
        out = tmp_path / "traj.csv"
        cov_dir = tmp_path / "covs"
        assert main(
            [
                "propagate", "--model", str(model), "--t-max", "0.4", "--t-step",
                "0.2", "--u0", "1.0", "--out", str(out), "--cov-out", str(cov_dir),
            ]
        ) == 0
        files = sorted(cov_dir.glob("cov_*.csv"))
        assert len(files) == 3
        body = files[0].read_text(encoding="utf-8").splitlines()
        assert body[1].startswith("# t = 0")
        assert len(body) == 2 + 4  # 4x4 covariance


class TestStartup:
    """No qpm command imports scipy, and each loads only the layers it runs."""

    CLI = ["qpmedia", "qpmedia.cli", "qpmedia.constants", "qpmedia.errors", "qpmedia.medium"]

    @staticmethod
    def _modules_after(code, cwd, package):
        """The sorted modules of ``package`` that a child process has loaded after ``code``."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            f"import sys\n{code}\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True,
            check=True,
        )
        return out.stdout.splitlines()[-1]

    @staticmethod
    def _cluster_inputs(cwd):
        """A three-atom geometry ``g.xyz`` and Drude parameters ``p.json`` for ``build``."""
        (cwd / "g.xyz").write_text("3\ncluster\nAg 0 0 0\nAg 0 0 2.5\nAg 0 2.5 0\n", encoding="utf-8")
        params = {"drude_factor": 0.01, "relaxation": 0.004, "gaussian_width": 2.0}
        (cwd / "p.json").write_text(json.dumps(params), encoding="utf-8")

    def test_cli_import_loads_no_scipy(self, tmp_path):
        assert self._modules_after("import qpmedia.cli", tmp_path, "scipy") == "[]"

    def test_build_loads_no_scipy(self, tmp_path):
        self._cluster_inputs(tmp_path)
        code = (
            "from qpmedia.cli import main\n"
            "assert main(['build', '--xyz', 'g.xyz', '--params', 'p.json', '--out', 'm.json']) == 0"
        )
        assert self._modules_after(code, tmp_path, "scipy") == "[]"
        assert (tmp_path / "m.json").exists()

    def test_drude_propagate_loads_no_scipy(self, tmp_path):
        # the disk's zero mode makes J_B defective: exp(J_B t) goes through kappa
        (tmp_path / "disk.json").write_text(spec_to_json(small_drude_disk()) + "\n", encoding="utf-8")
        code = (
            "from qpmedia.cli import main\n"
            "assert main(['propagate', '--model', 'disk.json', '--t-max', '0.2', '--t-step',"
            " '0.1', '--kick', ','.join(['1'] * 7), '--out', 't.csv']) == 0"
        )
        assert self._modules_after(code, tmp_path, "scipy") == "[]"
        assert (tmp_path / "t.csv").exists()

    def test_package_import_loads_no_layer(self, tmp_path):
        assert self._modules_after("import qpmedia", tmp_path, "qpmedia") == "['qpmedia']"

    def test_cli_import_loads_no_layer(self, tmp_path):
        assert self._modules_after("import qpmedia.cli", tmp_path, "qpmedia") == str(self.CLI)

    WINDOW = ["--omega-min", "1", "--omega-max", "2", "--omega-step", "0.5"]
    COMMANDS = {
        "build": (["--xyz", "g.xyz", "--params", "p.json", "--out", "b.json"], ["builders"]),
        "spectrum": (["--model", "m.json", "--out", "o.csv", *WINDOW], ["response", "spectral"]),
        "filter": (
            ["--model", "m.json", "--out", "o.csv", "--mode", "if", "--threshold", "0.1"],
            ["response", "spectral"],
        ),
        "modes": (["--model", "m.json", "--out", "o.csv"], ["spectral"]),
        "propagate": (
            ["--model", "m.json", "--out", "o.csv", "--t-max", "0.2", "--t-step", "0.1",
             "--kick", "1,0,0"],
            ["phasespace", "spectral"],
        ),
        "field": (["--model", "m.json", "--out", "o.csv", "--waves", "w.json"],
                  ["selfconsistent", "spectral"]),
        "bath": (
            ["--model", "m.json", "--out", "o.csv", "--beta", "10", *WINDOW],
            ["openquantum", "phasespace", "selfconsistent", "spectral"],
        ),
    }

    @classmethod
    def _command_inputs(cls, cwd):
        """The files that every command of COMMANDS reads, in ``cwd``."""
        cls._cluster_inputs(cwd)
        (cwd / "m.json").write_text(spec_to_json(stable_spec(seed=777, n=3)) + "\n",
                                    encoding="utf-8")
        waves = {
            "omega_min_ev": 1.0, "omega_max_ev": 2.0, "omega_step_ev": 1.0,
            "plane_waves": [{"k": [0.01, 0.0, 0.0], "amplitude_re": [0.0, 1.0, 0.0]}],
            "k_queries": [[0.02, 0.0, 0.0]],
        }
        (cwd / "w.json").write_text(json.dumps(waves), encoding="utf-8")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_loads_only_its_layers(self, command, tmp_path):
        self._command_inputs(tmp_path)
        argv, layers = self.COMMANDS[command]
        code = f"from qpmedia.cli import main\nassert main({[command, *argv]!r}) == 0"
        loaded = self._modules_after(code, tmp_path, "qpmedia")
        assert loaded == str(sorted(self.CLI + [f"qpmedia.{m}" for m in layers]))
        assert "qpmedia.pseudoboson" not in loaded
        assert "qpmedia.oracles" not in loaded

    def test_layers_load_no_oracles(self, tmp_path):
        code = "import qpmedia.medium, qpmedia.response, qpmedia.spectral"
        assert "qpmedia.oracles" not in self._modules_after(code, tmp_path, "qpmedia")
        # the benchmark still imports these two oracles from their former modules
        from qpmedia import medium, oracles, response

        assert medium.integrate_reference_second_order is oracles.integrate_reference_second_order
        assert response.polarizability_direct is oracles.polarizability_direct

    @pytest.mark.parametrize("command", ["spectrum", "filter", "propagate", "field", "bath"])
    def test_command_builds_no_JB(self, command, tmp_path, monkeypatch):
        # prepare leaves J_B to its first read, and no command reads it
        from qpmedia import oracles

        def unused(ext):
            raise AssertionError(f"qpm {command} built J_B")

        monkeypatch.setattr(oracles, "build_JB", unused)
        self._command_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv, _ = self.COMMANDS[command]
        assert main([command, *argv]) == 0

    @pytest.mark.parametrize("command", ["spectrum", "filter", "modes", "propagate", "field", "bath"])
    def test_one_decomposition_per_command(self, command, tmp_path, monkeypatch):
        # each command decomposes sqrt_kappa once, and only modes builds no A
        from qpmedia import spectral

        calls = {"eigendecompose": 0, "build_similarity": 0}
        for name in calls:
            real = getattr(spectral, name)

            def counting(arg, name=name, real=real):
                calls[name] += 1
                return real(arg)

            monkeypatch.setattr(spectral, name, counting)
        self._command_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv, _ = self.COMMANDS[command]
        assert main([command, *argv]) == 0
        assert calls == {"eigendecompose": 1, "build_similarity": int(command != "modes")}

    @pytest.mark.parametrize("command", ["spectrum", "filter", "modes", "propagate", "field", "bath"])
    def test_kappa_is_formed_only_by_commands_that_read_it(self, command, tmp_path, monkeypatch):
        # kappa is built on its first read, once per operator: only the
        # field and bath sweeps read it
        from qpmedia import spectral

        calls = []
        real = spectral.extended_kernel

        def counting(K, G):
            calls.append(K.shape)
            return real(K, G)

        monkeypatch.setattr(spectral, "extended_kernel", counting)
        self._command_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv, _ = self.COMMANDS[command]
        assert main([command, *argv]) == 0
        assert len(calls) == int(command in ("field", "bath"))


class TestLazyExports:
    """``qpmedia`` resolves each public name from its module on first access."""

    def test_every_public_name_is_its_module_object(self):
        assert len(qpmedia.__all__) == len(set(qpmedia.__all__)) == 56
        for name in qpmedia.__all__:
            module = importlib.import_module(f"qpmedia.{qpmedia._MODULE_OF[name]}")
            assert getattr(qpmedia, name) is getattr(module, name)

    def test_dir_lists_every_public_name(self):
        assert set(qpmedia.__all__) <= set(dir(qpmedia))
        assert "__version__" in dir(qpmedia)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            qpmedia.no_such_name
        with pytest.raises(ImportError):
            from qpmedia import no_such_name  # noqa: F401


class TestVectorArguments:
    """--kick, --u0 and --v0 read a comma list first, else a JSON file."""

    @pytest.fixture
    def model19(self, tmp_path):
        path = tmp_path / "model19.json"
        path.write_text(spec_to_json(stable_spec(seed=19, n=19)) + "\n", encoding="utf-8")
        return path

    def test_kick_list_longer_than_a_file_name(self, model19, tmp_path):
        values = [0.09999999999999998] * 19
        as_list = ",".join(map(repr, values))
        assert len(as_list) > 255
        as_file = tmp_path / "kick.json"
        as_file.write_text(json.dumps(values), encoding="utf-8")
        written = []
        for i, kick in enumerate((as_list, str(as_file))):
            out = tmp_path / f"s{i}.csv"
            assert main(
                [
                    "spectrum", "--model", str(model19), "--omega-min", "0.5",
                    "--omega-max", "3", "--omega-step", "0.5", "--out", str(out),
                    "--kick", kick,
                ]
            ) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_u0_of_wrong_length_rejected(self, model19, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(
            [
                "propagate", "--model", str(model19), "--t-max", "0.2", "--t-step",
                "0.1", "--u0", "1,0,0,0,0", "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: ValueError: u0 must have length 19\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand,flag,value,name",
        [
            ("spectrum", "--kick", "nan,1,1,1", "kick amplitude"),
            ("spectrum", "--kick", [1, None, 1, 1], "kick amplitude"),
            ("filter", "--kick", "1,1,inf,1", "kick amplitude"),
            ("propagate", "--u0", "inf,0,0,0", "u0"),
            ("propagate", "--v0", [0, 0, float("-inf"), 0], "v0"),
        ],
    )
    def test_non_finite_vector_rejected(self, tmp_path, capsys, subcommand, flag, value, name):
        from qpmedia import builders

        model = tmp_path / "model.json"
        model.write_text(spec_to_json(builders.build_synthetic(4, 1)) + "\n", encoding="utf-8")
        if isinstance(value, list):
            vector_file = tmp_path / "vector.json"
            vector_file.write_text(json.dumps(value), encoding="utf-8")
            value = str(vector_file)
        out = tmp_path / "out.csv"
        rest = {
            "spectrum": ["--omega-min", "0.5", "--omega-max", "1", "--omega-step", "0.5"],
            "filter": ["--mode", "if", "--threshold", "0.05"],
            "propagate": ["--t-max", "0.2", "--t-step", "0.1"],
        }[subcommand]
        code = main([subcommand, "--model", str(model), "--out", str(out), *rest, flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"error: ValueError: {name} entries must be finite\n"
        assert not out.exists()


class TestPropagateFallback:
    """qpm propagate on a defective J_B is as silent as on any other medium."""

    @staticmethod
    def _propagate(model, tmp_path):
        out = tmp_path / "traj.csv"
        argv = ["propagate", "--model", str(model), "--t-max", "0.2", "--t-step", "0.1"]
        code = main([*argv, "--kick", ",".join(["1"] * 7), "--out", str(out)])
        return code, out

    def test_zero_mode_medium_matches_oracle(self, tmp_path, capsys):
        from qpmedia.medium import KickDrive
        from qpmedia.oracles import integrate_reference_second_order

        spec = small_drude_disk()
        model = tmp_path / "disk.json"
        model.write_text(spec_to_json(spec) + "\n", encoding="utf-8")
        code, out = self._propagate(model, tmp_path)
        assert code == 0 and out.exists()
        assert capsys.readouterr().err == ""
        table = np.loadtxt(out, delimiter=",", skiprows=2)
        u = table[:, 1:15:2] + 1j * table[:, 2:15:2]
        fine = np.arange(0.0, 0.2 + 1e-12, 1e-3)
        zeros = np.zeros(7)
        oracle = integrate_reference_second_order(spec, KickDrive(np.ones(7)), zeros, zeros, fine)
        want = oracle.u[::100]
        assert np.abs(u - want).max() <= 1e-10 * np.abs(want).max()

    def test_subnormal_time_step_is_finite(self, tmp_path, capsys):
        # sin(mu t) / mu by a complex division once overflowed at t = 1e-300: a NaN row
        model = tmp_path / "disk.json"
        model.write_text(spec_to_json(small_drude_disk()) + "\n", encoding="utf-8")
        out = tmp_path / "t.csv"
        argv = ["propagate", "--model", str(model), "--t-max", "1e-300", "--t-step", "1e-300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*argv, "--kick", "1,0,0,0,0,0,0", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        table = np.loadtxt(out, delimiter=",", skiprows=2)
        assert table.shape == (2, 29) and np.isfinite(table).all()
        assert table[1, 0] == 1e-300 and np.abs(table[:, 1:]).max() <= 1e-290

    def test_synthetic_medium_is_silent(self, tmp_path, capsys):
        from qpmedia import builders

        model = tmp_path / "synthetic.json"
        model.write_text(spec_to_json(builders.build_synthetic(7, 1)) + "\n", encoding="utf-8")
        code, out = self._propagate(model, tmp_path)
        assert code == 0 and out.exists()
        assert capsys.readouterr().err == ""


# every option of every subcommand, in --help order:
# (flags, dest, type, default, required, choices)
_PARSER_GOLDEN = {
    "build": [
        (("--xyz",), "xyz", None, None, True, None),
        (("--params",), "params", None, None, True, None),
        (("--response-axis",), "response_axis", None, "z", False, ("x", "y", "z")),
        (("--out",), "out", None, None, True, None),
    ],
    "spectrum": [
        (("--model",), "model", None, None, True, None),
        (("--out",), "out", None, None, True, None),
        (("--omega-min",), "omega_min", float, None, True, None),
        (("--omega-max",), "omega_max", float, None, True, None),
        (("--omega-step",), "omega_step", float, None, True, None),
        (("--kick",), "kick", None, None, False, None),
        (("--svg",), "svg", None, None, False, None),
    ],
    "modes": [
        (("--model",), "model", None, None, True, None),
        (("--out",), "out", None, None, True, None),
        (("--vectors",), "vectors", None, None, False, None),
    ],
    "filter": [
        (("--model",), "model", None, None, True, None),
        (("--out",), "out", None, None, True, None),
        (("--mode",), "filter_mode", None, None, True, ("if", "ef")),
        (("--threshold",), "threshold", float, None, False, None),
        (("--omega-lo",), "window_lo", float, None, False, None),
        (("--omega-hi",), "window_hi", float, None, False, None),
        (("--kick",), "kick", None, None, False, None),
    ],
    "propagate": [
        (("--model",), "model", None, None, True, None),
        (("--out",), "out", None, None, True, None),
        (("--t-max",), "t_max", float, None, True, None),
        (("--t-step",), "t_step", float, None, True, None),
        (("--u0",), "u0", None, None, False, None),
        (("--v0",), "v0", None, None, False, None),
        (("--kick",), "kick", None, None, False, None),
        (("--hbar",), "hbar", float, 1.0, False, None),
        (("--cov-out",), "cov_out", None, None, False, None),
    ],
    "field": [
        (("--model",), "model", None, None, True, None),
        (("--out",), "out", None, None, True, None),
        (("--waves",), "waves", None, None, True, None),
    ],
    "bath": [
        (("--model",), "model", None, None, True, None),
        (("--out",), "out", None, None, True, None),
        (("--beta",), "beta", float, None, True, None),
        (("--hbar",), "hbar", float, 1.0, False, None),
        (("--eta",), "eta", float, 1e-4, False, None),
        (("--omega-min",), "omega_min", float, None, True, None),
        (("--omega-max",), "omega_max", float, None, True, None),
        (("--omega-step",), "omega_step", float, None, True, None),
    ],
}


class TestParser:
    def test_options_match_golden(self):
        import argparse

        from qpmedia.cli import _build_parser

        (sub,) = (
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        options = {
            name: [
                (tuple(a.option_strings), a.dest, a.type, a.default, a.required, a.choices)
                for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
            ]
            for name, parser in sub.choices.items()
        }
        assert list(options.items()) == list(_PARSER_GOLDEN.items())

    @pytest.mark.parametrize("subcommand", list(_PARSER_GOLDEN))
    def test_help_exits_zero(self, subcommand, capsys):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: qpm {subcommand} ")


_WAVE = {"k": [0.01, 0.0, 0.0], "amplitude_re": [0.0, 1.0, 0.0]}


class TestErrors:
    def test_structured_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out = tmp_path / "s.csv"
        code = main(
            [
                "spectrum", "--model", str(bad), "--omega-min", "0",
                "--omega-max", "1", "--omega-step", "0.1", "--out", str(out),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "window",
        [
            ("2", "1", "0.1"),
            ("1", "1", "0"),
            ("1", "2", "-0.1"),
            ("1", "nan", "0.1"),
            ("-inf", "1", "0.1"),
            ("-1e308", "1e308", "1"),
            ("0", "1", "1e-300"),
        ],
    )
    @pytest.mark.parametrize("subcommand", ["spectrum", "bath"])
    def test_empty_or_inverted_grid_rejected(self, model_file, tmp_path, capsys, subcommand, window):
        lo, hi, step = window
        out = tmp_path / "out.csv"
        extra = ["--beta", "1.0"] if subcommand == "bath" else []
        code = main(
            [
                subcommand, "--model", str(model_file), f"--omega-min={lo}",
                f"--omega-max={hi}", f"--omega-step={step}", "--out", str(out), *extra,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ")
        assert "frequency" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "t_max,t_step",
        [("-1", "0.1"), ("inf", "0.1"), ("nan", "0.1"), ("1", "0"), ("1", "inf"), ("1e300", "1e-10")],
    )
    def test_bad_time_grid_rejected(self, model_file, tmp_path, capsys, t_max, t_step):
        out = tmp_path / "traj.csv"
        cov_dir = tmp_path / "covs"
        code = main(
            [
                "propagate", "--model", str(model_file), f"--t-max={t_max}",
                f"--t-step={t_step}", "--out", str(out), "--cov-out", str(cov_dir),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ")
        assert "time" in err
        assert not out.exists() and not cov_dir.exists()

    @pytest.mark.parametrize(
        "subcommand,flags,name",
        [
            ("bath", ["--beta", "1", "--eta=-1e-4"], "eta"),
            ("bath", ["--beta", "1", "--eta", "nan"], "eta"),
            ("bath", ["--beta", "nan"], "beta"),
            ("bath", ["--beta", "inf"], "beta"),
            ("bath", ["--beta", "1", "--hbar", "nan"], "hbar"),
            ("bath", ["--beta", "1", "--hbar=-1"], "hbar"),
            ("propagate", ["--hbar", "nan"], "hbar"),
        ],
    )
    def test_ill_posed_physical_parameter_rejected(
        self, model_file, tmp_path, capsys, monkeypatch, subcommand, flags, name
    ):
        from qpmedia import spectral

        def no_decomposition(spec):
            raise AssertionError("spectral.prepare ran before the parameter was checked")

        monkeypatch.setattr(spectral, "prepare", no_decomposition)
        out = tmp_path / "out.csv"
        cov_dir = tmp_path / "covs"
        window = {
            "bath": ["--omega-min", "1", "--omega-max", "2", "--omega-step", "0.5"],
            "propagate": ["--t-max", "0.2", "--t-step", "0.1", "--cov-out", str(cov_dir)],
        }[subcommand]
        code = main([subcommand, "--model", str(model_file), "--out", str(out), *window, *flags])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: ValueError: {name} must be")
        assert not out.exists() and not cov_dir.exists()

    @pytest.mark.parametrize("n", [0, 2.5, -1, True, "2"])
    def test_malformed_medium_size_rejected(self, tmp_path, capsys, n):
        doc = json.loads(spec_to_json(stable_spec(seed=3, n=2)))
        doc["n"] = n
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "s.csv"
        code = main(
            [
                "spectrum", "--model", str(model), "--omega-min", "0",
                "--omega-max", "1", "--omega-step", "0.1", "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: model n must be an integer")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("gen_coord_vector", float("nan")),
            ("covariances", float("inf")),
            ("covariances", float("nan")),
            ("coords", float("-inf")),
        ],
        ids=["nan-gen_coord_vector", "inf-covariances", "nan-covariances", "inf-coords"],
    )
    def test_non_finite_model_entries_rejected(self, tmp_path, capsys, key, value):
        doc = json.loads(spec_to_json(stable_spec(seed=3, n=2)))
        doc[key] = [value] * len(doc[key])
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "s.csv"
        code = main(
            [
                "spectrum", "--model", str(model), "--omega-min", "0",
                "--omega-max", "1", "--omega-step", "0.1", "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: ValueError: {key} contains non-finite entries\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "target,edit,name",
        [
            ("model", {"kernel_re": {"a": 1}}, "kernel_re must be a number"),
            ("model", {"source_kind": 5}, "source_kind"),
            ("model", None, "model file"),
            ("waves", {"plane_waves": 5}, "plane_waves"),
            ("waves", {"omega_min_ev": "1"}, "omega_min_ev must be a number"),
            ("kick", None, "kick amplitude must be a list of numbers"),
            ("model", {"coords": [0.0, 1.0]}, "coords must hold 6 number(s), got 2"),
            ("model", {"damping_im": [[0.0, 0.0], [0.0]]}, "damping_im must be a number"),
            ("model", {"gen_coord_vector": ["1", "2"]}, "gen_coord_vector must be a number"),
            ("model", {"covariances": [True] * 18}, "covariances must be a number"),
            ("waves", {"omega_step_ev": [0.5, 1.0]}, "omega_step_ev must hold 1 number(s), got 2"),
            ("waves", {"k_queries": "[0, 0, 1]"}, "k_queries must be a number"),
            ("waves", {"plane_waves": [{**_WAVE, "k": [0.01, 0.0]}]}, "k must hold 3"),
            ("waves", {"plane_waves": [{**_WAVE, "amplitude_re": None}]}, "amplitude_re"),
            ("waves", {"plane_waves": [{**_WAVE, "amplitude_im": {}}]}, "amplitude_im must be"),
            ("waves", {"plane_waves": [{**_WAVE, "amplitude_re": [0.0, 1.0]}]}, "amplitude must"),
            ("waves", None, "a waves file must hold a JSON object"),
            ("waves", {"plane_waves": [5]}, "each entry of plane_waves must hold a JSON object"),
        ],
        ids=[
            "model-edit0", "model-edit1", "model-None", "waves-edit3", "waves-edit4", "kick-None",
            "coords-count", "ragged-damping_im", "string-gen_coord_vector", "bool-covariances",
            "list-omega_step_ev", "string-k_queries", "short-k", "null-amplitude_re",
            "object-amplitude_im", "short-amplitude_re", "waves-None", "int-plane_wave",
        ],
    )
    def test_wrongly_typed_json_rejected(self, tmp_path, capsys, target, edit, name):
        model_doc = json.loads(spec_to_json(stable_spec(seed=3, n=2)))
        waves_doc = {
            "omega_min_ev": 1.0,
            "omega_max_ev": 2.0,
            "omega_step_ev": 1.0,
            "plane_waves": [{"k": [0.01, 0.0, 0.0], "amplitude_re": [0.0, 1.0, 0.0]}],
            "k_queries": [[0.02, 0.0, 0.0]],
        }
        if target == "model":
            model_doc = [model_doc] if edit is None else {**model_doc, **edit}
        elif target == "waves":
            waves_doc = [waves_doc] if edit is None else {**waves_doc, **edit}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_doc), encoding="utf-8")
        out = tmp_path / "out.csv"
        if target == "waves":
            waves = tmp_path / "waves.json"
            waves.write_text(json.dumps(waves_doc), encoding="utf-8")
            argv = ["field", "--waves", str(waves)]
        else:
            argv = ["spectrum", "--omega-min", "0", "--omega-max", "1", "--omega-step", "0.5"]
            if target == "kick":
                kick = tmp_path / "kick.json"
                kick.write_text(json.dumps({"a": 1}), encoding="utf-8")
                argv += ["--kick", str(kick)]
        code = main([*argv, "--model", str(model), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[]", "a parameter file must hold a JSON object"),
            ('{"tunneling": [1]}', "tunneling must hold a JSON object"),
            ('{"drude_factor": "abc"}', "drude_factor must be a number or a list of numbers"),
            ('{"relaxation": "x"}', "relaxation must be a number or a list of numbers"),
            ('{"relaxation": true}', "relaxation must be a number or a list of numbers"),
            ('{"gaussian_width": [2.4, 2.4]}', "gaussian_width must hold 1 number(s), got 2"),
            ('{"tunneling": {"d0": "six"}}', "d0 must be a number or a list of numbers"),
            ('{"tunneling": {"steepness": null}}', "steepness must be a number or a list"),
            ('{"tunneling": {"enabled": "no"}}', "tunneling enabled must be true or false"),
            ('{"relaxation": NaN}', "relaxation must be finite"),
            ('{"gaussian_width": Infinity}', "gaussian_width must be finite"),
            ('{"drude_factor": [0.008, -Infinity]}', "drude_factor must be finite"),
            ('{"drude_factor": [0.008, 0.008, 0.008]}', "drude_factor must be one number or one per"),
            ('{"tunneling": {"d0": NaN}}', "tunneling_d0 must be finite"),
        ],
        ids=[
            "list-file", "list-tunneling", "string-drude_factor", "string-relaxation",
            "bool-relaxation", "list-gaussian_width", "string-d0", "null-steepness",
            "string-enabled", "nan-relaxation", "inf-gaussian_width", "inf-drude_factor",
            "long-drude_factor", "nan-d0",
        ],
    )
    def test_malformed_params_rejected(self, tmp_path, capsys, text, message):
        xyz = tmp_path / "g.xyz"
        xyz.write_text("2\ncluster\nAg 0 0 0\nAg 0 0 2.5\n", encoding="utf-8")
        valid = {
            "drude_factor": 0.008,
            "relaxation": 0.004,
            "gaussian_width": 2.4,
            "tunneling": {"enabled": True, "d0": 6.0, "steepness": 10.0},
        }
        # an edit object replaces one key of the valid file, or one key of its tunneling
        doc = json.loads(text)
        if isinstance(doc, dict):
            tunneling = doc.get("tunneling", {})
            if isinstance(tunneling, dict):
                doc["tunneling"] = {**valid["tunneling"], **tunneling}
            doc = {**valid, **doc}
        params = tmp_path / "p.json"
        params.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "model.json"
        code = main(["build", "--xyz", str(xyz), "--params", str(params), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_grid_too_large_to_allocate_rejected(self, model_file, tmp_path):
        # about 1e18 points (8 EiB), more than a 64-bit address space holds, so
        # the allocation fails at once whatever the overcommit setting
        out = tmp_path / "s.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "qpmedia.cli", "spectrum", "--model", str(model_file),
                "--omega-min", "0", "--omega-max", "7", "--omega-step", "7e-18", "--out", str(out),
            ],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: MemoryError: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum"])  # missing required flags
        assert exc.value.code == 2

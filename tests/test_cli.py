import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import stable_spec
from qpmedia.cli import main
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
        from qpmedia.medium import integrate_reference_second_order, zero_drive

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
        oracle = integrate_reference_second_order(spec, zero_drive(1), [1.0], [0.0], t)
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


class TestField:
    def test_runs_and_writes_sidecar(self, tmp_path):
        from conftest import scalar_spec

        model = tmp_path / "m.json"
        model.write_text(spec_to_json(scalar_spec(2.0, 0.3)) + "\n", encoding="utf-8")
        waves = tmp_path / "waves.json"
        waves.write_text(
            json.dumps(
                {
                    "omega_min_ev": 10.0,
                    "omega_max_ev": 20.0,
                    "omega_step_ev": 10.0,
                    "plane_waves": [
                        {"k": [0.01, 0.0, 0.0], "amplitude_re": [0.0, 1.0, 0.0]}
                    ],
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
        assert len(doc["delta_terms"]) == 1
        assert "similarity_gauge" in doc

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
        ],
    )
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
    def test_cli_import_loads_no_scipy(self):
        # scipy is imported only by qpm build and the expm fallback
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, qpmedia.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


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
    """qpm propagate names the expm fallback of a defective J_B on stderr."""

    @staticmethod
    def _propagate(model, tmp_path):
        out = tmp_path / "traj.csv"
        argv = ["propagate", "--model", str(model), "--t-max", "0.2", "--t-step", "0.1"]
        code = main([*argv, "--kick", ",".join(["1"] * 7), "--out", str(out)])
        return code, out

    def test_zero_mode_medium_warns_once(self, tmp_path, capsys):
        from qpmedia import builders

        params = builders.DrudeParams(
            drude_factor=0.008, relaxation=0.004, gaussian_width=2.4,
            tunneling_enabled=True, tunneling_d0=6.0, tunneling_steepness=10.0,
        )
        spec = builders.build_drude_charge_model(
            builders.hexagonal_disk(4.0, 2.434), params, response_axis=0
        )
        assert spec.n == 7
        model = tmp_path / "disk.json"
        model.write_text(spec_to_json(spec) + "\n", encoding="utf-8")
        code, out = self._propagate(model, tmp_path)
        assert code == 0 and out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: ")
        assert "scipy.linalg.expm" in err[0]

    def test_synthetic_medium_is_silent(self, tmp_path, capsys):
        from qpmedia import builders

        model = tmp_path / "synthetic.json"
        model.write_text(spec_to_json(builders.build_synthetic(7, 1)) + "\n", encoding="utf-8")
        code, out = self._propagate(model, tmp_path)
        assert code == 0 and out.exists()
        assert capsys.readouterr().err == ""


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
        "t_max,t_step", [("-1", "0.1"), ("inf", "0.1"), ("nan", "0.1"), ("1", "0"), ("1", "inf")]
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
        self, model_file, tmp_path, capsys, subcommand, flags, name
    ):
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
        "target,edit",
        [
            ("model", {"kernel_re": {"a": 1}}),
            ("model", {"source_kind": 5}),
            ("model", None),
            ("waves", {"plane_waves": 5}),
            ("waves", {"omega_min_ev": "1"}),
            ("kick", None),
        ],
    )
    def test_wrongly_typed_json_rejected(self, tmp_path, capsys, target, edit):
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
            waves_doc.update(edit)
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
        assert not out.exists()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum"])  # missing required flags
        assert exc.value.code == 2

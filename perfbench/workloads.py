"""The benchmark workloads: seeded inputs, the qpm commands of one pass, and
a check of every output against an oracle that the package already has.

The program only sees the files written here.  Every random choice comes
from the workload seed.  Oracles are computed once per run, after set-up
and outside every timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qpmedia.constants import HARTREE_TO_EV

# the README's drude.json
DRUDE_PARAMS = {
    "drude_factor": 0.008,
    "relaxation": 0.004,
    "gaussian_width": 2.4,
    "tunneling": {"enabled": True, "d0": 6.0, "steepness": 10.0},
}
DISK_SPACING = 2.434
# criterion 11 of the acceptance suite: reconstruction within 1e-8 of peak
REL_TOL = 1e-8
# spectrum window of disk-spectrum, also used for the zero-mode report
SPECTRUM_WINDOW = (0.01, 7.0)


@dataclass(frozen=True)
class Command:
    """One qpm invocation of a pass; ``name`` prefixes its metrics."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]


def grid_ev(lo: float, hi: float, step: float) -> np.ndarray:
    """The frequency grid qpm builds from --omega-min/--omega-max/--omega-step."""
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def load_csv(path: Path) -> np.ndarray:
    """A qpm table without its unit comment and header lines."""
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def rel_err(got, want) -> float:
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(np.asarray(got) - want))) / max(scale, 1e-300)


def _err_check(label: str, got, want, tol: float = REL_TOL) -> list[str]:
    err = rel_err(got, want)
    return [] if err <= tol else [f"{label}: relative error {err:.3e} > {tol:.0e}"]


def _sample(count: int, wanted: int) -> np.ndarray:
    return np.unique(np.linspace(0, count - 1, min(wanted, count)).round().astype(int))


def _same_medium(got, want) -> list[str]:
    for field in ("kernel", "damping", "gen_coord_vector", "coords"):
        a, b = getattr(got, field), getattr(want, field)
        if a.shape != b.shape or rel_err(a, b) > 1e-12:
            return [f"model file differs from the seeded medium in {field}"]
    return []


class Workload:
    """Inputs, set-up, one pass and checks of one workload in ``work``."""

    name = ""
    SIZES: dict[str, dict] = {}

    def __init__(self, work: Path, seed: int, size: str = "full"):
        self.work = Path(work)
        self.seed = seed
        self.p = self.SIZES[size]
        self.model = self.work / "model.json"

    def path(self, name: str) -> Path:
        return self.work / name

    # seeded inputs (untimed) and the oracle-side medium
    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup_argv(self, python: str, bench_dir: Path, out: Path) -> list[str]:
        """The set-up process: seeded inputs -> model file ``out``."""
        raise NotImplementedError

    def setup_in_process(self, run_cli) -> tuple[int, str]:
        """Set up in this process; ``run_cli`` runs ``qpm`` arguments in-process."""
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def prepare_checks(self) -> list[str]:
        """Load the model set-up wrote, check it, and compute the oracles."""
        from qpmedia.medium import spec_from_json

        self.spec = spec_from_json(self.model.read_text(encoding="utf-8"))
        return _same_medium(self.spec, self.ref_spec)

    def check_model(self, path: Path) -> list[str]:
        """Failures of a model file written by a repeated set-up."""
        from qpmedia.medium import spec_from_json

        try:
            spec = spec_from_json(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError) as exc:
            return [f"set-up: unreadable model file: {exc}"]
        return _same_medium(spec, self.ref_spec)

    def check(self, cmd: Command) -> list[str]:
        """Failures found in the outputs of one command."""
        return getattr(self, f"check_{cmd.name}")(cmd)

    def zero_mode_rel_err(self, run_cli) -> float:
        """Default (all-ones) kick ``qpm spectrum`` against the dense-LU oracle.

        A known defect on charge-conserving media: that kick excites only
        the zero mode.  Reported, never gated.
        """
        from qpmedia.medium import KickDrive
        from qpmedia.response import polarizability_direct

        step = self.p.get("omega_step", 0.01)
        out = self.path("default_kick_spectrum.csv")
        run_cli(
            [
                "spectrum", "--model", str(self.model),
                "--omega-min", repr(SPECTRUM_WINDOW[0]),
                "--omega-max", repr(SPECTRUM_WINDOW[1]),
                "--omega-step", repr(step), "--out", str(out),
            ]
        )
        grid = grid_ev(*SPECTRUM_WINDOW, step)
        ones = KickDrive(np.ones(self.spec.n, dtype=complex))
        direct = polarizability_direct(self.spec, ones, grid / HARTREE_TO_EV)
        return rel_err(load_csv(out)[:, 1], direct.im_alpha)


class DiskSpectrum(Workload):
    name = "disk-spectrum"
    SIZES = {
        "full": {"radius": 20.0, "omega_step": 0.01},
        "smoke": {"radius": 6.0, "omega_step": 0.1},
    }

    def make_inputs(self) -> None:
        from qpmedia import builders, response, spectral
        from qpmedia.medium import KickDrive

        rng = np.random.default_rng(self.seed)
        theta = rng.uniform(-math.pi / 4, math.pi / 4)
        geom = builders.hexagonal_disk(self.p["radius"], DISK_SPACING)
        lines = [str(geom.natoms), "hexagonal disk"]
        lines += [
            f"{sym} {float(x)!r} {float(y)!r} {float(z)!r}"
            for sym, (x, y, z) in zip(geom.symbols, geom.positions.T)
        ]
        self.path("disk.xyz").write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.path("drude.json").write_text(json.dumps(DRUDE_PARAMS), encoding="utf-8")
        params = builders.DrudeParams.from_json(json.dumps(DRUDE_PARAMS))
        # in-plane field kick; the response axis is x, so keep |theta| <= 45 deg
        self.kick = builders.uniform_field_kick(
            geom, params, direction=(math.cos(theta), math.sin(theta), 0.0)
        )
        self.path("kick.json").write_text(json.dumps(self.kick.tolist()), encoding="utf-8")
        self.ref_spec = builders.build_drude_charge_model(geom, params, response_axis=0)
        # intercept threshold in a gap of |Re I| near the top tenth of modes
        eig = spectral.eigendecompose(spectral.build_sqrt_kappa(self.ref_spec))
        ledger = response.decompose_modes(eig, self.ref_spec, KickDrive(self.kick))
        mags = np.sort(np.abs(ledger.intercept.real))[::-1]
        target = round(0.1 * mags.size)
        for k in sorted(range(1, mags.size), key=lambda k: abs(k - target)):
            if mags[k - 1] > (1.0 + 1e-3) * mags[k]:
                break
        self.selected = k
        self.threshold = math.sqrt(mags[k - 1] * mags[k])

    def setup_argv(self, python, bench_dir, out):
        return [python, "-m", "qpmedia.cli", *self._build_args(out)]

    def _build_args(self, out):
        return [
            "build", "--xyz", str(self.path("disk.xyz")),
            "--params", str(self.path("drude.json")),
            "--response-axis", "x", "--out", str(out),
        ]

    def setup_in_process(self, run_cli):
        return run_cli(self._build_args(self.model))

    def commands(self):
        step = self.p["omega_step"]
        spectrum, report = self.path("spectrum.csv"), self.path("filter.csv")
        common = ["--model", str(self.model), "--kick", str(self.path("kick.json"))]
        return [
            Command(
                "spectrum",
                ("spectrum", *common, "--omega-min", repr(SPECTRUM_WINDOW[0]),
                 "--omega-max", repr(SPECTRUM_WINDOW[1]), "--omega-step", repr(step),
                 "--out", str(spectrum)),
                (spectrum,),
            ),
            Command(
                "filter",
                ("filter", *common, "--mode", "if", "--threshold", repr(self.threshold),
                 "--out", str(report)),
                (report,),
            ),
        ]

    def prepare_checks(self):
        from qpmedia.medium import KickDrive
        from qpmedia.response import polarizability_direct

        failures = super().prepare_checks()
        self.grid = grid_ev(*SPECTRUM_WINDOW, self.p["omega_step"])
        self.sub = _sample(self.grid.size, 20)
        self.direct = polarizability_direct(
            self.spec, KickDrive(self.kick), self.grid[self.sub] / HARTREE_TO_EV
        ).im_alpha
        return failures

    def check_spectrum(self, cmd):
        data = load_csv(cmd.outputs[0])
        if data.shape != (self.grid.size, 4):
            return [f"spectrum: table shape {data.shape}"]
        failures = _err_check("spectrum grid", data[:, 0], self.grid, 1e-9)
        failures += _err_check("spectrum vs polarizability_direct", data[self.sub, 1], self.direct)
        failures += _err_check("spectrum columns", data[:, 2] + data[:, 3], data[:, 1], 1e-9)
        return failures

    def check_filter(self, cmd):
        data = load_csv(cmd.outputs[0])
        if data.shape != (2 * self.spec.n, 5):
            return [f"filter: table shape {data.shape}"]
        flags = data[:, 4] == 1
        if not np.array_equal(flags, np.abs(data[:, 3]) > self.threshold):
            return ["filter: selection flags disagree with the listed intercepts"]
        if flags.sum() != self.selected:
            return [f"filter: selected {int(flags.sum())} modes, expected {self.selected}"]
        return []


class SyntheticWorkload(Workload):
    """Set-up shared by the synthetic media: ``build_synthetic(n, seed)``."""

    def make_inputs(self) -> None:
        from qpmedia import builders

        self.ref_spec = builders.build_synthetic(self.p["n"], self.seed)

    def setup_argv(self, python, bench_dir, out):
        return [
            python, str(bench_dir / "make_synthetic.py"), "--n", str(self.p["n"]),
            "--seed", str(self.seed), "--out", str(out),
        ]

    def setup_in_process(self, run_cli):
        from make_synthetic import write_model

        write_model(self.p["n"], self.seed, self.model)
        return 0, ""


class SyntheticBath(SyntheticWorkload):
    name = "synthetic-bath"
    SIZES = {
        "full": {"n": 64, "omega": (0.1, 2.1, 0.1)},
        "smoke": {"n": 6, "omega": (0.1, 0.5, 0.1)},
    }
    BETA, ETA = 1.0, 1e-4

    def commands(self):
        lo, hi, step = self.p["omega"]
        out = self.path("bath.csv")
        return [
            Command(
                "bath",
                ("bath", "--model", str(self.model), "--beta", repr(self.BETA),
                 "--eta", repr(self.ETA), "--omega-min", repr(lo), "--omega-max", repr(hi),
                 "--omega-step", repr(step), "--out", str(out)),
                (out,),
            )
        ]

    def prepare_checks(self):
        from qpmedia.openquantum import correlation_frequency
        from qpmedia.phasespace import thermal_state
        from qpmedia.spectral import prepare

        failures = super().prepare_checks()
        self.grid = grid_ev(*self.p["omega"])
        self.sub = _sample(self.grid.size, 3)
        ext, _ = prepare(self.spec)
        # second route: thermal Gaussian state, then the generic transform
        corr = correlation_frequency(
            ext, thermal_state(ext, self.BETA, 1.0), self.grid[self.sub] / HARTREE_TO_EV, self.ETA
        )
        self.oracle = corr.gamma, corr.s_ls
        return failures

    def check_bath(self, cmd):
        lines = cmd.outputs[0].read_text(encoding="utf-8").splitlines()
        m = 2 * self.spec.n
        if len(lines) != 2 + self.grid.size * m * m:
            return [f"bath: {len(lines) - 2} rows"]
        failures = []
        for j, iw in enumerate(self.sub):
            block = lines[2 + iw * m * m : 2 + (iw + 1) * m * m]
            rows = np.array([line.split(",") for line in block], dtype=float)
            gamma = (rows[:, 3] + 1j * rows[:, 4]).reshape(m, m)
            s_ls = (rows[:, 5] + 1j * rows[:, 6]).reshape(m, m)
            want = np.stack([self.oracle[0][j], self.oracle[1][j]])
            failures += _err_check(f"bath at {self.grid[iw]:g} eV", np.stack([gamma, s_ls]), want)
            failures += _err_check("bath grid", rows[:, 0], self.grid[iw], 1e-9)
        return failures


class SyntheticDynamics(SyntheticWorkload):
    name = "synthetic-dynamics"
    SIZES = {
        "full": {"n": 40, "t_max": 0.5, "t_step": 0.05, "omega": (1.0, 60.0, 0.5), "k": 16},
        "smoke": {"n": 5, "t_max": 0.2, "t_step": 0.05, "omega": (1.0, 5.0, 1.0), "k": 3},
    }
    WAVES = 2
    REF_STEP = 1e-3

    def make_inputs(self) -> None:
        super().make_inputs()
        n = self.p["n"]
        self.path("kick.json").write_text(json.dumps([1.0] * n), encoding="utf-8")
        rng = np.random.default_rng([self.seed, 1])

        def directions(count):
            v = rng.standard_normal((count, 3))
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        # |k| of the queries stays off the light cone up to 60 eV (|k| > 0.017)
        k_queries = directions(self.p["k"]) * rng.uniform(0.03, 0.3, (self.p["k"], 1))
        k_waves = directions(self.WAVES) * rng.uniform(0.01, 0.1, (self.WAVES, 1))
        lo, hi, step = self.p["omega"]
        self.waves = {
            "omega_min_ev": lo,
            "omega_max_ev": hi,
            "omega_step_ev": step,
            "plane_waves": [
                {
                    "k": k.tolist(),
                    "amplitude_re": rng.standard_normal(3).tolist(),
                    "amplitude_im": rng.standard_normal(3).tolist(),
                }
                for k in k_waves
            ],
            "k_queries": k_queries.tolist(),
        }
        self.path("waves.json").write_text(json.dumps(self.waves), encoding="utf-8")

    def commands(self):
        n = self.p["n"]
        traj, field = self.path("trajectory.csv"), self.path("field.csv")
        u0 = ",".join(["1"] + ["0"] * (n - 1))
        return [
            Command(
                "propagate",
                ("propagate", "--model", str(self.model), "--t-max", repr(self.p["t_max"]),
                 "--t-step", repr(self.p["t_step"]), "--u0", u0,
                 "--kick", str(self.path("kick.json")), "--out", str(traj)),
                (traj,),
            ),
            Command(
                "field",
                ("field", "--model", str(self.model), "--waves", str(self.path("waves.json")),
                 "--out", str(field)),
                (field, field.with_suffix(".csv.deltas.json")),
            ),
        ]

    def prepare_checks(self):
        from qpmedia.medium import KickDrive, integrate_reference_second_order
        from qpmedia.spectral import prepare

        failures = super().prepare_checks()
        n = self.spec.n
        # propagate oracle: fine-step RK4 of the second-order equation
        t_step, t_max = self.p["t_step"], self.p["t_max"]
        samples = int(np.floor(t_max / t_step + 1e-9)) + 1
        sub = int(round(t_step / self.REF_STEP))
        t_fine = (t_step / sub) * np.arange((samples - 1) * sub + 1)
        e1 = np.eye(n)[0]
        ref = integrate_reference_second_order(
            self.spec, KickDrive(np.ones(n)), e1, np.zeros(n), t_fine
        )
        self.t_grid = t_step * np.arange(samples)
        self.traj = np.hstack([ref.u[::sub], ref.v[::sub]])
        # field oracle: explicit resolvent inverse, assembled term by term
        self.omega = grid_ev(*self.p["omega"])
        self.field_sub = _sample(self.omega.size, 3)
        ext, _ = prepare(self.spec)
        self.field = [self._field_at(ext, self.omega[i] / HARTREE_TO_EV) for i in self.field_sub]
        return failures

    def _field_at(self, ext, w):
        from qpmedia.selfconsistent import auxiliary_response, gaussian_ft, green_tensor

        spec, n = self.spec, self.spec.n
        big = 4 * n
        resolvent = np.linalg.inv(w * np.eye(big) + 1j * ext.gen_JB)
        rows = resolvent[2 * n : 3 * n]
        coupling = rows[:, :n] + rows[:, n : 2 * n] @ auxiliary_response(ext, w)

        def weighted(k):
            g = np.array([gaussian_ft(k, spec.coords[:, b], spec.covariances[b]) for b in range(n)])
            return spec.coords * g[None, :]

        out = []
        for kq in self.waves["k_queries"]:
            total = np.zeros(3, dtype=complex)
            for wave in self.waves["plane_waves"]:
                amp = np.asarray(wave["amplitude_re"]) + 1j * np.asarray(wave["amplitude_im"])
                kernel = (1j / (2 * np.pi) ** 3) * coupling @ weighted(-np.asarray(wave["k"])).T
                total += green_tensor(kq, w) @ weighted(kq) @ (kernel @ amp)
            out.append(total)
        return np.array(out)

    def check_propagate(self, cmd):
        data = load_csv(cmd.outputs[0])
        n = self.spec.n
        if data.shape != (self.t_grid.size, 1 + 4 * n):
            return [f"propagate: table shape {data.shape}"]
        got = data[:, 1::2] + 1j * data[:, 2::2]
        return _err_check("propagate time grid", data[:, 0], self.t_grid, 1e-9) + _err_check(
            "propagate vs integrate_reference_second_order", got, self.traj
        )

    def check_field(self, cmd):
        data = load_csv(cmd.outputs[0])
        nk = len(self.waves["k_queries"])
        if data.shape != (self.omega.size * nk, 10):
            return [f"field: table shape {data.shape}"]
        failures = []
        for want, iw in zip(self.field, self.field_sub):
            rows = data[iw * nk : (iw + 1) * nk]
            got = rows[:, 4::2] + 1j * rows[:, 5::2]
            failures += _err_check(f"field at {self.omega[iw]:g} eV", got, want)
            failures += _err_check("field grid", rows[:, 0], self.omega[iw], 1e-9)
        if not cmd.outputs[1].is_file():
            failures.append("field: delta-term sidecar missing")
        return failures


WORKLOADS = {w.name: w for w in (DiskSpectrum, SyntheticBath, SyntheticDynamics)}

"""The qpm checksum set: its input files and its commands, defined once.

Run in a directory with ``qpmedia`` importable, it writes the inputs there and
prints the commands, one ``qpm`` argument list a line, for the "qpm output
checksums" step of the tests workflow.  The workflow's reach probe loads the
same ``write_inputs`` and ``COMMANDS`` with ``runpy.run_path``.

The set: build, spectrum --svg, modes --vectors and filter in both modes on the
README's Drude disk (n=253), propagate --kick on the disk, bath on the disk,
which its zero mode refuses (exit status 1, ThermalSingularity), then
propagate --kick --cov-out, propagate from nonzero --u0 and --v0 with --kick,
field and bath on build_synthetic(40, 1).
"""

import json
from pathlib import Path

from qpmedia import builders
from qpmedia.medium import spec_to_json

_BATH = "--beta 1.0 --eta 1e-4 --omega-min 0.1 --omega-max 2.1 --omega-step 0.1"

COMMANDS = [
    "build --xyz disk.xyz --params drude.json --response-axis x --out disk.json",
    "spectrum --model disk.json --omega-min 0 --omega-max 7 --omega-step 0.01"
    " --kick disk_kick.json --out spectrum.csv --svg spectrum.svg",
    "modes --model disk.json --out modes.csv --vectors vectors.txt",
    "filter --model disk.json --mode if --threshold 500 --kick disk_kick.json --out filter_if.csv",
    "filter --model disk.json --mode ef --omega-lo 1.3 --omega-hi 1.4 --kick disk_kick.json"
    " --out filter_ef.csv",
    "propagate --model disk.json --t-max 5 --t-step 0.5 --kick disk_kick.json"
    " --out disk_trajectory.csv",
    f"bath --model disk.json {_BATH} --out disk_bath.csv",
    "propagate --model synthetic.json --t-max 1 --t-step 0.25 --kick kick.json --cov-out covs"
    " --out trajectory.csv",
    "propagate --model synthetic.json --t-max 1 --t-step 0.25 --u0 u0.json --v0 v0.json"
    " --kick kick.json --out trajectory_ic.csv",
    "field --model synthetic.json --waves waves.json --out field.csv",
    f"bath --model synthetic.json {_BATH} --out bath.csv",
]


def write_inputs() -> None:
    """Write the set's input files into the current directory."""
    disk = builders.hexagonal_disk(20.0, 2.434)
    rows = [f"{s} {x!r} {y!r} {z!r}" for s, (x, y, z) in zip(disk.symbols, disk.positions.T.tolist())]
    Path("disk.xyz").write_text(f"{len(rows)}\nREADME disk\n" + "\n".join(rows) + "\n", encoding="utf-8")
    # a uniform kick moves no charge, so the disk is kicked by its x coordinates
    Path("disk_kick.json").write_text(json.dumps(disk.positions[0].tolist()), encoding="utf-8")
    drude = {
        "drude_factor": 0.008, "relaxation": 0.004, "gaussian_width": 2.4,
        "tunneling": {"enabled": True, "d0": 6.0, "steepness": 10.0},
    }
    Path("drude.json").write_text(json.dumps(drude), encoding="utf-8")
    synthetic = spec_to_json(builders.build_synthetic(40, 1)) + "\n"
    Path("synthetic.json").write_text(synthetic, encoding="utf-8")
    Path("kick.json").write_text(json.dumps([1.0 + 0.1 * i for i in range(40)]), encoding="utf-8")
    Path("u0.json").write_text(json.dumps([0.5 - 0.025 * i for i in range(40)]), encoding="utf-8")
    Path("v0.json").write_text(json.dumps([0.2 * (-1) ** i for i in range(40)]), encoding="utf-8")
    waves = {
        "omega_min_ev": 1.0, "omega_max_ev": 3.0, "omega_step_ev": 0.5,
        "plane_waves": [{"k": [0.01, 0.0, 0.0], "amplitude_re": [0.0, 1.0, 0.0]}],
        "k_queries": [[0.02, 0.0, 0.0], [0.0, 0.03, 0.01]],
    }
    Path("waves.json").write_text(json.dumps(waves), encoding="utf-8")


if __name__ == "__main__":
    write_inputs()
    print("\n".join(COMMANDS))

"""The README's CLI examples on the README disk run as written.

The test reads the ``drude.json`` and the bash block of README.md's CLI
section, runs the block's input-writing script and writes its waves file,
then runs its ``qpm build``, ``qpm spectrum``, both ``qpm filter``, its
``qpm field`` and its ``qpm propagate`` lines, so that an example that drifts
from the program fails here.  Each exits 0 with nothing on stderr, and the
kicked trajectory follows the RK4 oracle ``integrate_reference_second_order``.
The README runs ``bath`` on a synthetic medium, and says that on the disk's
``model.json`` it exits 1 with ThermalSingularity (the conserved-charge mode);
its ``qpm bath`` line is run on ``model.json`` to hold it to that.
"""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from qpmedia.cli import main
from qpmedia.medium import KickDrive, spec_from_json
from qpmedia.oracles import integrate_reference_second_order

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_blocks():
    """The fenced ``json`` and ``bash`` blocks of the CLI section, continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = dict(re.findall(r"```(json|bash)\n(.*?)```", section, re.S))
    return blocks["json"], blocks["bash"].replace("\\\n", "")


def test_disk_examples_run_and_respond(tmp_path, monkeypatch, capsys):
    drude, bash = cli_blocks()
    monkeypatch.chdir(tmp_path)
    Path("drude.json").write_text(drude, encoding="utf-8")
    script = re.search(r"^python - <<'PY'\n(.*?)^PY$", bash, re.S | re.M).group(1)
    exec(compile(script, str(README), "exec"), {})
    waves = re.search(r"^cat > waves.json <<'JSON'\n(.*?)^JSON$", bash, re.S | re.M).group(1)
    Path("waves.json").write_text(waves, encoding="utf-8")
    commands = [
        shlex.split(line)[1:]
        for line in bash.splitlines()
        if line.startswith(
            ("qpm build ", "qpm spectrum ", "qpm filter ", "qpm field ", "qpm propagate ")
        )
    ]
    names = [argv[0] for argv in commands]
    assert names == ["build", "spectrum", "filter", "filter", "field", "propagate"]
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv
        if argv[0] == "build":
            continue
        out = argv[argv.index("--out") + 1]
        table = np.loadtxt(out, delimiter=",", skiprows=2)
        if argv[0] == "field":
            doc = json.loads(waves)
            grid = np.arange(doc["omega_min_ev"], doc["omega_max_ev"] + 1e-9, doc["omega_step_ev"])
            assert table.shape == (grid.size * len(doc["k_queries"]), 10)
            assert np.isfinite(table).all()
            assert Path(out + ".deltas.json").is_file()
        elif argv[0] == "propagate":
            spec = spec_from_json(Path("model.json").read_text(encoding="utf-8"))
            n = spec.n
            u = table[:, 1 : 2 * n : 2] + 1j * table[:, 2 : 2 * n + 1 : 2]
            kick = KickDrive(json.loads(Path("kick.json").read_text(encoding="utf-8")))
            t_max, t_step = (float(argv[argv.index(flag) + 1]) for flag in ("--t-max", "--t-step"))
            stride = round(t_step / 1e-3)
            fine = np.arange(0.0, t_max + 1e-12, 1e-3)
            zeros = np.zeros(n)
            want = integrate_reference_second_order(spec, kick, zeros, zeros, fine).u[::stride]
            assert np.allclose(table[:, 0], fine[::stride], rtol=0.0, atol=1e-9)
            assert np.abs(u - want).max() <= 1e-10 * np.abs(want).max()
        elif argv[0] == "spectrum":
            # a kick that moves no charge, or a response axis normal to the
            # disk, leaves max|Im alpha| at rounding level (1e-6) or exactly 0
            assert np.abs(table[:, 1]).max() > 1e3
        else:
            assert table[:, 4].sum() >= 1, argv
    bath = [shlex.split(line)[1:] for line in bash.splitlines() if line.startswith("qpm bath ")]
    assert len(bath) == 1
    argv = bath[0]
    argv[argv.index("--model") + 1] = "model.json"
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ThermalSingularity: zero mode"), err
    assert not Path(argv[argv.index("--out") + 1]).exists()

"""The README's CLI examples on the README disk run as written.

The test reads the ``drude.json`` and the bash block of README.md's CLI
section, runs the block's input-writing script and writes its waves file,
then runs its ``qpm build``, ``qpm spectrum``, both ``qpm filter`` and its
``qpm field`` lines, so that an example that drifts from the program fails
here.  ``propagate`` is left out: the disk's defective J_B sends every
quadrature node through ``expm``.
"""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from qpmedia.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_blocks():
    """The fenced ``json`` and ``bash`` blocks of the CLI section, continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = dict(re.findall(r"```(json|bash)\n(.*?)```", section, re.S))
    return blocks["json"], blocks["bash"].replace("\\\n", "")


def test_disk_examples_run_and_respond(tmp_path, monkeypatch):
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
        if line.startswith(("qpm build ", "qpm spectrum ", "qpm filter ", "qpm field "))
    ]
    assert [argv[0] for argv in commands] == ["build", "spectrum", "filter", "filter", "field"]
    for argv in commands:
        assert main(argv) == 0, argv
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
        elif argv[0] == "spectrum":
            # a kick that moves no charge, or a response axis normal to the
            # disk, leaves max|Im alpha| at rounding level (1e-6) or exactly 0
            assert np.abs(table[:, 1]).max() > 1e3
        else:
            assert table[:, 4].sum() >= 1, argv

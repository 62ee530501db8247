"""The README's CLI examples on the README disk run as written.

The test reads the ``drude.json`` and the bash block of README.md's CLI
section, runs the block's input-writing script, then its ``qpm build``,
``qpm spectrum`` and both ``qpm filter`` lines, so that an example that
drifts from the program fails here.  ``propagate`` is left out: the disk's
defective J_B sends every quadrature node through ``expm``.
"""

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
    commands = [
        shlex.split(line)[1:]
        for line in bash.splitlines()
        if line.startswith(("qpm build ", "qpm spectrum ", "qpm filter "))
    ]
    assert [argv[0] for argv in commands] == ["build", "spectrum", "filter", "filter"]
    for argv in commands:
        assert main(argv) == 0, argv
        if argv[0] == "build":
            continue
        table = np.loadtxt(argv[argv.index("--out") + 1], delimiter=",", skiprows=2)
        if argv[0] == "spectrum":
            # a kick that moves no charge, or a response axis normal to the
            # disk, leaves max|Im alpha| at rounding level (1e-6) or exactly 0
            assert np.abs(table[:, 1]).max() > 1e3
        else:
            assert table[:, 4].sum() >= 1, argv

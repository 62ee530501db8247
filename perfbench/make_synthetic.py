"""Set-up step of the synthetic workloads: seeded medium -> model JSON.

    python3 perfbench/make_synthetic.py --n 64 --seed 1 --out model.json

Needs ``src`` on PYTHONPATH.  The benchmark runs it as a fresh process so
that ``setup_s`` covers what a user's build script pays.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def write_model(n: int, seed: int, out: Path) -> None:
    # module attributes are looked up at call time so a tracer can wrap them
    from qpmedia import builders, medium

    spec = builders.build_synthetic(n, seed)
    Path(out).write_text(medium.spec_to_json(spec) + "\n", encoding="utf-8")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_model(args.n, args.seed, Path(args.out))


if __name__ == "__main__":
    main()

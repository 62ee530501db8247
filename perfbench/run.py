"""qpmedia benchmark: wall time of qpm commands, and a traced per-layer split.

    python3 perfbench/run.py --workload disk-spectrum --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run it from anywhere inside a checkout; it builds nothing and imports the
package from ``src``.  With ``--trace 0`` every command of a pass runs as a
fresh ``python -m qpmedia.cli`` process, one after another (a closed loop
of one client), for ``--seconds`` seconds.  With ``--trace 1`` the same
commands run in-process through ``qpmedia.cli.main`` with every layer
function wrapped in a span.  ``all`` runs every workload both ways.

Every output is checked against an oracle outside the timed region.  The
report lists each metric by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
the metrics that BENCHMARK.json names, in the units it names.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one BLAS thread and one sweep worker: two cores, shared with other work
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "QPM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
STARTUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0
# The shared host's speed swings by up to 1.8x within minutes, for every
# process alike.  A timed child's wall time is therefore scaled by
# PROBE_REF_S / (mean of the probe.py walls right before and right after it):
# seconds on a host where probe.py takes PROBE_REF_S.
PROBE_REF_S = 0.4
# a traced command's root span may miss this much of its wall time
UNCOVERED_TOL_S, UNCOVERED_TOL_FRAC = 5e-3, 0.01

# reported beside the metrics BENCHMARK.json lists; zero on workloads
# that never reach the layer
REPORTED_TIMES = (
    "builders.build_drude_charge_model_s",
    "builders.build_synthetic_s",
    "response.decompose_modes_s",
    "response.reconstruct_spectrum_s",
    "response.self_s",
    "openquantum.thermal_correlation_s",
    "openquantum.self_s",
    "phasespace.propagate_mean_s",
    "phasespace.decompose_generator_s",
    "phasespace.self_s",
    "selfconsistent.emitted_field_first_order_s",
    "selfconsistent.scattering_rows_s",
    "selfconsistent.self_s",
)


def listed_metrics(path: Path = ROOT / "BENCHMARK.json") -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and the per-layer metrics BENCHMARK.json lists."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


class Report:
    """Named metrics with units and sample counts, plus the failure tally."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def put(self, name: str, value, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def print_table(self, title: str) -> None:
        print(f"# {title}")
        for name, (value, unit, note) in self.metrics.items():
            print(f"{name:<46} {value:<22.10g} {unit:<6} {note}".rstrip())
        for problem, count in Counter(self.failures).items():
            print(f"FAILED ({count}x): {problem}")

    def result(self, units: dict[str, str]) -> dict:
        """The JSON result with the metrics ``units`` names, in those units."""
        metrics = {}
        for name, unit in units.items():
            value, measured_in, _ = self.metrics[name]
            if measured_in != unit:
                raise ValueError(f"{name} is measured in {measured_in}, BENCHMARK.json says {unit}")
            metrics[name] = {"value": value, "unit": unit}
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in THREAD_ENV},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """The lean process (launch.py) that starts every child of one run."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
        )

    def run(self, argv: list[str], log: Path) -> tuple[float, float, int, str]:
        """Run one process to completion: wall seconds, peak RSS MB, exit code, output."""
        self.proc.stdin.write(json.dumps([argv, str(log), CHILD_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        wall, rss, code = json.loads(reply)
        return wall, rss, code, log.read_text(encoding="utf-8", errors="replace")

    def probe(self, log: Path) -> float:
        """Wall seconds of one probe.py process."""
        wall, _, code, text = self.run([sys.executable, str(HERE / "probe.py")], log)
        if code != 0:
            raise RuntimeError(f"probe.py exited with {code}: {text.strip()}")
        return wall

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False


def checksums(summary: str) -> str:
    return " ".join(tok for tok in summary.split() if tok.startswith("sha256="))


class SetupFailed(Exception):
    pass


def _exit_failures(what: str, code: int, text: str) -> list[str]:
    if code == 0:
        return []
    last = text.strip().splitlines()[-1] if text.strip() else "no output"
    return [f"{what}: exit {code}: {last}"]


def _verify(wl, cmd, code: int, text: str) -> list[str]:
    """Failures of one command: a nonzero exit, or outputs that fail a check."""
    if code != 0:
        return _exit_failures(cmd.name, code, text)
    try:
        return wl.check(cmd)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{cmd.name}: unreadable output: {exc}"]


def _set_up_checked(report: Report, wl, failures: list[str]) -> None:
    """Count the set-up, then check its model and compute the oracles; stop if it failed."""
    report.operation(failures)
    if failures:
        raise SetupFailed("; ".join(failures))
    report.operation(wl.prepare_checks())


def _window_open(start: float, last: float, seconds: float) -> bool:
    """Run another round unless the window that began at ``start`` ends
    nearer now than after a round as long as the ``last`` one."""
    return last == 0.0 or time.perf_counter() - start + last / 2.0 < seconds


def _median(values: list[float]) -> float:
    """Median of the samples; NaN for a command that never ran."""
    return statistics.median(values) if values else float("nan")


def measure(wl, seconds: float, report: Report, launcher: Launcher) -> None:
    """Trace off: fresh processes, medians over the rounds of one window.

    A round is one pass, then one more set-up into a spare model file, so
    that set-ups and passes see the same stretches of host speed.  A probe
    runs right before and right after every pass and every set-up, and
    each of their times is also reported host-corrected (see PROBE_REF_S).
    """
    python = sys.executable
    probe_log = wl.path("probe.log")
    probes = []

    def timed(run) -> tuple[float, float, object]:
        """Wall seconds of ``run()``, the host correction around it, and its result."""
        t0 = time.perf_counter()
        out = run()
        wall = time.perf_counter() - t0
        probes.append(launcher.probe(probe_log))
        return wall, PROBE_REF_S / statistics.fmean(probes[-2:]), out

    def set_up(out: Path) -> tuple[float, float, list[str]]:
        def child():
            _, _, code, text = launcher.run(wl.setup_argv(python, HERE, out), wl.path("setup.log"))
            return _exit_failures("set-up", code, text)

        return timed(child)

    start = time.perf_counter()
    probes.append(launcher.probe(probe_log))
    wall, scale, failures = set_up(wl.model)
    # the window holds the first set-up and its probes, not the oracles
    begun = time.perf_counter() - start
    _set_up_checked(report, wl, failures)
    start = time.perf_counter() - begun

    commands = wl.commands()
    walls = {c.name: [] for c in commands}
    sums = {c.name: [] for c in commands}
    setups, passes, pass_rss = [(wall, scale)], [], []
    last = 0.0

    def run_pass() -> list:
        results = []
        for cmd in commands:
            argv = [python, "-m", "qpmedia.cli", *cmd.argv]
            results.append(launcher.run(argv, wl.path(f"{cmd.name}.log")))
            if results[-1][2] != 0:
                break
        return results

    while _window_open(start, last, seconds):
        t0 = time.perf_counter()
        wall, scale, results = timed(run_pass)
        passes.append((wall, scale))
        pass_rss.append(max(r[1] for r in results))
        for cmd, (wall, _, code, text) in zip(commands, results):
            walls[cmd.name].append((wall, scale))
            sums[cmd.name].append(checksums(text))
            report.operation(_verify(wl, cmd, code, text))
        if len(results) < len(commands):
            break
        spare = wl.path("model-spare.json")
        wall, scale, failures = set_up(spare)
        setups.append((wall, scale))
        report.operation(failures or wl.check_model(spare))
        last = time.perf_counter() - t0

    def put_time(name: str, samples: list[tuple[float, float]], what: str) -> None:
        note = f"median of {len(samples)} {what}"
        report.put(f"{name}_s", _median([w * s for w, s in samples]), "s", note + ", host-corrected")
        report.put(f"{name}_wall_s", _median([w for w, _ in samples]), "s", note)

    put_time("setup", setups, "set-ups")
    put_time("run", passes, "passes")
    for name, samples in walls.items():
        put_time(name, samples, "runs")
    report.put("peak_rss_mb", _median(pass_rss), "MB", f"median of {len(passes)} passes")
    report.put("env.probe_s", statistics.median(probes), "s", f"median of {len(probes)} probe.py runs")
    report.put(
        "failed_frac",
        report.failed / report.attempted,
        "ratio",
        f"{report.failed}/{report.attempted} operations",
    )
    changes = sum(s != v[0] for v in sums.values() for s in v)
    report.put(
        "cli.checksum_changes", changes, "count", "outputs whose bytes differ from the first pass"
    )


def _span_metrics(spans, idxs) -> dict[str, float]:
    """Inclusive time and calls per function, self time per layer, traced total."""
    from spans import self_times

    own = self_times(spans)
    out: dict[str, float] = {}
    for i in idxs:
        s = spans[i]
        out[f"{s.name}_s"] = out.get(f"{s.name}_s", 0.0) + s.duration
        out[f"{s.name}_calls"] = out.get(f"{s.name}_calls", 0) + 1
        out[f"{s.layer}.self_s"] = out.get(f"{s.layer}.self_s", 0.0) + own[i]
        if s.parent is None:
            out["trace.total_s"] = out.get("trace.total_s", 0.0) + s.duration
    return out


def _count_delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def trace_run(wl, seconds: float, report: Report, launcher: Launcher, listed: dict) -> None:
    """Trace on: in-process commands with a span around every layer call."""
    import spans as tr
    from qpmedia import cli

    def run_cli(argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    per_span, per_count = tr.per_call_overhead()
    tracer = tr.Tracer()
    with tracer:
        code, text = wl.setup_in_process(run_cli)
    setup = _span_metrics(tracer.spans, range(len(tracer.spans))) | tracer.counts
    _set_up_checked(report, wl, _exit_failures("set-up", code, text))

    commands = wl.commands()
    per_pass, sums, overheads, uncovered = [], [], [], []
    start, last = time.perf_counter(), 0.0
    while _window_open(start, last, seconds):
        round_start = time.perf_counter()
        first, pass_counts = len(tracer.spans), dict(tracer.counts)
        results, walls, roots, calls = [], [], [], []
        with tracer:
            for cmd in commands:
                root, counts = len(tracer.spans), dict(tracer.counts)
                t0 = time.perf_counter()
                results.append(run_cli(cmd.argv))
                walls.append(time.perf_counter() - t0)
                roots.append(root if len(tracer.spans) > root else None)
                calls.append(sum(_count_delta(tracer.counts, counts).values()))
        idxs = range(first, len(tracer.spans))
        per_pass.append(_span_metrics(tracer.spans, idxs) | _count_delta(tracer.counts, pass_counts))
        overheads.append(per_span * len(idxs) + per_count * sum(calls))
        sums.append([checksums(text) for _, text in results])
        gaps = []
        for cmd, (code, text), wall, root, n_calls in zip(commands, results, walls, roots, calls):
            report.operation(_verify(wl, cmd, code, text))
            # health of the trace: the command's root span covers its wall time
            span = tracer.spans[root] if root is not None else None
            covered = span.duration if span is not None and span.name == "cli.main" else 0.0
            gaps.append(wall - covered)
            limit = UNCOVERED_TOL_S + UNCOVERED_TOL_FRAC * wall
            report.operation(
                [f"{cmd.name}: root span misses {gaps[-1]:.3e} s of {wall:.3e} s"]
                if gaps[-1] > limit
                else []
            )
            if len(per_pass) == 1 and span is not None:
                tree = tr.subtree(tracer.spans, root)
                own = sum(tr.self_times(tracer.spans)[j] for j in tree)
                print(
                    f"# {cmd.name}: wall {wall:.6f} s, traced total {covered:.6f} s "
                    f"(sum of the self times of its {len(tree)} spans {own:.6f} s), "
                    f"trace overhead ~{per_span * len(tree) + per_count * n_calls:.6f} s"
                )
        uncovered.append(sum(gaps))
        last = time.perf_counter() - round_start

    passes = len(per_pass)
    note = f"set-up + median of {passes} passes"
    for name in sorted(set(setup).union(*per_pass) | set(REPORTED_TIMES)):
        value = setup.get(name, 0.0) + statistics.median(p.get(name, 0.0) for p in per_pass)
        report.put(name, value, "s" if name.endswith("_s") else "count", note)

    report.put("spectral.eig_dim", tracer.eig_dims.get("spectral", 0), "count", "largest eig in spectral")
    report.put("medium.model_bytes", wl.model.stat().st_size, "bytes")
    report.put(
        "cli.bytes_written",
        sum(p.stat().st_size for c in commands for p in c.outputs if p.exists()),
        "bytes",
        "output files of one pass",
    )
    report.put(
        "trace.overhead_s",
        statistics.median(overheads),
        "s",
        f"calibrated wrapper cost x spans and counted calls, median of {passes} passes",
    )
    report.put("trace.uncovered_s", statistics.median(uncovered), "s", "wall time outside the root spans")
    report.put(
        "cli.checksum_changes", sum(s != sums[0] for s in sums), "count", "passes whose bytes differ"
    )
    startup = [
        launcher.run([sys.executable, "-c", "import qpmedia.cli"], wl.path("startup.log"))[0]
        for _ in range(STARTUP_PROBES)
    ]
    report.put(
        "cli.startup_s", statistics.median(startup), "s", f"median of {STARTUP_PROBES} fresh interpreters"
    )
    probes = [launcher.probe(wl.path("probe.log")) for _ in range(STARTUP_PROBES)]
    report.put("env.probe_s", statistics.median(probes), "s", f"median of {STARTUP_PROBES} probe.py runs")
    report.put(
        "response.zero_mode_rel_err", wl.zero_mode_rel_err(run_cli), "ratio", "known defect, not gated"
    )
    # a listed count that this workload never reaches is a measured zero
    for name, unit in listed.items():
        if name not in report.metrics and unit == "count":
            report.put(name, 0, unit, "never called on this workload")


def run_workload(workload, seed: int, seconds: float, traced: bool, size: str, listed: dict) -> Report:
    work = ROOT / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    report = Report()
    try:
        wl = workload(work, seed, size)
        wl.make_inputs()
        with Launcher() as launcher:
            if traced:
                trace_run(wl, seconds, report, launcher, listed)
            else:
                measure(wl, seconds, report, launcher)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qpmedia benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "qpmedia" / "cli.py").is_file():
        print(f"error: qpmedia sources not found under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = listed_metrics()
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import qpmedia

    if Path(qpmedia.__file__).resolve().parent != SRC / "qpmedia":
        print(f"error: imported qpmedia from {qpmedia.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of: all, {', '.join(WORKLOADS)}")

    env = environment()
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for traced in modes:
            listed = per_layer if traced else end_to_end
            try:
                report = run_workload(WORKLOADS[name], args.seed, args.seconds, traced, args.size, listed)
            except SetupFailed as exc:
                print(f"error: {name}: set-up failed: {exc}", file=sys.stderr)
                return 1
            mode = "trace on" if traced else "trace off"
            report.print_table(f"{name} seed {args.seed} ({mode}) env {json.dumps(env)}")
            result = report.result(listed)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
    if args.workload != "all":
        combined = result
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

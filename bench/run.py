"""Benchmark of the `phi4` CLI: three workloads, output checks, layer timings.

Run from the root of a source checkout:

    python3 bench/run.py --workload simulate --seed 0 --seconds 30 --trace 0

The program is imported from `src/` of that checkout.  One run repeats the
workload's subcommand in this process until `--seconds` would be exceeded
(at least once), checks the outputs of the last repetition, and prints one
JSON object as its last line of standard output.  With `--trace 0` it
reports the end-to-end metrics, timed with tracing off; with `--trace 1` it
alternates untraced and traced repetitions and reports the per-layer metrics
of the traced ones.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9
PERIOD = 6.283185307179586  # 2 pi, the CLI's default torus period

# Workload parameters; each is passed to the program as an explicit flag.
WORKLOADS = {
    "simulate": {
        "command": "simulate",
        "params": {"n": 32, "r": 0.01, "dt": 0.01, "horizon": 2.0,
                   "snapshot_stride": 10, "stream": 0, "coupling": 1.0,
                   "period": PERIOD},
        "flags": ["--checkpoints"],
    },
    "trees": {
        "command": "trees",
        "params": {"n": 32, "r": 0.01, "dt": 0.1, "burn_in": 5.0,
                   "snapshots": 2, "stream": 0, "period": PERIOD},
        "flags": [],
    },
    "comedown": {
        "command": "comedown",
        "params": {"n": 16, "r": 0.05, "dt": 0.004, "horizon": 1.0,
                   "sizes": "3,30,300", "p": 8, "stream": 0, "period": PERIOD},
        "flags": [],
    },
}

# Functions whose call count and inclusive time are reported per layer.
TIMED = [
    "spectral.cubic", "spectral.dealiased_product", "spectral.duhamel_step",
    "spectral.gradient", "spectral.grad_dot", "spectral.save_field",
    "noise.ou_noise_field", "noise.normals",
    "paraproduct.resonant", "paraproduct.besov_norm",
    "trees.step", "trees.snapshot",
    "dynamics.step_u", "dynamics.weighted_norm",
    "dynamics.assemble_z", "dynamics.step_v",
]
SELF_LAYERS = ["spectral", "noise", "paraproduct", "trees", "dynamics", "cli"]


def cli_args(spec: dict, seed: int, outdir: Path) -> list[str]:
    args = [spec["command"]]
    for key, val in spec["params"].items():
        args += ["--" + key.replace("_", "-"), str(val)]
    return args + spec["flags"] + ["--seed", str(seed), "--output-dir", str(outdir)]


def check_params(spec: dict, seed: int) -> dict:
    return {**spec["params"], "seed": seed}


def measure_setup() -> float:
    """Median time from starting a fresh interpreter until `phi4torus.cli`
    is imported and ready to run."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import phi4torus.cli; "
            "print('ready', flush=True)")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError("phi4torus.cli failed to import in a fresh interpreter")
    return statistics.median(samples)


def load_program():
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import phi4torus.cli

    if Path(phi4torus.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"phi4torus was imported from {phi4torus.cli.__file__}, not {SRC}")
    return phi4torus.cli


def run_once(cli, spec: dict, seed: int, outdir: Path) -> tuple[float, float]:
    """One subcommand call into a fresh `outdir`; returns (wall seconds,
    CPU seconds of this process, all threads)."""
    if outdir.exists():
        shutil.rmtree(outdir)
    args = cli_args(spec, seed, outdir)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(args=args, standalone_mode=False)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu


def layer_metrics(tracer, wall: float, outdir: Path) -> dict:
    m = {
        "spectral.fft.calls": tracer.calls["spectral.fft"],
        "spectral.fft.points": tracer.fft_points,
        "spectral.fft.s": tracer.inclusive["spectral.fft"],
    }
    for name in TIMED:
        m[f"{name}.calls"] = tracer.calls[name]
        m[f"{name}.s"] = tracer.inclusive[name]
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = tracer.self_time[layer]
    m["cli.output_bytes"] = sum(p.stat().st_size for p in outdir.iterdir())
    m["trace.wall_s"] = wall
    return m


UNITS = {"calls": "count", "points": "count", "output_bytes": "bytes"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if not (SRC / "phi4torus" / "cli.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2

    setup_s = None if opts.trace else measure_setup()
    cli = load_program()
    from checks import check_outputs
    from tracing import Tracer

    spec = WORKLOADS[opts.workload]
    outdir = OUT / opts.workload
    walls, cpus, traced = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    # Repeat whole rounds while the next one is expected to end in time.
    while True:
        round_start = time.perf_counter()
        for traced_run in ((False, True) if opts.trace else (False,)):
            attempted += 1
            tracer = Tracer()
            try:
                with tracer if traced_run else contextlib.nullcontext():
                    wall, cpu = run_once(cli, spec, opts.seed, outdir)
            except Exception:  # a failed subcommand is counted, not fatal
                failed += 1
                traceback.print_exc()
                continue
            if traced_run:
                traced.append(layer_metrics(tracer, wall, outdir))
            else:
                walls.append(wall)
                cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - round_start) > opts.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not walls or (opts.trace and not traced):
        print(f"no {opts.workload} call succeeded ({failed} of {attempted} failed)",
              file=sys.stderr)
        return 1
    print(f"untraced calls took {[round(w, 3) for w in walls]} s", file=sys.stderr)

    errors = check_outputs(spec["command"], outdir, check_params(spec, opts.seed))
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if opts.trace:
        counts = [{k: v for k, v in t.items() if unit_of(k) != "s"} for t in traced]
        if any(c != counts[0] for c in counts):
            errors.append("call counts differ between traced repetitions")
            print("check failed: call counts differ between traced repetitions",
                  file=sys.stderr)
        values = {k: (counts[0][k] if unit_of(k) != "s"
                      else statistics.median(t[k] for t in traced))
                  for k in traced[0]}
        values["trace.overhead_s"] = values.pop("trace.wall_s") - statistics.median(walls)
    else:
        values = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {k: {"value": v, "unit": units.get(k) or unit_of(k)} for k, v in values.items()}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

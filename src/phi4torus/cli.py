"""The `phi4` command-line front-end.

Every subcommand writes its outputs plus a run manifest (manifest.json)
holding the fully resolved configuration, the seed, the package version, the
numpy and scipy versions, the FFT worker count, the run's status and a
sha256 checksum per output file, so a run can be reproduced and verified
bit-for-bit.  A refused run still writes its manifest, with status
"refused", the reason, and the files written before the refusal; a run
that dies of an unexpected exception writes it with status "error" and the
exception's type and text.

Exit codes
    0  success
    2  usage error (unknown flags / malformed arguments; raised by click)
    3  invalid configuration or input file
    4  experiment precondition refused (e.g. too few samples, grid too
       coarse, comparison-test hypothesis violated)

The default output directory is the current directory, overridable by the
PHI4_OUTPUT_DIR environment variable or --output-dir.

Config files may be flat `key = value` text (one pair per line, '#'
comments) or a JSON object; explicit command-line flags take precedence,
and both layers are recorded in the manifest.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import click
from click.core import ParameterSource
import numpy as np
import scipy

from . import __version__
from .dynamics import (
    BlowUpError,
    SimConfig,
    coming_down_experiment,
    running_weighted_norm,
    simulate_u,
)
from .noise import NoiseStream
from .observables import birkhoff_sample, fourth_cumulant
from .paraproduct import estimate_regularity
from .powercount import GraphError, gamma_range, parse_graph
from .renorm import a_closed, a_numeric, b_closed, b_numeric, minimal_n_for
from .spectral import Grid, fft_workers, save_field
from .trees import build_enhanced_noise, tree_divergence_report

EXIT_INVALID_CONFIG = 3
EXIT_REFUSED = 4


class Refused(click.ClickException):
    exit_code = EXIT_REFUSED


class InvalidConfig(click.ClickException):
    exit_code = EXIT_INVALID_CONFIG


# ---------------------------------------------------------------------------
# manifest plumbing
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    seed: int | None
    version: str
    status: str = "ok"  # or "refused" or "error"
    message: str | None = None  # the reason for a refusal, or the error
    outputs: dict[str, str] = field(default_factory=dict)  # file -> sha256
    numpy: str = np.__version__
    scipy: str = scipy.__version__
    fft_workers: int = field(default_factory=fft_workers)

    def add(self, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.outputs[path.name] = digest

    def write(self, directory: Path) -> Path:
        path = directory / "manifest.json"
        path.write_text(json.dumps(asdict(self), indent=2, default=str) + "\n")
        return path


@contextlib.contextmanager
def _run_manifest(outdir: Path, subcommand: str, config: dict, seed: int | None):
    """Yield the run's manifest and write it to outdir when the block exits,
    also when the run is refused or dies of an error."""
    manifest = RunManifest(subcommand, config, seed, __version__)
    try:
        yield manifest
    except Refused as exc:
        manifest.status, manifest.message = "refused", exc.message
        manifest.write(outdir)
        raise
    except Exception as exc:
        manifest.status, manifest.message = "error", f"{type(exc).__name__}: {exc}"
        manifest.write(outdir)
        raise
    manifest.write(outdir)


def _output_dir(explicit: str | None) -> Path:
    d = Path(explicit or os.environ.get("PHI4_OUTPUT_DIR", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"bad JSON config {path}: {exc}")
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _resolve(ctx_params: dict, file_cfg: dict, keys: list[str]) -> dict:
    """Explicit flags beat the config file; config file beats defaults."""
    ctx = click.get_current_context()
    resolved = {}
    for key in keys:
        if key in file_cfg and ctx.get_parameter_source(key) is ParameterSource.DEFAULT:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = ctx_params[key]
    return resolved


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _parse_sweep(spec: str) -> list[float]:
    """'1e-4:1e-2:8' -> 8 log-spaced values; a comma list is taken verbatim."""
    if ":" in spec:
        lo, hi, num = spec.split(":")
        return list(np.geomspace(float(lo), float(hi), int(num)))
    return [float(s) for s in spec.split(",")]


def _sim_config(params: dict) -> SimConfig:
    try:
        coupling = float(params["coupling"])
        return SimConfig(
            n=int(params["n"]),
            r=float(params["r"]),
            dt=float(params["dt"]),
            horizon=float(params["horizon"]),
            dim=int(params["dim"]),
            period=float(params["period"]),
            coupling=coupling,
            counterterm_a=_as_bool(params["counterterm_a"]),
            counterterm_b=_as_bool(params["counterterm_b"]),
            seed=int(params["seed"]),
            stream=int(params["stream"]),
            snapshot_stride=int(params["snapshot_stride"]),
        )
    except (ValueError, TypeError) as exc:
        raise InvalidConfig(str(exc))


def _as_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    return str(v).strip().lower() in ("1", "true", "yes", "on")


_SIM_KEYS = [
    "n", "r", "dt", "horizon", "dim", "period", "coupling",
    "counterterm_a", "counterterm_b", "seed", "stream", "snapshot_stride",
]


def sim_options(fn):
    opts = [
        click.option("--n", default=32, show_default=True, help="grid points per axis"),
        click.option("--r", default=0.01, show_default=True, help="noise regularization scale"),
        click.option("--dt", default=0.01, show_default=True, help="time step"),
        click.option("--horizon", default=1.0, show_default=True, help="final time"),
        click.option("--dim", default=3, show_default=True, help="torus dimension"),
        click.option("--period", default=2 * math.pi, show_default=True, help="torus period L"),
        click.option("--coupling", default=1.0, show_default=True, help="coupling constant"),
        click.option("--counterterm-a/--no-counterterm-a", "counterterm_a", default=True, show_default=True),
        click.option("--counterterm-b/--no-counterterm-b", "counterterm_b", default=True, show_default=True),
        click.option("--seed", default=0, show_default=True),
        click.option("--stream", default=0, show_default=True),
        click.option("--snapshot-stride", default=10, show_default=True, help="steps between snapshots"),
        click.option("--config", "config_file", default=None, help="key=value or JSON config file"),
        click.option("--output-dir", default=None, help="output directory (default: $PHI4_OUTPUT_DIR or .)"),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(__version__, prog_name="phi4")
def main():
    """Spectral stochastic quantization toolkit for the renormalized
    Phi^4 Langevin dynamics on flat tori.

    \b
    Exit codes:
      0  success
      2  usage error
      3  invalid configuration or input
      4  experiment precondition refused
    """


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@main.command()
@sim_options
@click.option("--checkpoints/--no-checkpoints", default=True, show_default=True,
              help="save field snapshots in the binary Field format")
def simulate(config_file, output_dir, **params):
    """Integrate the renormalized u-equation and stream diagnostics."""
    resolved = _resolve(params, _load_config_file(config_file), _SIM_KEYS)
    cfg = _sim_config(resolved)
    outdir = _output_dir(output_dir)
    with _run_manifest(outdir, "simulate", {**resolved, "config_file": config_file},
                       cfg.seed) as manifest:
        try:
            traj = simulate_u(cfg)
        except BlowUpError as exc:
            raise Refused(f"trajectory blew up: {exc}")
        csv_path = outdir / "diagnostics.csv"
        wnorms = running_weighted_norm(traj.times, traj.snapshots, 0.5, 0.25,
                                       traj.block_sups)
        _write_csv(
            csv_path,
            ["t", "L2", "L8", "besov_proxy", "weighted_norm"],
            [
                (t, traj.diagnostics["L2"][i], traj.diagnostics["L8"][i],
                 traj.diagnostics["besov_proxy"][i], wnorms[i])
                for i, t in enumerate(traj.times)
            ],
        )
        manifest.add(csv_path)
        if params["checkpoints"]:
            for t, snap in zip(traj.times, traj.snapshots):
                p = outdir / f"u_t{t:.6f}.field"
                save_field(snap, p)
                manifest.add(p)
    click.echo(f"wrote {csv_path} ({len(traj.times)} rows)")


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


@main.command()
@sim_options
@click.option("--burn-in", default=5.0, show_default=True)
@click.option("--snapshots", default=1, show_default=True)
@click.option("--sweep", default=None,
              help="r sweep 'lo:hi:num' for the divergence report instead of fields")
def trees(config_file, output_dir, burn_in, snapshots, sweep, **params):
    """Build the enhanced-noise trees (or an r-sweep divergence report)."""
    resolved = _resolve(params, _load_config_file(config_file), _SIM_KEYS)
    cfg = _sim_config(resolved)
    outdir = _output_dir(output_dir)
    grid = cfg.grid
    with _run_manifest(outdir, "trees", {**resolved, "burn_in": burn_in, "sweep": sweep},
                       cfg.seed) as manifest:
        if sweep:
            try:
                rows = tree_divergence_report(grid, _parse_sweep(sweep), seed=cfg.seed,
                                              dt=cfg.dt, burn_in=burn_in)
            except ValueError as exc:
                raise Refused(str(exc))
            path = outdir / "tree_divergence.csv"
            header = list(rows[0].keys())
            _write_csv(path, header, [[row[k] for k in header] for row in rows])
            manifest.add(path)
            click.echo(f"wrote {path} ({len(rows)} rows)")
        else:
            try:
                traj = build_enhanced_noise(
                    NoiseStream(cfg.seed, cfg.stream), grid, cfg.r,
                    burn_in=burn_in, dt=cfg.dt, n_snapshots=snapshots,
                )
            except ValueError as exc:
                raise Refused(str(exc))
            for i, snap in enumerate(traj.snapshots):
                for name, f in snap.components().items():
                    p = outdir / f"tree_{name}_{i}.field"
                    save_field(f, p)
                    manifest.add(p)
            click.echo(f"wrote {len(manifest.outputs)} component fields")


# ---------------------------------------------------------------------------
# renorm-constants
# ---------------------------------------------------------------------------


@main.command("renorm-constants")
@click.option("--r", "sweep", required=True,
              help="sweep 'lo:hi:num' (log-spaced) or comma list")
@click.option("--n", default=None, type=int,
              help="grid size for a_numeric (default: minimal converged N per r)")
@click.option("--with-b-numeric/--no-b-numeric", default=True, show_default=True)
@click.option("--output-dir", default=None)
def renorm_constants(sweep, n, with_b_numeric, output_dir):
    """Tabulate a_r, b_r: closed forms vs numerical counterparts."""
    try:
        r_values = _parse_sweep(sweep)
    except Exception as exc:
        raise InvalidConfig(f"bad sweep {sweep!r}: {exc}")
    outdir = _output_dir(output_dir)
    with _run_manifest(outdir, "renorm-constants",
                       {"r": sweep, "n": n, "b_numeric": with_b_numeric}, None) as manifest:
        rows = []
        for r in r_values:
            grid = Grid(dim=3, n=n) if n else Grid(dim=3, n=minimal_n_for(r, Grid(dim=3, n=2)))
            try:
                a_num = a_numeric(grid, r)
            except ValueError as exc:
                raise Refused(str(exc))
            b_num = b_numeric(r) if with_b_numeric else float("nan")
            rows.append((r, a_closed(r), a_num, b_closed(r), b_num))
        path = outdir / "renorm_constants.csv"
        _write_csv(path, ["r", "a_closed", "a_numeric", "b_closed", "b_numeric"], rows)
        manifest.add(path)
    click.echo(f"wrote {path} ({len(rows)} rows)")


# ---------------------------------------------------------------------------
# powercount
# ---------------------------------------------------------------------------


@main.command()
@click.option("--file", "path", required=True, type=click.Path(exists=True),
              help="graph DSL file")
@click.option("--json", "as_json", is_flag=True, help="emit the full verdict structure")
@click.option("--output-dir", default=None)
def powercount(path, as_json, output_dir):
    """Power-count a Feynman graph: per-subgraph table and gamma_max."""
    try:
        graph = parse_graph(Path(path).read_text())
        report = gamma_range(graph)
    except GraphError as exc:
        raise InvalidConfig(str(exc))
    if as_json:
        payload = {
            "gamma_max": None if report.gamma_max is None else str(report.gamma_max),
            "admissible": report.admissible,
            "subgraphs": [
                {
                    "edges": [str(e) for e in v.edges],
                    "triples": list(v.triples),
                    "singletons": list(v.singletons),
                    "b1": v.b1,
                    "a1": str(v.a1),
                    "a2": None if v.a2 is None else str(v.a2),
                    "codim_unmarked": str(v.codim_unmarked),
                    "codim_marked": str(v.codim_marked),
                    "shielded": v.shielded,
                    "verdict": v.verdict,
                    "gamma_upper": None if v.gamma_upper is None else str(v.gamma_upper),
                    "case_b": v.case_b,
                }
                for v in report.verdicts
            ],
        }
        outdir = _output_dir(output_dir)
        out = outdir / (Path(path).stem + "_verdicts.json")
        with _run_manifest(outdir, "powercount", {"file": str(path)}, None) as manifest:
            out.write_text(json.dumps(payload, indent=2) + "\n")
            manifest.add(out)
        click.echo(json.dumps(payload, indent=2))
    else:
        for v in report.verdicts:
            click.echo(v.describe())
        if not report.admissible:
            click.echo("gamma_max = none (superdivergent subgraph)")
        elif report.gamma_max is None:
            click.echo("gamma_max = unconstrained")
        else:
            click.echo(f"gamma_max = {report.gamma_max}")
        for v in report.case_b_subgraphs:
            click.echo(f"case (b) at the boundary: {v.describe()}")


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


@main.command()
@sim_options
@click.option("--component", default="X", show_default=True,
              help="tree component to estimate (X, W2, W3, I2, I3)")
@click.option("--samples", default=32, show_default=True)
@click.option("--burn-in", default=5.0, show_default=True)
@click.option("--j-min", default=2, show_default=True)
def regularity(config_file, output_dir, component, samples, burn_in, j_min, **params):
    """Estimate the Besov regularity exponent of a tree component."""
    resolved = _resolve(params, _load_config_file(config_file), _SIM_KEYS)
    cfg = _sim_config(resolved)
    outdir = _output_dir(output_dir)
    with _run_manifest(outdir, "regularity", {**resolved, "component": component,
                                              "samples": samples}, cfg.seed) as manifest:
        try:
            traj = build_enhanced_noise(
                NoiseStream(cfg.seed, cfg.stream), cfg.grid, cfg.r,
                burn_in=burn_in, dt=cfg.dt, n_snapshots=samples,
                snapshot_stride=0.5, with_resonants=False,
            )
            fields = [getattr(s, component) for s in traj.snapshots]
            fit = estimate_regularity(fields, j_min=j_min)
        except (ValueError, AttributeError) as exc:
            raise Refused(str(exc))
        payload = {
            "component": component,
            "gamma_hat": fit.gamma_hat,
            "stderr": fit.stderr,
            "levels": fit.levels,
            "log2_energy": fit.log2_energy,
        }
        out = outdir / f"regularity_{component}.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
        manifest.add(out)
    click.echo(f"{component}: {fit}")


# ---------------------------------------------------------------------------
# comedown
# ---------------------------------------------------------------------------


@main.command()
@sim_options
@click.option("--sizes", default="3,30,300", show_default=True,
              help="comma list of initial Besov sizes")
@click.option("--p", default=8, show_default=True, help="even L^p exponent >= 8")
def comedown(config_file, output_dir, sizes, p, **params):
    """Coming-down-from-infinity experiment for the v-equation."""
    resolved = _resolve(params, _load_config_file(config_file), _SIM_KEYS)
    cfg = _sim_config(resolved)
    outdir = _output_dir(output_dir)
    with _run_manifest(outdir, "comedown", {**resolved, "sizes": sizes, "p": p},
                       cfg.seed) as manifest:
        try:
            initial = [float(s) for s in sizes.split(",")]
            report = coming_down_experiment(cfg, initial, p=p)
        except ValueError as exc:
            raise Refused(str(exc))
        path = outdir / "comedown.csv"
        header = ["t"] + [f"Lp_size_{s:g}" for s in initial]
        rows = [
            [t] + [report["norms"][j][i] for j in range(len(initial))]
            for i, t in enumerate(report["times"])
        ]
        _write_csv(path, header, rows)
        summary = {k: v for k, v in report.items() if k not in ("times", "norms")}
        out = outdir / "comedown.json"
        out.write_text(json.dumps(summary, indent=2) + "\n")
        manifest.add(path)
        manifest.add(out)
    click.echo(json.dumps(summary, indent=2))


# ---------------------------------------------------------------------------
# cumulant and sample
# ---------------------------------------------------------------------------


@main.command()
@sim_options
@click.option("--burn-in", default=5.0, show_default=True)
@click.option("--stride", default=0.5, show_default=True)
@click.option("--count", default=200, show_default=True)
@click.option("--probes", default="0.08:0.01:4", show_default=True,
              help="r_probe sweep 'hi:lo:num' or comma list")
@click.option("--streams", default=1, show_default=True,
              help="independent trajectories pooled for samples")
def cumulant(config_file, output_dir, burn_in, stride, count, probes, streams, **params):
    """Fourth-cumulant non-Gaussianity sweep over probe scales."""
    resolved = _resolve(params, _load_config_file(config_file), _SIM_KEYS)
    cfg = _sim_config(resolved)
    outdir = _output_dir(output_dir)
    with _run_manifest(outdir, "cumulant", {**resolved, "burn_in": burn_in,
                                            "stride": stride, "count": count,
                                            "probes": probes}, cfg.seed) as manifest:
        per_stream = count // streams
        fields = []
        for s in range(streams):
            scfg = _sim_config({**resolved, "stream": cfg.stream + s})
            sset = birkhoff_sample(scfg, burn_in, stride, per_stream)
            if sset.blew_up:
                raise Refused(f"stream {s} blew up: {sset.blew_up}")
            fields.extend(sset.fields)
        rows = []
        try:
            for rp in _parse_sweep(probes):
                est = fourth_cumulant(fields, rp)
                rows.append((rp, est.c4, est.stderr, est.significance, est.n_samples))
                click.echo(str(est))
        except ValueError as exc:
            raise Refused(str(exc))
        path = outdir / "cumulant.csv"
        _write_csv(path, ["r_probe", "c4", "stderr", "significance", "n_samples"], rows)
        manifest.add(path)
    click.echo(f"wrote {path}")


@main.command()
@sim_options
@click.option("--burn-in", default=5.0, show_default=True)
@click.option("--stride", default=0.5, show_default=True)
@click.option("--count", default=100, show_default=True)
@click.option("--save-fields/--no-save-fields", default=False, show_default=True)
def sample(config_file, output_dir, burn_in, stride, count, save_fields, **params):
    """Birkhoff-sample the invariant measure; report observable statistics."""
    resolved = _resolve(params, _load_config_file(config_file), _SIM_KEYS)
    cfg = _sim_config(resolved)
    outdir = _output_dir(output_dir)
    with _run_manifest(outdir, "sample", {**resolved, "burn_in": burn_in,
                                          "stride": stride, "count": count},
                       cfg.seed) as manifest:
        try:
            sset = birkhoff_sample(cfg, burn_in, stride, count)
        except ValueError as exc:
            raise Refused(str(exc))
        path = outdir / "samples.csv"
        rows = [
            (t, f.mean(), float((f.values**2).mean()), float((f.values**4).mean()))
            for t, f in zip(sset.times, sset.fields)
        ]
        _write_csv(path, ["t", "mean", "m2", "m4"], rows)
        manifest.add(path)
        if save_fields:
            for i, f in enumerate(sset.fields):
                p = outdir / f"sample_{i:04d}.field"
                save_field(f, p)
                manifest.add(p)
        summary = {
            "count": len(sset),
            "autocorrelation_time": sset.autocorrelation_time,
            "stride": stride,
            "stride_adequate": sset.stride_adequate,
            "blew_up": sset.blew_up,
        }
        (outdir / "sample_report.json").write_text(json.dumps(summary, indent=2) + "\n")
        manifest.add(outdir / "sample_report.json")
    click.echo(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()

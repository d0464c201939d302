"""The `phi4` command-line front-end.

Every subcommand writes its outputs plus a run manifest (manifest.json)
holding every option the subcommand resolved, the seed, the package version,
the numpy and scipy versions, the transforms the run made
(`spectral.transform_counts()`, which depend only on the inputs), the run's
status and a sha256 checksum per output file, so a run can be
reproduced and verified bit-for-bit.  One context, `_run()`, decides how a
run ends, and the manifest itself writes and checksums every output.  A
refused run still writes its manifest, with status "refused", the reason,
and the files written before the refusal; a run that dies of any other
exception or an interrupt writes it with status "error" and the exception's
type and text.

Exit codes
    0  success
    2  usage error (unknown flags / malformed arguments; raised by click)
    3  invalid configuration or input file
    4  experiment precondition refused: any precondition the library checks
       during the run (a ValueError, reported with its own text, e.g. too
       few samples, grid too coarse, burn-in too short) or a blow-up

Each subcommand takes only the options its code reads.  A config file
(--config) is flat `key = value` text ('#' comments) or a JSON object; a key
that is not an option of the subcommand, or a value its option's type
rejects, exits 3.  Flag beats config file beats default; $PHI4_OUTPUT_DIR
sits between the flag and the file for --output-dir (default: the current
directory).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import click
import numpy as np
import scipy

from . import __version__
from .dynamics import BlowUpError, Diagnostics, SimConfig, coming_down_experiment, simulate_u
from .noise import NoiseStream
from .observables import MIN_CUMULANT_SAMPLES, birkhoff_sample, fourth_cumulant, probe_moments
from .paraproduct import estimate_regularity, regularity_window
from .powercount import GraphError, gamma_range, parse_graph
from .renorm import a_closed, a_numeric, b_closed, b_numeric, check_b_numeric_r, minimal_n_for
from .spectral import Grid, save_field, transform_counts
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
    transforms: dict[str, int] = field(default_factory=dict)  # made by the run

    def add(self, path: Path) -> Path:
        self.outputs[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return path

    @contextlib.contextmanager
    def csv_rows(self, path: Path, header: list[str]):
        """Yield a csv writer of path, its header written, and record the
        file when the block ends; a block that raises deletes the file."""
        try:
            with path.open("w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                yield w
        except BaseException:
            path.unlink()
            raise
        self.add(path)

    def write_csv(self, path: Path, header: list[str], rows) -> Path:
        with self.csv_rows(path, header) as w:
            w.writerows(rows)
        return path

    def write_json(self, path: Path, payload) -> Path:
        _dump_json(path, payload)
        return self.add(path)

    def write_field(self, path: Path, f) -> Path:
        save_field(f, path)
        return self.add(path)

    def write(self, directory: Path) -> None:
        _dump_json(directory / "manifest.json", asdict(self))


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")


@contextlib.contextmanager
def _run():
    """Yield (output directory, manifest) for the running subcommand, and write
    the manifest, recording every option the subcommand resolved, when the
    block exits, also when the run is refused or dies of an error.  A
    ValueError (a precondition the library checks) or a BlowUpError that
    leaves the block refuses the run (exit 4) with its own text."""
    ctx = click.get_current_context()
    config = {p.name: ctx.params[p.name] for p in ctx.command.params}
    outdir = Path(config["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(ctx.command.name, config, config.get("seed"), __version__)
    before = transform_counts()
    try:
        yield outdir, manifest
    except Refused as exc:
        manifest.status, manifest.message = "refused", exc.message
        raise
    except (ValueError, BlowUpError) as exc:
        manifest.status, manifest.message = "refused", str(exc)
        raise Refused(str(exc)) from exc
    except BaseException as exc:
        manifest.status, manifest.message = "error", f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest.transforms = {k: v - before[k] for k, v in transform_counts().items()}
        manifest.write(outdir)


def _load_config_file(path: str) -> dict:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
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
        out[key] = val
    return out


def _apply_config_file(ctx: click.Context, param: click.Parameter, path: str | None):
    """Make the config file the default map of ctx, each value cast by its
    option's own type, so that click lets a flag beat the file."""
    if path is None:
        return None
    options = {p.name: p for p in ctx.command.params if p is not param}
    defaults = {}
    for key, value in _load_config_file(path).items():
        name = key.replace("-", "_")
        if name not in options:
            raise InvalidConfig(f"{path}: {key!r} is not an option of 'phi4 {ctx.info_name}'")
        option = options[name]
        if (isinstance(option.type, click.types.IntParamType)
                and isinstance(value, float) and not value.is_integer()):
            # click's INT would truncate it with int()
            raise InvalidConfig(f"{path}: {key} = {value!r}: not an integer")
        try:
            defaults[name] = option.type_cast_value(ctx, value)
        except click.BadParameter as exc:
            raise InvalidConfig(f"{path}: {key} = {value!r}: {exc.message}")
    ctx.default_map = defaults
    return path


def _parse_sweep(option: str, spec: str) -> list[float]:
    """'1e-4:1e-2:8' -> 8 log-spaced values; a comma list is taken verbatim.
    A malformed spec exits 3."""
    try:
        if ":" in spec:
            lo, hi, num = spec.split(":")
            return list(np.geomspace(float(lo), float(hi), int(num)))
        return [float(s) for s in spec.split(",")]
    except ValueError as exc:
        raise InvalidConfig(f"bad {option} {spec!r}: {exc}")


def _sim_config(params: dict) -> SimConfig:
    """The SimConfig of a subcommand's options.  Fields without an option keep
    their defaults; horizon, read only by simulate and comedown, defaults to 1."""
    fields = {f.name for f in dataclasses.fields(SimConfig)}
    try:
        cfg = SimConfig(**{"horizon": 1.0, **{k: v for k, v in params.items() if k in fields}})
        cfg.grid  # validates n and period
    except (ValueError, TypeError) as exc:
        raise InvalidConfig(str(exc))
    return cfg


# The options several subcommands share, keyed by parameter name.
_OPTIONS = {
    "n": click.option("--n", default=32, help="grid points per axis"),
    "r": click.option("--r", default=0.01, help="noise regularization scale"),
    "dt": click.option("--dt", default=0.01, help="time step"),
    "horizon": click.option("--horizon", default=1.0, help="final time"),
    "period": click.option("--period", default=2 * math.pi, help="torus period L"),
    "coupling": click.option("--coupling", default=1.0, help="coupling constant"),
    "counterterm_a": click.option("--counterterm-a/--no-counterterm-a", default=True),
    "counterterm_b": click.option("--counterterm-b/--no-counterterm-b", default=True),
    "seed": click.option("--seed", default=0),
    "stream": click.option("--stream", default=0),
    "snapshot_stride": click.option("--snapshot-stride", default=10, type=click.IntRange(min=1),
                                    help="steps between snapshots"),
    "burn_in": click.option("--burn-in", default=5.0, help="time evolved before sampling"),
    "config_file": click.option("--config", "config_file", callback=_apply_config_file,
                                type=click.Path(exists=True, dir_okay=False), is_eager=True,
                                help="key=value or JSON file of this subcommand's options"),
    "output_dir": click.option("--output-dir", envvar="PHI4_OUTPUT_DIR", default=".",
                               show_envvar=True, help="output directory"),
}
_TREE_OPTIONS = ("n", "r", "dt", "period", "seed", "stream", "burn_in")
_LANGEVIN_OPTIONS = ("coupling", "counterterm_a", "counterterm_b")


def _options(*names: str):
    """Apply the named options of _OPTIONS in order, then --config and --output-dir."""
    def decorate(fn):
        for name in reversed((*names, "config_file", "output_dir")):
            fn = _OPTIONS[name](fn)
        return fn
    return decorate


@click.group(context_settings={"show_default": True})
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
@_options("n", "r", "dt", "horizon", "period", *_LANGEVIN_OPTIONS, "seed", "stream",
          "snapshot_stride")
@click.option("--checkpoints/--no-checkpoints", default=True,
              help="save field snapshots in the binary Field format")
def simulate(checkpoints, **params):
    """Integrate the renormalized u-equation and stream diagnostics.

    Each snapshot's row of diagnostics.csv, and with --checkpoints its
    u_t*.field, is written as the snapshot is taken.  A blow-up refuses the
    run; the checkpoints written before it stay, and no diagnostics.csv does."""
    cfg = _sim_config(params)
    with _run() as (outdir, manifest):
        diagnostics = Diagnostics()
        csv_path = outdir / "diagnostics.csv"
        header = ["t", "L2", "L8", "besov_proxy", "weighted_norm"]
        with manifest.csv_rows(csv_path, header) as rows:

            def record(t, u):
                rows.writerow(diagnostics.row(t, u))
                if checkpoints:
                    manifest.write_field(outdir / f"u_t{t:.6f}.field", u)

            simulate_u(cfg, record)
    click.echo(f"wrote {csv_path} ({len(diagnostics.times)} rows)")


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


@main.command()
@_options(*_TREE_OPTIONS)
@click.option("--snapshots", default=1, type=click.IntRange(min=1))
@click.option("--sweep", default=None,
              help="r sweep 'lo:hi:num' for the divergence report instead of fields")
def trees(burn_in, snapshots, sweep, **params):
    """Build the enhanced-noise trees (or an r-sweep divergence report)."""
    if sweep:
        # the sweep sets its own r values, one stream per r and 8 snapshots
        ctx = click.get_current_context()
        for name in ("r", "stream", "snapshots"):
            if ctx.get_parameter_source(name) is not click.core.ParameterSource.DEFAULT:
                raise click.UsageError(f"--{name} does not apply with --sweep")
        r_values = _parse_sweep("--sweep", sweep)
    cfg = _sim_config(params)
    with _run() as (outdir, manifest):
        if sweep:
            rows = tree_divergence_report(cfg.grid, r_values, seed=cfg.seed,
                                          dt=cfg.dt, burn_in=burn_in)
            header = list(rows[0].keys())
            path = manifest.write_csv(outdir / "tree_divergence.csv", header,
                                      [[row[k] for k in header] for row in rows])
            click.echo(f"wrote {path} ({len(rows)} rows)")
        else:
            snaps = build_enhanced_noise(
                NoiseStream(cfg.seed, cfg.stream), cfg.grid, cfg.r,
                burn_in=burn_in, dt=cfg.dt, n_snapshots=snapshots, track_vref=True,
            )
            # no name holds a written slice while the next one is built
            for i in range(snapshots):
                for name, f in next(snaps).components().items():
                    manifest.write_field(outdir / f"tree_{name}_{i}.field", f)
            click.echo(f"wrote {len(manifest.outputs)} component fields")


# ---------------------------------------------------------------------------
# renorm-constants
# ---------------------------------------------------------------------------


@main.command("renorm-constants")
@click.option("--r", "sweep", required=True,
              help="sweep 'lo:hi:num' (log-spaced) or comma list")
@click.option("--n", default=None, type=int,
              help="grid size for a_numeric (default: minimal converged N per r)")
@click.option("--with-b-numeric/--no-b-numeric", default=True)
@_OPTIONS["output_dir"]
def renorm_constants(sweep, n, with_b_numeric, output_dir):
    """Tabulate a_r, b_r: closed forms vs numerical counterparts."""
    r_values = _parse_sweep("--r", sweep)
    try:
        fixed = None if n is None else Grid(dim=3, n=n)
    except ValueError as exc:
        raise InvalidConfig(f"bad --n: {exc}")
    try:
        minimal = [minimal_n_for(r, Grid(dim=3, n=2)) for r in r_values]
    except ValueError as exc:
        raise InvalidConfig(f"bad --r {sweep!r}: {exc}")
    with _run() as (outdir, manifest):
        if with_b_numeric:
            for r in r_values:
                check_b_numeric_r(r)
        rows = []
        for r, n_min in zip(r_values, minimal):
            a_num = a_numeric(fixed or Grid(dim=3, n=n_min), r)
            b_num = b_numeric(r) if with_b_numeric else float("nan")
            rows.append((r, a_closed(r), a_num, b_closed(r), b_num))
        path = manifest.write_csv(outdir / "renorm_constants.csv",
                                  ["r", "a_closed", "a_numeric", "b_closed", "b_numeric"], rows)
    click.echo(f"wrote {path} ({len(rows)} rows)")


# ---------------------------------------------------------------------------
# powercount
# ---------------------------------------------------------------------------


@main.command()
@click.option("--file", "path", required=True, type=click.Path(exists=True),
              help="graph DSL file")
@click.option("--json", "as_json", is_flag=True, help="emit the full verdict structure")
@_OPTIONS["output_dir"]
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
        with _run() as (outdir, manifest):
            manifest.write_json(outdir / f"{Path(path).stem}_verdicts.json", payload)
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
@_options(*_TREE_OPTIONS)
@click.option("--component", default="X", help="tree component to estimate (X, W2, W3, I2, I3)")
@click.option("--samples", default=32)
@click.option("--j-min", default=1)
def regularity(component, samples, burn_in, j_min, **params):
    """Estimate the Besov regularity exponent of a tree component."""
    cfg = _sim_config(params)
    with _run() as (outdir, manifest):
        if component not in ("X", "W2", "W3", "I2", "I3"):
            raise Refused(f"unknown component {component!r}; choose X, W2, W3, I2 or I3")
        regularity_window(cfg.grid, samples, j_min)
        snaps = build_enhanced_noise(
            NoiseStream(cfg.seed, cfg.stream), cfg.grid, cfg.r,
            burn_in=burn_in, dt=cfg.dt, n_snapshots=samples,
            snapshot_stride=0.5, with_resonants=False,
        )
        fit = estimate_regularity((getattr(s, component) for s in snaps), j_min=j_min)
        payload = {
            "component": component,
            "gamma_hat": fit.gamma_hat,
            "stderr": fit.stderr,
            "levels": fit.levels,
            "log2_energy": fit.log2_energy,
        }
        manifest.write_json(outdir / f"regularity_{component}.json", payload)
    click.echo(f"{component}: {fit}")


# ---------------------------------------------------------------------------
# comedown
# ---------------------------------------------------------------------------


@main.command()
@_options("n", "r", "dt", "horizon", "period", "seed", "stream")
@click.option("--sizes", default="3,30,300",
              help="initial Besov sizes, comma list or 'lo:hi:num'")
@click.option("--p", default=8, help="even L^p exponent >= 8")
def comedown(sizes, p, **params):
    """Coming-down-from-infinity experiment for the v-equation (lambda = 1)."""
    initial = _parse_sweep("--sizes", sizes)
    cfg = _sim_config(params)
    with _run() as (outdir, manifest):
        report = coming_down_experiment(cfg, initial, p=p)
        header = ["t"] + [f"Lp_size_{s:g}" for s in initial]
        rows = [
            [t] + [report["norms"][j][i] for j in range(len(initial))]
            for i, t in enumerate(report["times"])
        ]
        manifest.write_csv(outdir / "comedown.csv", header, rows)
        summary = {k: v for k, v in report.items() if k not in ("times", "norms")}
        manifest.write_json(outdir / "comedown.json", summary)
    click.echo(json.dumps(summary, indent=2))


# ---------------------------------------------------------------------------
# cumulant and sample
# ---------------------------------------------------------------------------


@main.command()
@_options(*_TREE_OPTIONS, *_LANGEVIN_OPTIONS)
@click.option("--stride", default=0.5)
@click.option("--count", default=200, type=click.IntRange(min=1))
@click.option("--probes", default="0.08:0.01:4", help="r_probe sweep 'hi:lo:num' or comma list")
@click.option("--streams", default=1, type=click.IntRange(min=1),
              help="independent trajectories pooled for samples; must divide --count")
def cumulant(burn_in, stride, count, probes, streams, **params):
    """Fourth-cumulant non-Gaussianity sweep over probe scales."""
    cfg = _sim_config(params)
    if count % streams:
        raise InvalidConfig(f"--streams {streams} does not divide --count {count}")
    r_probes = _parse_sweep("--probes", probes)
    if not all(rp > 0 for rp in r_probes):
        raise InvalidConfig(f"bad --probes {probes!r}: every probe scale must be positive")
    with _run() as (outdir, manifest):
        if count < MIN_CUMULANT_SAMPLES:
            raise Refused(f"need at least {MIN_CUMULANT_SAMPLES} decorrelated samples, "
                          f"got --count {count}")
        moments, report = [], []  # moments: one (probes, 2) array per sample
        for s in range(streams):
            scfg = dataclasses.replace(cfg, stream=cfg.stream + s)
            mixing = birkhoff_sample(scfg, burn_in, stride, count // streams,
                                     lambda t, u: moments.append(probe_moments(u, r_probes)))
            report.append({"stream": scfg.stream, "tau_int": mixing.tau_int,
                           "stride_adequate": mixing.stride_adequate})
        manifest.write_json(outdir / "cumulant_report.json",
                            {"stride": stride, "streams": report})
        pooled = np.array(moments)
        rows = []
        for p, rp in enumerate(r_probes):
            est = fourth_cumulant(pooled[:, p], rp)
            rows.append((rp, est.c4, est.stderr, est.significance, est.n_samples))
            click.echo(str(est))
        path = manifest.write_csv(outdir / "cumulant.csv",
                                  ["r_probe", "c4", "stderr", "significance", "n_samples"],
                                  rows)
    click.echo(f"wrote {path}")


@main.command()
@_options(*_TREE_OPTIONS, *_LANGEVIN_OPTIONS)
@click.option("--stride", default=0.5)
@click.option("--count", default=100, type=click.IntRange(min=1))
@click.option("--save-fields/--no-save-fields", default=False)
def sample(burn_in, stride, count, save_fields, **params):
    """Birkhoff-sample the invariant measure; report observable statistics."""
    cfg = _sim_config(params)
    with _run() as (outdir, manifest):
        index = itertools.count()
        with manifest.csv_rows(outdir / "samples.csv", ["t", "mean", "m2", "m4"]) as rows:

            def record(t, f):
                w2 = f.values**2
                rows.writerow((t, f.mean(), float(w2.mean()), float((w2**2).mean())))
                if save_fields:
                    manifest.write_field(outdir / f"sample_{next(index):04d}.field", f)

            mixing = birkhoff_sample(cfg, burn_in, stride, count, record)
        summary = {
            "count": count,
            "autocorrelation_time": mixing.tau_int,
            "stride": stride,
            "stride_adequate": mixing.stride_adequate,
        }
        manifest.write_json(outdir / "sample_report.json", summary)
    click.echo(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()

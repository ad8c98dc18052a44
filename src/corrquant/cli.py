"""Command-line interface.

Verbs: quantify incompat|steer|nonlocal, sweep, seesaw, reproduce,
project-ns, certificate.  Exit codes: 0 success, 2 validation error,
3 solver failure.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import click
import numpy as np

from . import incompat as ic
from . import nonlocality as nl
from . import serialize
from . import steering as st
from .errors import CorrquantError, SolverFailure, ValidationError
from .experiments import SweepSpec, reproduce, seesaw_optimize, sweep
from .scenario import Assemblage, Behaviour, MeasurementSet

EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    if isinstance(exc, SolverFailure):
        if exc.program is not None:
            path = None
            try:
                fd, path = tempfile.mkstemp(prefix="corrquant_failed_program_",
                                            suffix=".triplets")
                os.close(fd)
                exc.write_dump(path)
                click.echo(f"program dump written to {path}", err=True)
            except OSError as err:
                click.echo(f"program dump not written: {err}", err=True)
                if path is not None:
                    os.unlink(path)
        sys.exit(EXIT_SOLVER)
    sys.exit(EXIT_VALIDATION)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=1, default=_jsonify)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return np.stack([obj.real, obj.imag], axis=-1).tolist()
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class _OutPath(click.Path):
    """A file to write: not a directory, and in a directory that exists
    (not a missing folder, nor a file), so a bad path is refused before
    any solve."""

    def __init__(self):
        super().__init__(dir_okay=False)

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            self.fail(f"{click.format_filename(folder)!r} is not an existing directory.",
                      param, ctx)
        return path


class _Main(click.Group):
    """The one error boundary: every command's package error exits
    through ``_fail``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except CorrquantError as exc:
            _fail(exc)


@click.group(cls=_Main)
def main():
    """Robustness and weight quantifiers of measurement incompatibility,
    steering, and nonlocality."""


@main.command()
@click.argument("domain", type=click.Choice(["incompat", "steer", "nonlocal"]))
@click.option("--kind", "-k", required=True, help="quantifier kind")
@click.option("--in", "-i", "infile", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--level", "-l", default=2, show_default=True,
              help="moment-matrix relaxation level (nonlocal only)")
@click.option("--out", "-o", type=_OutPath(), help="write JSON here")
def quantify(domain, kind, infile, level, out):
    """Evaluate one quantifier on a serialized object."""
    obj = serialize.load(infile)
    if domain == "incompat":
        if not isinstance(obj, MeasurementSet):
            raise ValidationError(f"{infile}: expected a measurement set")
        res = ic.incompatibility_quantifier(obj, kind)
        payload = {"domain": domain, "kind": res.kind.value,
                   "value": res.value, "gap": res.gap,
                   "witness_value": res.witness.value,
                   "witness_bound": res.witness.bound}
    elif domain == "steer":
        if not isinstance(obj, Assemblage):
            raise ValidationError(f"{infile}: expected an assemblage")
        res = st.steering_quantifier(obj, kind)
        payload = {"domain": domain, "kind": res.kind.value,
                   "value": res.value, "gap": res.gap,
                   "inequality_bound": res.inequality.bound,
                   "inequality_violation": res.inequality.violation}
    else:
        if not isinstance(obj, Behaviour):
            raise ValidationError(f"{infile}: expected a behaviour")
        res = nl.nonlocality_quantifier(obj, kind, level=level)
        payload = {"domain": domain, "kind": res.kind.value,
                   "value": res.value,
                   "certified_lower_bound": res.certified_lower_bound,
                   "level": res.level, "gap": res.gap,
                   "inequality_bound": res.inequality.bound,
                   "inequality_violation": res.inequality.violation}
    _emit(payload, out)


@main.command("sweep")
@click.option("--spec", "-s", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", type=_OutPath(), help="CSV output path")
def sweep_cmd(spec, out):
    """Run a quantifier sweep described by a JSON spec file."""
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{spec}: invalid JSON ({exc})") from exc
    result = sweep(SweepSpec.from_dict(data))
    csv_text = result.to_csv()
    if out:
        with open(out, "w") as fh:
            fh.write(csv_text)
    else:
        click.echo(csv_text, nl=False)
    click.echo(json.dumps({"thresholds": result.thresholds,
                           "linfit_max_dev": result.linfit_max_dev},
                          default=_jsonify), err=True)


@main.command("seesaw")
@click.option("--theta", "-t", required=True, type=float)
@click.option("--kind", "-k", required=True)
@click.option("--restarts", "-r", default=3, show_default=True, type=int)
@click.option("--seed", "-S", default=0, show_default=True, type=int)
@click.option("--level", "-l", default=2, show_default=True, type=int)
@click.option("--out", "-o", type=_OutPath())
def seesaw_cmd(theta, kind, restarts, seed, level, out):
    """See-saw optimization of Bob's two measurements at a given angle."""
    res = seesaw_optimize(theta, kind, restarts=restarts, seed=seed,
                          level=level)
    payload = {"theta": theta, "kind": str(kind), "value": res.value,
               "history": res.state.history, "converged": res.state.converged,
               "restarts": res.restarts,
               "bob": serialize.grid_to_dict(res.bob)}
    _emit(payload, out)


@main.command("reproduce")
@click.argument("target", type=click.Choice(
    ["table1", "fig1", "fig2", "fig3", "table2"]))
@click.option("--outdir", "-d", default="corrquant_out", show_default=True,
              type=click.Path(file_okay=False))
@click.option("--extended", is_flag=True,
              help="include the 10-measurement Bennet row (slow)")
def reproduce_cmd(target, outdir, extended):
    """Recompute a published table or figure's data files."""
    if target == "table1" and not extended:
        click.echo("note: Bennet row requires --extended", err=True)
    summary = reproduce(target, outdir, extended=extended)
    for path in summary.get("files", []):
        click.echo(f"wrote {path}")
    alerts = summary.get("regression_alerts", [])
    for alert in alerts:
        click.echo(f"regression: {alert}", err=True)
    if alerts:
        sys.exit(EXIT_SOLVER)


@main.command("project-ns")
@click.option("--in", "-i", "infile", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", type=_OutPath())
def project_ns_cmd(infile, out):
    """Project a (possibly signalling) behaviour or count table onto the
    no-signalling polytope."""
    obj = serialize.load(infile)
    if isinstance(obj, np.ndarray):          # counts
        obj = nl.behaviour_from_counts(obj)
    if not isinstance(obj, Behaviour):
        raise ValidationError(f"{infile}: expected a behaviour or counts")
    proj = nl.ns_project(obj.table)
    payload = serialize.behaviour_to_dict(proj.behaviour)
    payload["divergence"] = proj.divergence
    payload["kkt_residual"] = proj.kkt_residual
    payload["boundary_flag"] = proj.boundary_flag
    _emit(payload, out)


@main.command("certificate")
@click.option("--in", "-i", "infile", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", "-k", required=True)
@click.option("--level", "-l", default=2, show_default=True, type=int)
@click.option("--out", "-o", type=_OutPath())
def certificate_cmd(infile, kind, level, out):
    """Extract the dual inequality certified by a quantifier solve."""
    obj = serialize.load(infile)
    if isinstance(obj, Assemblage):
        res = st.steering_quantifier(obj, kind)
        cert = st.steering_certificate(res, obj)
        payload = {"domain": "steer", "kind": res.kind.value,
                   "value": res.value, "bound": cert.bound,
                   "violation": cert.violation,
                   "coefficients": cert.coefficients,
                   "text": cert.to_text()}
    elif isinstance(obj, Behaviour):
        res = nl.nonlocality_quantifier(obj, kind, level=level)
        cert = nl.bell_certificate(res, obj)
        payload = {"domain": "nonlocal", "kind": res.kind.value,
                   "value": res.value, "bound": cert.bound,
                   "violation": cert.violation, "level": cert.level,
                   "coefficients": cert.coefficients}
    elif isinstance(obj, MeasurementSet):
        res = ic.incompatibility_quantifier(obj, kind)
        payload = {"domain": "incompat", "kind": res.kind.value,
                   "value": res.value, "bound": res.witness.bound,
                   "violation": res.witness.value,
                   "coefficients": res.witness.coefficients}
    else:
        raise ValidationError(f"{infile}: unsupported object")
    _emit(payload, out)


if __name__ == "__main__":
    main()

"""Command line runner for the experiment catalog.

`polymer run config.json` executes one experiment and writes a JSON report;
`polymer list` prints the catalog. Reports are byte-identical across reruns
with the same config and seed, except for the wallclock field.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click

from .experiments import EXPERIMENTS, RunContext, run_experiment

_CONFIG_KEYS = {"experiment", "params", "seeds", "out_dir", "emit_csv"}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise click.ClickException("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise click.ClickException(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in cfg:
        raise click.ClickException("config is missing 'experiment'")
    if cfg["experiment"] not in EXPERIMENTS:
        raise click.ClickException(f"unknown experiment {cfg['experiment']!r}")
    seeds = cfg.get("seeds", [20260801])
    # type(), not isinstance: JSON true/false load as bool, a subclass of int
    if not isinstance(seeds, list) or not seeds or \
            not all(type(s) is int for s in seeds):
        raise click.ClickException("'seeds' must be a non-empty list of integers")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise click.ClickException("'params' must be an object")
    if type(cfg.get("emit_csv", False)) is not bool:
        raise click.ClickException("'emit_csv' must be true or false")
    if not isinstance(cfg.get("out_dir", ""), str):
        raise click.ClickException("'out_dir' must be a string")
    cfg["seeds"] = seeds
    cfg["params"] = params
    return cfg


@click.group()
def main():
    """Seeded verification experiments for half-space polymer models."""


@main.command("list")
def list_experiments():
    """Print the experiment catalog and what each experiment verifies."""
    width = max(len(name) for name in EXPERIMENTS)
    for name, exp in EXPERIMENTS.items():
        click.echo(f"{name:<{width}}  {exp.verifies}")


@main.command("run")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed-override", type=int, default=None,
              help="Replace the seed list from the config with one seed.")
@click.option("--workers", type=click.IntRange(min=1), default=1,
              show_default=True,
              help="Worker threads for sample batches.")
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Directory for the report, checkpoints and CSV dumps.")
def run(config, seed_override, workers, out):
    """Run one experiment from a JSON config and write its report."""
    try:
        cfg = _load_config(config)
    except click.ClickException as exc:
        click.echo(f"error: {exc.message}", err=True)
        sys.exit(2)
    seeds = [seed_override] if seed_override is not None else cfg["seeds"]
    out_dir = out or cfg.get("out_dir")
    ctx = RunContext(out_dir=Path(out_dir) if out_dir else None,
                     workers=workers,
                     emit_csv=cfg.get("emit_csv", False))
    if ctx.out_dir is not None:
        try:
            ctx.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            click.echo(f"error: cannot create output directory {out_dir!r}: "
                       f"{exc.strerror}", err=True)
            sys.exit(2)
    start = time.monotonic()
    try:
        report = run_experiment(cfg["experiment"], cfg["params"], seeds, ctx)
    except (ValueError, KeyError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    report["wallclock_s"] = round(time.monotonic() - start, 3)
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if ctx.out_dir is not None:
        (ctx.out_dir / f"{cfg['experiment']}_report.json").write_text(text + "\n")
    click.echo(text)
    sys.exit(0 if report["pass"] else 1)


if __name__ == "__main__":
    main()

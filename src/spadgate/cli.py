"""Command line front end.

Subcommands:
  pixel   single scene point, every configured policy x seed
  sweep   cartesian sweep over configured axes
  scan    full scene grid in serpentine order
  check   validate a config and print its canonical form
  oracle  self-checks of the analytic building blocks

Exit codes: 0 success, 1 config error, 2 some rows failed, 3 fatal error
or oracle failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ConfigError,
    ExperimentConfig,
    aggregate_rows,
    normalization_check,
    parse_config,
    proposition_check,
    run_scene_scan,
    run_sweep,
    serialize_config,
    write_aggregates_csv,
    write_map_csv,
    write_results_csv,
)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spadgate", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, threads: bool = True) -> None:
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override experiment.global_seed")
        if threads:
            p.add_argument("--threads", type=_positive_int, default=1, help="worker processes (default 1)")
        p.add_argument("--out", default=None, help="override experiment.out_dir")

    p = sub.add_parser("pixel", help="run one scene point")
    add_common(p)
    p.set_defaults(func=_pixel_cmd)

    p = sub.add_parser("sweep", help="run the configured parameter sweep")
    add_common(p)
    p.set_defaults(func=_sweep_cmd)

    p = sub.add_parser("scan", help="scan a scene grid")
    add_common(p)
    p.set_defaults(func=_scan_cmd)

    p = sub.add_parser("check", help="validate a config file")
    add_common(p, threads=False)
    p.set_defaults(func=_check_cmd)

    p = sub.add_parser("oracle", help="run the analytic self-checks")
    p.add_argument("--seed", type=int, default=None, help="seed of the normalization check (default 2024)")
    p.set_defaults(func=_oracle_cmd)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"fatal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _load(args: argparse.Namespace) -> ExperimentConfig:
    """The config file with ``--seed`` and ``--out`` applied, parsed again so the overrides keep their rules."""
    raw = parse_config(args.config).to_dict()
    if args.seed is not None:
        raw["experiment"]["global_seed"] = args.seed
    if args.out is not None:
        raw["experiment"]["out_dir"] = args.out
    return parse_config(raw)


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_sweep(config: ExperimentConfig, rows, aggs, failures) -> int:
    out = _out_dir(config)
    write_results_csv(out / "results.csv", rows)
    write_aggregates_csv(out / "aggregates.csv", aggs)
    for a in aggs:
        print(
            f"{a.policy}: n={a.n_rows} rmse_m={a.rmse_m:.6g} "
            f"zero_one={a.mean_zero_one_loss:.4g} exposure_us={a.mean_exposure_us:.6g}"
        )
    print(f"wrote {out / 'results.csv'} ({len(rows)} rows)")
    if failures:
        for f in failures[:10]:
            print(f"row {f.stream_index} ({f.policy}) failed: {f.error}", file=sys.stderr)
        print(f"{len(failures)} of {len(rows) + len(failures)} rows failed", file=sys.stderr)
        return 2
    return 0


def _pixel_cmd(args: argparse.Namespace) -> int:
    config = _load(args)
    # A pixel run is the sweep machinery with the axes collapsed to the
    # scene's single operating point.
    config = replace(config, sweep_ambient_flux=None, sweep_sbr=None,
                     sweep_dead_time_ns=None, sweep_budget_us=None)
    rows, aggs, failures = run_sweep(config, threads=args.threads)
    return _emit_sweep(config, rows, aggs, failures)


def _sweep_cmd(args: argparse.Namespace) -> int:
    config = _load(args)
    rows, aggs, failures = run_sweep(config, threads=args.threads)
    return _emit_sweep(config, rows, aggs, failures)


def _scan_cmd(args: argparse.Namespace) -> int:
    config = _load(args)
    rows, maps, failures = run_scene_scan(config, threads=args.threads)
    out = _out_dir(config)
    for policy_name, grids in maps.items():
        for key, grid in grids.items():
            write_map_csv(out / f"{policy_name}_{key}.csv", grid)
    return _emit_sweep(config, rows, aggregate_rows(rows), failures)


def _check_cmd(args: argparse.Namespace) -> int:
    config = _load(args)
    sys.stdout.write(serialize_config(config))
    return 0


def _oracle_cmd(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 2024
    ok = True

    dev = normalization_check(seed=seed)
    passed = dev < 1e-12
    ok &= passed
    print(f"[{'PASS' if passed else 'FAIL'}] outcome distributions sum to one "
          f"(max deviation {dev:.3e}, tolerance 1e-12)")

    passed, detail = proposition_check()
    ok &= passed
    print(f"[{'PASS' if passed else 'FAIL'}] {detail}")

    return 0 if ok else 3

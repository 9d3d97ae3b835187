"""Command-line front end: generate datasets, run experiments, format reports.

Verbs:

* ``generate`` -- write a synthetic dataset (built-in preset or a spec file).
* ``run``      -- execute an experiment config over its seeds, or over the
  ``--seeds`` list, in ``--jobs`` stacks; writes one run record JSON and one
  trajectory CSV per seed plus the aggregate table. ``sweep`` is another
  name for it.
* ``report``   -- re-aggregate previously written run records into tables.

Exit codes: 0 success, 1 runtime failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .config import ExperimentConfig, decode
from .datafiles import (
    load_run_record,
    load_yaml,
    resolve_dataset,
    save_model,
    save_run_record,
    write_dataset,
    write_trajectory_csv,
)
from .engine import run_sweep
from .errors import ConfigurationError, PoolalError
from .reporting import group_and_aggregate, render_table, write_report_csv
from .synthgen import PRESETS, GeneratorSpec, generate

__all__ = ["main", "entry", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolal",
        description="Pool-based active-learning experiments: generate data, run arms, report tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to a directory")
    gen_src = gen.add_mutually_exclusive_group(required=True)
    gen_src.add_argument("--preset", choices=sorted(PRESETS), help="built-in generator preset")
    gen_src.add_argument("--spec", type=Path, help="YAML generator spec file")
    gen.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    gen.add_argument("--out", type=Path, required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", aliases=["sweep"], help="execute the experiment config over its seeds")
    run.add_argument("--config", type=Path, required=True, help="experiment config YAML")
    # ``--seed N`` still parses: argparse takes it as the unambiguous prefix of ``--seeds``
    run.add_argument("--seeds", type=str, default=None, help="comma-separated seed list override")
    run.add_argument("--jobs", type=int, default=1, help="stacks of seeds run at once, one process each")
    run.add_argument("--out", type=Path, default=None, help="override the config's output directory")
    run.add_argument("--save-models", action="store_true", help="also write terminal model checkpoints")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="aggregate run record files into tables")
    rep.add_argument("records", nargs="+", type=Path, help="run record JSON files")
    rep.add_argument("--out", type=Path, default=None, help="directory for report.txt / report.csv")
    rep.set_defaults(func=cmd_report)
    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    if args.preset:
        spec = PRESETS[args.preset]() if args.seed is None else PRESETS[args.preset](seed=args.seed)
    else:
        payload = load_yaml(args.spec)
        if args.seed is not None:
            payload["seed"] = args.seed
        spec = decode(GeneratorSpec, payload, args.spec)
    bundle = generate(spec)
    dataset_hash = write_dataset(bundle, args.out, generator_spec=spec)
    counts = ", ".join(
        f"{name}={n}" for name, n in zip(bundle.class_names, bundle.split_counts(bundle.train))
    )
    print(f"wrote dataset to {args.out} (hash {dataset_hash}; train counts: {counts})")
    return 0


def _parse_seed_override(args: argparse.Namespace, config: ExperimentConfig) -> list[int]:
    if args.seeds is None:
        return list(config.seeds)
    try:
        return [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigurationError(f"bad --seeds list {args.seeds!r}") from None


def cmd_run(args: argparse.Namespace) -> int:
    config = decode(ExperimentConfig, load_yaml(args.config), args.config)
    seeds = _parse_seed_override(args, config)
    out_dir = Path(args.out) if args.out is not None else Path(config.output_dir)
    nearest = next(p for p in (out_dir, *out_dir.absolute().parents) if p.exists())
    if not nearest.is_dir():
        where = "exists and" if nearest is out_dir else f"is under {nearest}, which"
        raise ConfigurationError(f"output path {out_dir} {where} is not a directory")

    bundle, dataset_hash = resolve_dataset(config.dataset)
    print(
        f"dataset {config.dataset} (hash {dataset_hash}): "
        f"{len(bundle.train)} train / {len(bundle.validation)} val / {len(bundle.test)} test",
        file=sys.stderr,
    )

    records = run_sweep(bundle, config, seeds, dataset_hash, jobs=args.jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config.config_hash()
    for record in records:
        stem = f"{chash}-seed{record.seed}"
        save_run_record(record, out_dir / f"run-{stem}.json")
        write_trajectory_csv(record, out_dir / f"trajectory-{stem}.csv")
        if args.save_models and record.terminal_model is not None:
            save_model(record.terminal_model, out_dir / f"model-{stem}.json", config_hash=chash)
        print(
            f"seed {record.seed}: labeled {record.total_labeled} "
            f"({100 * record.labeled_fraction_of_train:.1f}% of train), "
            f"test macro F1 {100 * record.final_test_metrics.macro_f1:.2f}, "
            f"stopped: {record.stop_reason}",
            file=sys.stderr,
        )

    reports = group_and_aggregate(records)
    table = render_table(reports)
    (out_dir / f"aggregate-{chash}.txt").write_text(table, encoding="utf-8")
    write_report_csv(reports, out_dir / f"aggregate-{chash}.csv")
    print(table, end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    records = [load_run_record(p) for p in args.records]
    reports = group_and_aggregate(records)
    table = render_table(reports)
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(table, encoding="utf-8")
        write_report_csv(reports, out_dir / "report.csv")
    print(table, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PoolalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> int:
    """The ``poolal`` command: :func:`main`, then a GC freeze; ``main`` never freezes, so it can run in-process."""
    code = main()
    gc.freeze()  # every output is closed by now; the exit's final collections skip the frozen objects
    return code


if __name__ == "__main__":
    sys.exit(entry())

"""poolal benchmark: quickstart-shaped pipelines run through the real CLI, timed end to end.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a poolal source tree. Each round of a workload is the
quickstart pipeline ``poolal generate -> run/sweep -> report``, launched as
separate processes one after another (a closed loop with one client), with
BLAS thread pools pinned to one thread. Rounds repeat until the next one would
overrun ``--seconds``; the metrics are medians over rounds. Every output is
checked by ``check.py``, which shares no code with the program.

The last line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A traced run alternates untraced and
traced rounds; the traced ones run every command through
``traced_poolal.py``. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy is imported, here and in every child

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check import Checks, check_aggregate, check_identical, check_records  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACER = Path(__file__).resolve().parent / "traced_poolal.py"

# Fixed-length training (patience == max_epochs) keeps the work of a run
# independent of the seed: with patience 5 the epoch count of one train call
# swings by 2x between seeds, which would show as spread between runs.
SOFTMAX = {"kind": "softmax_linear", "learning_rate": 0.1, "batch_size": 64, "max_epochs": 15, "patience": 15}
MLP = {"kind": "mlp", "hidden_units": 32, "learning_rate": 0.1, "batch_size": 64, "max_epochs": 15, "patience": 15}
FNR = {
    "dataset": "data",
    "arm": "al",
    "strategy": "fnr_proportional",
    "per_class_initial": 2500,
    "budget": 2000,
    "max_iterations": 5,
    "stop_on_exhaustion": False,
    "output_dir": "out",
    "learner": SOFTMAX,
}
ENTROPY = {
    "dataset": "data",
    "arm": "al",
    "strategy": "entropy_topk",
    "candidate_count": 20000,
    "select_count": 1000,
    "per_class_initial": 200,
    "budget": 0,
    "max_iterations": 10,
    "output_dir": "out",
    "learner": SOFTMAX,
}
SL_FRACTIONS = (0.2, 0.6, 1.0)


def sl_config(fraction: float) -> dict:
    return {"dataset": "data", "arm": "sl", "sl_fraction": fraction, "output_dir": "out", "learner": MLP}


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, dict]  # config file name -> config
    verb: str  # run | sweep
    seeds: int  # run seeds per config
    jobs: int
    reference_jobs: int | None = None  # an untimed sweep at this --jobs must give byte-identical records


JOBS = min(2, len(os.sched_getaffinity(0)))  # never more worker processes than cores

WORKLOADS = {
    w.name: w
    for w in (
        # the --jobs 2 reference runs here, where the rounds are shorter, not in fnr-parallel
        Workload("fnr-serial", {"fnr.yaml": FNR}, "sweep", 2, 1, JOBS if JOBS > 1 else None),
        Workload("fnr-parallel", {"fnr.yaml": FNR}, "sweep", 2, JOBS),
        Workload("entropy-wide", {"entropy.yaml": ENTROPY}, "run", 1, 1),
        Workload("sl-ladder-mlp", {f"sl-{f}.yaml": sl_config(f) for f in SL_FRACTIONS}, "run", 2, 1),
    )
}


def derive_seeds(seed: int, n: int) -> tuple[int, list[int]]:
    """(dataset seed, run seeds) drawn from the benchmark seed."""
    rng = random.Random(seed)
    return rng.randrange(1, 2**31), [rng.randrange(2**31) for _ in range(n)]


@dataclass
class Command:
    argv: list[str]
    start: float
    dataset_at: float | None
    end: float
    maxrss_kb: int
    returncode: int
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(args: list[str], cwd: Path, trace_prefix: Path | None) -> Command:
    """Run one poolal command to its end; time its ``dataset ...`` stderr line and its peak RSS.

    ``os.wait4`` reports the largest resident set of the process and of the
    workers it reaped.
    """
    head = [sys.executable, str(TRACER), str(trace_prefix)] if trace_prefix else [sys.executable, "-m", "poolal.cli"]
    argv = head + args
    with open(cwd / "stdout.txt", "a", encoding="utf-8") as out:
        start = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.PIPE, text=True)
        dataset_at = None
        lines = []
        try:
            for line in p.stderr:
                if dataset_at is None and line.startswith("dataset "):
                    dataset_at = time.perf_counter()
                lines.append(line)
        except BaseException:
            p.kill()
            raise
        finally:
            p.stderr.close()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
        end = time.perf_counter()
    return Command(args, start, dataset_at, end, usage.ru_maxrss, p.returncode, "".join(lines))


def write_configs(round_dir: Path, w: Workload, run_seeds: list[int]) -> None:
    round_dir.mkdir(parents=True)
    for fname, cfg in w.configs.items():
        (round_dir / fname).write_text(json.dumps(dict(cfg, seeds=run_seeds), indent=2) + "\n", encoding="utf-8")


def run_args(w: Workload, fname: str, run_seeds: list[int], out: str = "out", jobs: int | None = None) -> list[str]:
    args = [w.verb, "--config", fname, "--out", out, "--save-models"]
    if w.verb == "sweep":
        args += ["--seeds", ",".join(map(str, run_seeds)), "--jobs", str(w.jobs if jobs is None else jobs)]
    return args


def run_round(round_dir: Path, w: Workload, dataset_seed: int, run_seeds: list[int], traced: bool) -> list[Command]:
    """One pass of the pipeline: generate, one run/sweep per config, report."""
    write_configs(round_dir, w, run_seeds)
    prefix = (lambda i: round_dir / "trace" / f"cmd{i}") if traced else (lambda i: None)
    if traced:
        (round_dir / "trace").mkdir()
    commands = [launch(["generate", "--preset", "paper-shape", "--seed", str(dataset_seed), "--out", "data"], round_dir, prefix(0))]
    for i, fname in enumerate(w.configs, start=1):
        commands.append(launch(run_args(w, fname, run_seeds), round_dir, prefix(i)))
    records = sorted(str(p.relative_to(round_dir)) for p in (round_dir / "out").glob("run-*.json"))
    commands.append(launch(["report", *records, "--out", "report"], round_dir, prefix(len(w.configs) + 1)))
    return commands


def round_metrics(commands: list[Command]) -> dict[str, float]:
    runs = [c for c in commands if c.argv[0] in ("run", "sweep")]
    setup = commands[0].end - commands[0].start + sum(c.dataset_at - c.start for c in runs)
    return {
        "setup_s": setup,
        "loop_s": sum(c.end - c.dataset_at for c in runs),
        "wall_s": commands[-1].end - commands[0].start,
        "peak_rss_mb": max(c.maxrss_kb for c in commands) / 1024.0,
    }


def check_round0(c: Checks, round_dir: Path, w: Workload, run_seeds: list[int]) -> float:
    """Full check of the first round's outputs; returns the mean test macro F1."""
    out = round_dir / "out"
    records = check_records(c, round_dir / "data", out)
    c.expect(len(records) == len(w.configs) * len(run_seeds), f"{out}: {len(records)} run records")
    for agg in sorted(out.glob("aggregate-*.csv")):
        chash = agg.stem[len("aggregate-") :]
        check_aggregate(c, [r for r in records if r["config_hash"] == chash], agg, agg.with_suffix(".txt"))
    check_aggregate(c, records, round_dir / "report" / "report.csv", round_dir / "report" / "report.txt")
    return statistics.fmean(r["final_test_metrics"]["macro_f1"] for r in records)


def check_same_as(c: Checks, a: Path, b: Path) -> None:
    """A later round produced byte-identical data, records, models and tables."""
    for sub, pattern in (("data", "*"), ("out", "*"), ("report", "*")):
        check_identical(c, a / sub, b / sub, pattern, f"{b.name}/{sub} vs {a.name}")


def layer_metrics(round_dir: Path, wall_traced: float) -> tuple[dict[str, float], dict]:
    """Per-layer totals over one traced round, plus a per-span summary with self times."""
    spans, per_row, import_s = [], {}, 0.0
    for path in sorted((round_dir / "trace").glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(dict(s, pid=payload["pid"]) for s in payload["spans"])
        for name, (calls, secs) in payload["per_row"].items():
            tot = per_row.setdefault(name, [0, 0.0])
            tot[0] += calls
            tot[1] += secs
        import_s += payload["import_s"] or 0.0

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key=None):
        return sum((s["end"] - s["start"]) if key is None else s.get(key, 0) for s in of(name))

    train = of("learner.train")
    steps = sum(s["steps"] for s in train)
    train_s = total("learner.train")
    scored = total("learner.predict", "rows")
    seed_spans = [s["end"] - s["start"] for s in of("engine.seed")]
    m = {
        "synthgen.generate_s": total("synthgen.generate"),
        "datafiles.write_dataset_s": total("datafiles.write_dataset"),
        "datafiles.read_dataset_s": total("datafiles.read_dataset"),
        "datafiles.dataset_bytes": sum(p.stat().st_size for p in (round_dir / "data").iterdir()),
        "datafiles.records_write_s": total("datafiles.records_write"),
        "core.bundle_build_s": total("core.bundle_build"),
        "core.split_initial_s": total("core.split_initial"),
        "core.training_set_extend_s": total("core.training_set_extend"),
        "core.pool_draw_s": total("core.pool_draw"),
        "core.pool_draw_rows": total("core.pool_draw", "rows"),
        "core.pool_give_back_s": total("core.pool_give_back"),
        "core.pool_give_back_rows": total("core.pool_give_back", "rows"),
        "learner.train_s": train_s,
        "learner.train_calls": len(train),
        "learner.epochs": sum(s["epochs"] for s in train),
        "learner.sgd_steps": steps,
        "learner.sgd_step_us": 1e6 * sum(s["self_s"] for s in train) / steps if steps else 0.0,
        "learner.rows_per_s": sum(s["rows"] for s in train) / train_s if train_s else 0.0,
        "learner.to_arrays_s": total("learner.to_arrays"),
        "learner.to_arrays_rows": total("learner.to_arrays", "rows"),
        "learner.predict_s": total("learner.predict"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.evaluate_calls": len(of("metrics.evaluate")),
        "strategy.entropy_select_s": total("strategy.entropy_select"),
        "strategy.entropy_of_s": per_row.get("strategy.entropy_of", [0, 0.0])[1],
        "strategy.entropy_of_calls": per_row.get("strategy.entropy_of", [0, 0.0])[0],
        "strategy.candidates_scored": scored,
        "strategy.selected_ratio": total("strategy.entropy_select", "rows") / scored if scored else 0.0,
        "strategy.allocate_s": total("strategy.allocate"),
        "strategy.sample_fraction_s": total("strategy.sample_fraction"),
        "engine.seed_s": statistics.median(seed_spans) if seed_spans else 0.0,
        "engine.self_s": sum(
            s["self_s"] for n in ("engine.seed", "engine.run_active_learning", "engine.run_supervised") for s in of(n)
        ),
        "reporting.aggregate_s": total("reporting.aggregate"),
        "cli.import_s": import_s,
    }
    summary = {}
    for s in spans:
        row = summary.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += s["self_s"]
    for name, (calls, secs) in per_row.items():
        summary[name] = {"calls": calls, "total_s": secs, "self_s": secs}
    return m, {"wall_s": wall_traced, "layers": summary, "spans": spans}


def task_payload(round_dir: Path, w: Workload, run_seeds: list[int]) -> dict[str, float]:
    """Pickle the (bundle, config, seed, dataset_hash) task that run_sweep sends a worker."""
    if w.verb != "sweep" or w.jobs < 2:
        return {"engine.task_pickle_bytes": 0, "engine.task_dump_s": 0.0, "engine.task_load_s": 0.0}
    sys.path.insert(0, str(SRC))
    from multiprocessing.reduction import ForkingPickler

    from poolal.config import ExperimentConfig
    from poolal.datafiles import read_dataset

    bundle, dataset_hash, _ = read_dataset(round_dir / "data")
    (fname,) = w.configs
    config = ExperimentConfig.from_dict(json.loads((round_dir / fname).read_text(encoding="utf-8")))
    t0 = time.perf_counter()
    blob = ForkingPickler.dumps((bundle, config, run_seeds[0], dataset_hash))
    t1 = time.perf_counter()
    pickle.loads(blob)
    t2 = time.perf_counter()
    return {"engine.task_pickle_bytes": len(blob), "engine.task_dump_s": t1 - t0, "engine.task_load_s": t2 - t1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "poolal" / "cli.py").is_file():
        print(f"error: no poolal source under {SRC}; run from the root of a poolal checkout", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    dataset_seed, run_seeds = derive_seeds(args.seed, w.seeds)
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"{w.name}: dataset seed {dataset_seed}, run seeds {run_seeds}, jobs {w.jobs}", file=sys.stderr)

    # compile and cache the program's bytecode before anything is timed
    subprocess.run([sys.executable, "-c", "import poolal.cli"], env=child_env(), check=True)

    c = Checks()
    commands_run = commands_failed = 0
    plain, traced, layers = [], [], []
    macro_f1 = None
    start = time.perf_counter()
    k, cost = 0, 0.0
    while True:
        t_round = time.perf_counter()
        is_traced = bool(args.trace) and k % 2 == 1
        round_dir = work / f"round-{k}"
        commands = run_round(round_dir, w, dataset_seed, run_seeds, is_traced)
        commands_run += len(commands)
        bad = [cmd for cmd in commands if cmd.returncode != 0 or (cmd.argv[0] in ("run", "sweep") and cmd.dataset_at is None)]
        commands_failed += len(bad)
        for cmd in bad:
            print(f"command failed ({cmd.returncode}): poolal {' '.join(cmd.argv)}\n{cmd.stderr}", file=sys.stderr)
        try:
            if k == 0:
                macro_f1 = check_round0(c, round_dir, w, run_seeds)
            else:
                check_same_as(c, work / "round-0", round_dir)
        except Exception as e:  # a malformed or missing output is a failed check, not a crash
            c.expect(False, f"round {k}: checker stopped on {type(e).__name__}: {e}")
        if not bad:
            m = round_metrics(commands)
            print(f"round {k}{' (traced)' if is_traced else ''}: " + ", ".join(f"{n} {v:.3f}" for n, v in m.items()), file=sys.stderr)
            (traced if is_traced else plain).append(m)
            if is_traced:
                layers.append(layer_metrics(round_dir, m["wall_s"]))
        cost = max(cost, time.perf_counter() - t_round)
        if k == 0 and w.reference_jobs:
            ref = launch(run_args(w, next(iter(w.configs)), run_seeds, out="ref", jobs=w.reference_jobs), round_dir, None)
            commands_run += 1
            if ref.returncode != 0:
                commands_failed += 1
            for pattern in ("run-*.json", "trajectory-*.csv"):
                check_identical(c, round_dir / "ref", round_dir / "out", pattern, f"jobs {w.reference_jobs} vs jobs {w.jobs}")
        if k > 0:
            shutil.rmtree(round_dir / "data", ignore_errors=True)
        k += 1
        if args.trace and k < 2:
            continue
        if time.perf_counter() - start + cost > args.seconds:  # the next round would overrun
            break

    if c.failures:
        print("check failures:\n  " + "\n  ".join(c.failures[:20]), file=sys.stderr)
    seeds_expected = k * len(w.configs) * len(run_seeds)
    attempted = commands_run + seeds_expected + c.attempted
    failed = commands_failed + len(c.failures)
    print(
        f"{k} rounds, {commands_run} commands, {c.attempted} checks ({len(c.failures)} failed), "
        f"{c.near_ties} near-tie test rows, {c.tie_orders} allocation ties broken against index order",
        file=sys.stderr,
    )

    metrics = {}
    if args.trace and layers and plain:
        for key in layers[0][0]:
            metrics[key] = statistics.median(layer[0][key] for layer in layers)
        metrics.update(task_payload(work / "round-0", w, run_seeds))
        # rounds alternate untraced, traced: pair each traced round with the one before it
        metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced))
        (work / "trace.json").write_text(json.dumps(layers[-1][1], indent=1) + "\n", encoding="utf-8")
    elif not args.trace and plain and macro_f1 is not None:
        metrics = {key: statistics.median(m[key] for m in plain) for key in plain[0]}
        metrics["test_macro_f1"] = macro_f1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": not c.failures and commands_failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items() if name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``poolal`` CLI command with spans recorded around its modules' public functions.

usage: python3 perfbench/traced_poolal.py TRACE_PREFIX POOLAL_ARGS...

The wrappers live here, not in the program: each wrapped function is swapped
for a timing wrapper in every ``poolal`` module that bound it, so calls made
through ``from .x import y`` names are caught too. Spans are kept in memory and
written to ``TRACE_PREFIX-<pid>-<n>.json`` when the command ends; a worker
process of a parallel sweep writes its spans after each seed it runs, because
workers leave through ``os._exit``. Each span carries its parent's id and its
self time (duration minus the time covered by its child spans). Functions
called per row (``entropy_of``) are not kept as spans; their calls and time
are summed, and their time still counts as child time of the caller.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

_t0 = time.perf_counter()
import poolal.cli  # noqa: E402  (timed: this is cli.import_s)

IMPORT_S = time.perf_counter() - _t0

from poolal import core, datafiles, engine, learner, reporting, strategy, synthgen  # noqa: E402


def _rows(n):
    return lambda args, kwargs, result: {"rows": n(args, result)}


def _train_counts(args, kwargs, result):
    config, train_set = args[0], args[1]
    epochs = result.stopped_epoch
    return {
        "epochs": epochs,
        "steps": math.ceil(train_set.size / config.batch_size) * epochs,
        "rows": train_set.size * epochs,
    }


# (owner, attribute, span name, counts from (args, kwargs, result), per-row)
TRACED = [
    (synthgen, "generate", "synthgen.generate", None, False),
    (datafiles, "write_dataset", "datafiles.write_dataset", None, False),
    (datafiles, "read_dataset", "datafiles.read_dataset", None, False),
    (datafiles, "save_run_record", "datafiles.records_write", None, False),
    (datafiles, "write_trajectory_csv", "datafiles.records_write", None, False),
    (datafiles, "save_model", "datafiles.records_write", None, False),
    (datafiles, "load_run_record", "datafiles.load_run_record", None, False),
    (core.DatasetBundle, "build", "core.bundle_build", None, False),
    (core, "split_initial", "core.split_initial", None, False),
    (core.TrainingSet, "extended", "core.training_set_extend", None, False),
    (core.ClassPools, "draw", "core.pool_draw", _rows(lambda a, r: len(r)), False),
    (core.ClassPools, "give_back", "core.pool_give_back", _rows(lambda a, r: len(a[1])), False),
    (learner, "train", "learner.train", _train_counts, False),
    (learner, "samples_to_arrays", "learner.to_arrays", _rows(lambda a, r: len(a[0])), False),
    (learner, "predict_batch", "learner.predict", None, False),
    (learner, "predict_proba", "learner.predict", _rows(lambda a, r: len(r)), False),
    (engine, "evaluate_model", "metrics.evaluate", None, False),
    (engine, "run_sweep", "engine.run_sweep", None, False),
    (engine, "_run_one_star", "engine.task", None, False),
    (engine, "run_one", "engine.seed", None, False),
    (engine, "run_active_learning", "engine.run_active_learning", None, False),
    (engine, "run_supervised", "engine.run_supervised", None, False),
    (strategy, "allocate_fnr", "strategy.allocate", None, False),
    (strategy, "allocate_proportional", "strategy.allocate", None, False),
    (strategy, "select_entropy_topk", "strategy.entropy_select", _rows(lambda a, r: len(r)), False),
    (strategy, "entropy_of", "strategy.entropy_of", None, True),
    (strategy, "sample_fraction", "strategy.sample_fraction", None, False),
    (reporting, "group_and_aggregate", "reporting.aggregate", None, False),
]


class Tracer:
    """Span recorder for one process; a forked worker starts its own empty record."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.main_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[list] = []  # [id, name, start, child seconds]
        self.per_row: dict[str, list] = {}  # name -> [calls, seconds]
        self.next_id = 0
        self.flushes = 0

    def wrap(self, fn, name: str, counts, per_row: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                self._reset()
            if name == "core.pool_give_back":  # materialize the generator once, to count it
                args = (args[0], list(args[1])) + args[2:]
            frame = [self.next_id, name, time.perf_counter(), 0.0]
            self.next_id += 1
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - frame[2]
                if self.stack:
                    self.stack[-1][3] += duration
            if per_row:
                total = self.per_row.setdefault(name, [0, 0.0])
                total[0] += 1
                total[1] += duration
            else:
                span = {
                    "id": frame[0],
                    "parent": self.stack[-1][0] if self.stack else None,
                    "name": name,
                    "start": frame[2],
                    "end": end,
                    "self_s": duration - frame[3],
                }
                if counts is not None:
                    span.update(counts(args, kwargs, result))
                self.spans.append(span)
            if name == "engine.task" and os.getpid() != self.main_pid:
                self.flush()
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "poolal" or n.startswith("poolal.")]
        for owner, attr, name, counts, per_row in TRACED:
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            original = raw.__func__ if is_classmethod else raw
            wrapped = self.wrap(original, name, counts, per_row)
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def flush(self, import_s: float | None = None) -> None:
        path = f"{self.prefix}-{self.pid}-{self.flushes}.json"
        payload = {"pid": self.pid, "import_s": import_s, "spans": self.spans, "per_row": self.per_row}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        self.flushes += 1
        self.spans, self.per_row = [], {}


def main() -> int:
    tracer = Tracer(sys.argv[1])
    tracer.install()
    try:
        return poolal.cli.main(sys.argv[2:])
    finally:
        tracer.flush(import_s=IMPORT_S)


if __name__ == "__main__":
    sys.exit(main())

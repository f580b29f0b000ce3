"""Command-line harness driving the desk-scale experiments.

Subcommands: gradcheck, flops, bench, shift, train, ablate, emcheck, maps.
Each reads a JSON config (--config; flops also takes flags, and bench and
emcheck need none), checks all of it against its TABLES entry before any
work runs, writes CSV/PGM artifacts into the --out directory, and prints
a one-line summary. Exit codes: 0 pass, 1 a check failed, 2 config error
(it names the key).

The RPATTN_THREADS environment variable caps BLAS worker threads; the cap
is applied when the rpattn package is imported (see rpattn/__init__.py).
"""

import argparse
import csv
import json
import sys
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import (bench_mechanisms, em_deviations, export_assignment_maps, flops_estimate,
                       mean_shift_report, measure_scaling, shift_experiment, softmax_flops)
from .attention import AttnConfig, check_input, init_params, rpattention_forward
from .errors import (ConfigError, ContractError, ShapeError, TensorFileError, TrainDivergedError,
                     check_count)
from .grad import gradcheck
from .synthetic import SyntheticTask
from .tensor_io import read_tensor
from .train import VARIANTS, TrainConfig, train_tiny

EMCHECK_TOL = 1e-12  # fixed, like _BENCH_BANDS and gradcheck's tol, so a config cannot loosen it

_BENCH_BANDS = {
    "constant_dummy": (-0.2, 0.2),
    "quadratic_dummy": (1.8, 2.3),
    "rpattention": (0.8, 1.4),
    "softmax_dense": (1.6, 2.4),
}

# A rule(key, value) returns the checked value or raises ConfigError.
REQUIRED = object()  # the default of a key the config must give
_seed = partial(check_count, minimum=0)


def _passed_on(name, value):
    """Rule of a value that the library call it is passed to checks first."""
    return value


def _set_by_subcommand(name, value):
    raise ConfigError(f"{name} is set by the subcommand")


def _typed(kind, what):
    def rule(name, value):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value
    return rule


_section, _string = _typed(dict, "a JSON object"), _typed(str, "a string")


def _path(name, value):
    if not Path(_string(name, value)).is_file():
        raise ConfigError(f"{name} must name an existing file, got {value!r}")
    return value


def _one_of(*options):
    def rule(name, value):
        if value not in options:
            raise ConfigError(f"{name} must be one of {options}, got {value!r}")
        return value
    return rule


def _list_of(item_rule, length=None):
    """Rule of a non-empty JSON list (of exactly length items, if given) of item_rule values."""
    def rule(name, value):
        if not isinstance(value, list) or not value or length not in (None, len(value)):
            raise ConfigError(f"{name} must be a list of {length or 'one or more'} "
                              f"value(s), got {value!r}")
        return [item_rule(f"{name}[{i}]", item) for i, item in enumerate(value)]
    return rule


_count = check_count
_TRAIN = {key: (REQUIRED, _section) for key in ("task", "attn", "train")}

# Each subcommand's keys: key -> (default, rule). The attn, task and train
# sections hold the fields of AttnConfig, SyntheticTask and TrainConfig (see _build).
TABLES = {
    "gradcheck": {"attn": (REQUIRED, _section), "seeds": ([0], _list_of(_seed))},
    "flops": dict.fromkeys("nmck", (REQUIRED, _passed_on)),
    "bench": {"mechanisms": (list(_BENCH_BANDS), _list_of(_string))},
    "shift": {"attn": (REQUIRED, _section), "image_size": (32, _count),
              "image_channels": (8, _count), "num_blobs": (3, _count),
              "patch_size": (4, _count), "pool_grid": ([4, 4], _list_of(_count, length=2)),
              "shifts": (list(range(0, 9)), _list_of(_seed)),
              "seeds": ([0, 1, 2, 3, 4, 5], _list_of(_seed))},
    "train": _TRAIN,
    "ablate": {**_TRAIN, "variants": (["full", "gather_distribute", "kmeans"],
                                      _list_of(_one_of(*VARIANTS)))},
    "emcheck": {},
    "maps": {"attn": (REQUIRED, _section), "seed": (0, _seed), "input": (None, _path)},
}


def _resolve(entries, table, where):
    """entries checked against table, with the defaults of missing keys filled in.

    Every key must be in table and every REQUIRED one present; a given value passes its rule.
    """
    unknown = sorted(set(entries) - set(table))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")
    missing = [key for key in table if key not in entries and table[key][0] is REQUIRED]
    if missing:
        raise ConfigError(f"missing {where} key(s): {', '.join(missing)}")
    return {key: rule(key, entries[key]) if key in entries else default
            for key, (default, rule) in table.items()}


def _load_config(path, table, flags):
    """The JSON object at path resolved against table; without a path, the table keys in flags."""
    cfg = {key: value for key, value in flags.items() if key in table and value is not None}
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _resolve(_section("config", cfg), table, "config")


def _build(cls, entries, where, **fixed):
    """cls from a section resolved against its fields; fixed are the ones the subcommand sets."""
    table = {f.name: (fixed[f.name], _set_by_subcommand) if f.name in fixed
             else (REQUIRED if f.default is MISSING else f.default, _passed_on)
             for f in fields(cls)}
    return cls(**_resolve(entries, table, where))


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_gradcheck(cfg, args):
    config = _build(AttnConfig, cfg["attn"], "attn", dtype="float64")
    out = _out_dir(args)

    rows = []
    worst = 0.0
    ok = True
    for seed in cfg["seeds"]:
        report = gradcheck(config, seed)
        ok = ok and report.passed
        for entry in report.entries:
            worst = max(worst, entry.max_rel_err)
            rows.append([seed, entry.name, repr(entry.max_rel_err), str(entry.passed).lower()])
    _write_csv(out / "gradcheck.csv", ["seed", "parameter", "max_rel_err", "pass"], rows)
    print(f"gradcheck: {'PASS' if ok else 'FAIL'} "
          f"(seeds={len(cfg['seeds'])}, worst_rel_err={worst:.3e}, tol={report.tol:g})")
    return 0 if ok else 1


def cmd_flops(cfg, args):
    breakdown = flops_estimate(cfg["n"], cfg["m"], cfg["c"], cfg["k"])
    dense = softmax_flops(cfg["n"], cfg["c"])
    if args.out:
        out = _out_dir(args)
        _write_csv(out / "flops.csv", ["term", "count"],
                   [[name, val] for name, val in breakdown.as_rows()]
                   + [["softmax_dense_total", dense]])
    terms = ", ".join(f"{name}={val}" for name, val in breakdown.as_rows())
    print(f"flops: {terms} (dense={dense})")
    return 0


def cmd_bench(cfg, args):
    report = measure_scaling(bench_mechanisms(cfg["mechanisms"]))
    out = _out_dir(args)
    _write_csv(out / "bench_times.csv", ["mechanism", "n", "median_ms:volatile"],
               [[name, n, repr(med * 1e3)] for name, res in report.results.items()
                for n, med in zip(report.sizes, res.median_s)])
    _write_csv(out / "bench_slopes.csv", ["mechanism", "slope:volatile"],
               [[name, repr(res.slope)] for name, res in report.results.items()])

    failures = []
    summary = []
    for name, res in report.results.items():
        summary.append(f"{name}={res.slope:.2f}")
        if name in _BENCH_BANDS:
            lo, hi = _BENCH_BANDS[name]
            if not (lo <= res.slope <= hi):
                failures.append(f"{name} slope {res.slope:.2f} outside [{lo}, {hi}]")
    status = "PASS" if not failures else "FAIL: " + "; ".join(failures)
    print(f"bench: slopes {', '.join(summary)} -> {status}")
    return 0 if not failures else 1


def cmd_shift(cfg, args):
    if cfg["image_size"] % cfg["patch_size"]:
        raise ConfigError(f"image_size {cfg['image_size']} must be a multiple of "
                          f"patch_size {cfg['patch_size']}")
    grid = cfg["image_size"] // cfg["patch_size"]
    config = _build(AttnConfig, cfg["attn"], "attn", grid_h=grid, grid_w=grid, dtype="float64")
    # The other keys of the table are shift_experiment's arguments.
    reports = shift_experiment(config, **{k: v for k, v in cfg.items() if k != "attn"})

    mean = mean_shift_report(reports)
    out = _out_dir(args)

    def rows(rep):
        return [[s, repr(cr), repr(cp)]
                for s, cr, cp in zip(rep.shifts, rep.cosine_rp, rep.cosine_pooled)]
    header = ["shift", "cosine_rp", "cosine_pooled"]
    _write_csv(out / "shift_mean.csv", header, rows(mean))
    _write_csv(out / "shift_raw.csv", ["seed"] + header,
               [[seed] + row for seed, rep in zip(cfg["seeds"], reports) for row in rows(rep)])

    gaps = [r - p for r, p in zip(mean.cosine_rp[1:], mean.cosine_pooled[1:])]
    ok = (abs(mean.cosine_rp[0] - 1.0) < 1e-6 and abs(mean.cosine_pooled[0] - 1.0) < 1e-6
          and min(gaps) >= 0.0)
    print(f"shift: {'PASS' if ok else 'FAIL'} "
          f"(seeds={len(cfg['seeds'])}, min(rp - pooled)={min(gaps):+.4f})")
    return 0 if ok else 1


def _task_and_layer(cfg):
    """The task and float64 layer of a train/ablate config; the layer takes the task's shape."""
    task = _build(SyntheticTask, cfg["task"], "task")
    attn = _build(AttnConfig, cfg["attn"], "attn", dtype="float64",
                  grid_h=task.grid_h, grid_w=task.grid_w, channels=task.channels)
    return task, attn


def cmd_train(cfg, args):
    task, attn = _task_and_layer(cfg)
    train_cfg = _build(TrainConfig, cfg["train"], "train")
    out = _out_dir(args)
    try:
        history = train_tiny(task, attn, train_cfg)
    except TrainDivergedError as exc:
        print(f"train: FAIL (non-finite loss at step {exc.step})")
        return 1
    _write_csv(out / "train_history.csv", ["step", "loss"],
               [[i, repr(loss)] for i, loss in enumerate(history.losses)])
    improved = history.final_loss < history.initial_loss
    print(f"train[{train_cfg.variant}]: {'PASS' if improved else 'FAIL'} "
          f"(loss {history.initial_loss:.4f} -> {history.final_loss:.4f}, "
          f"eval_acc={history.final_accuracy:.3f})")
    return 0 if improved else 1


def cmd_ablate(cfg, args):
    task, attn = _task_and_layer(cfg)
    out = _out_dir(args)

    rows = []
    ok = True
    pieces = []
    for variant in cfg["variants"]:
        train_cfg = _build(TrainConfig, cfg["train"], "train", variant=variant)
        try:
            history = train_tiny(task, attn, train_cfg)
        except TrainDivergedError as exc:
            pieces.append(f"{variant}: diverged@{exc.step}")
            ok = False
            continue
        rows.extend([variant, i, repr(loss)] for i, loss in enumerate(history.losses))
        improved = history.final_loss < history.initial_loss
        ok = ok and improved
        pieces.append(f"{variant}: {history.initial_loss:.4f}->{history.final_loss:.4f}"
                      f" acc={history.final_accuracy:.3f}")
    _write_csv(out / "ablate.csv", ["variant", "step", "loss"], rows)
    print(f"ablate: {'PASS' if ok else 'FAIL'} ({'; '.join(pieces)})")
    return 0 if ok else 1


def cmd_emcheck(cfg, args):
    deviations = em_deviations()
    _write_csv(_out_dir(args) / "emcheck.csv", ["trial", "max_abs_diff", "pass"],
               [[trial, repr(diff), str(diff < EMCHECK_TOL).lower()]
                for trial, diff in enumerate(deviations)])
    worst = max(deviations)
    ok = worst < EMCHECK_TOL
    print(f"emcheck: {'PASS' if ok else 'FAIL'} "
          f"(trials={len(deviations)}, worst={worst:.3e}, tol={EMCHECK_TOL:g})")
    return 0 if ok else 1


def cmd_maps(cfg, args):
    config = _build(AttnConfig, cfg["attn"], "attn", dtype="float64")
    params = init_params(config, cfg["seed"])
    if cfg["input"] is not None:
        try:  # checked as the forward's input, so a bad file is a config error
            x = check_input(read_tensor(cfg["input"]), params, config)
        except (OSError, TensorFileError, ShapeError, ContractError, ConfigError) as exc:
            raise ConfigError(f"input {cfg['input']!r}: {exc}") from exc
    else:
        rng = np.random.default_rng(cfg["seed"])
        x = rng.standard_normal((1, config.num_tokens, config.channels))
    _, trace = rpattention_forward(x, params, config)
    paths = export_assignment_maps(trace, _out_dir(args))
    print(f"maps: wrote {len(paths)} assignment maps to {args.out}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rpattn",
        description="representative-attention experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.add_argument("--config", required=name not in ("flops", "bench", "emcheck"),
                       help="JSON config file")
        p.add_argument("--out", default="out", help="artifact directory (default: out)")
        p.set_defaults(fn=fn)
        return p

    add("gradcheck", cmd_gradcheck)
    flops = add("flops", cmd_flops)
    for key in TABLES["flops"]:
        flops.add_argument(f"--{key}", type=int)
    add("bench", cmd_bench)
    add("shift", cmd_shift)
    add("train", cmd_train)
    add("ablate", cmd_ablate)
    add("emcheck", cmd_emcheck)
    add("maps", cmd_maps)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(_load_config(args.config, TABLES[args.command], vars(args)), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

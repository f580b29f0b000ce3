"""Command-line harness driving the desk-scale experiments.

Subcommands: gradcheck, flops, bench, shift, train, ablate, emcheck, maps.
Each reads a JSON config (--config), writes CSV/PGM artifacts into the
--out directory, and prints a one-line summary. Exit codes: 0 pass, 1 a
check failed, 2 config error; a config key the subcommand does not know or
sets itself, or a missing required one, is a config error.

The RPATTN_THREADS environment variable caps BLAS worker threads; the cap
is applied when the rpattn package is imported (see rpattn/__init__.py).
"""

import argparse
import csv
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .errors import ConfigError, TrainDivergedError, check_count, check_real


def _reject_unknown(entries, keys, where):
    if not isinstance(entries, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(entries) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def _reject_missing(entries, keys, where):
    missing = [key for key in keys if key not in entries]
    if missing:
        raise ConfigError(f"missing {where} key(s): {', '.join(missing)}")


def _load_config(path, keys):
    """The JSON object at path; a ConfigError names every top-level key not in keys."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _reject_unknown(cfg, keys, "config")
    return cfg


def _field_names(cls):
    return [f.name for f in fields(cls)]


def _build(cls, entries, where, **overrides):
    """cls(**entries, **overrides); a ConfigError names every unknown or missing key.

    Overrides are the keys the subcommand sets itself, so entries may not hold them.
    """
    _reject_unknown(entries, _field_names(cls), where)
    fixed = sorted(set(entries) & set(overrides))
    if fixed:
        raise ConfigError(f"{where} key(s) set by the subcommand: {', '.join(fixed)}")
    kwargs = {**entries, **overrides}
    _reject_missing(kwargs, [f.name for f in fields(cls) if f.default is MISSING], where)
    return cls(**kwargs)


def _attn_config(cfg, **overrides):
    """The AttnConfig of a flat config whose other keys belong to the subcommand (see _build)."""
    from .attention import AttnConfig

    names = _field_names(AttnConfig)
    return _build(AttnConfig, {k: v for k, v in cfg.items() if k in names}, "config",
                  **overrides)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_gradcheck(args):
    from .attention import AttnConfig
    from .grad import gradcheck

    cfg = _load_config(args.config, _field_names(AttnConfig) + ["seeds", "step", "tol"])
    config = _attn_config(cfg, dtype="float64")
    seeds = cfg.get("seeds", [0])
    step = cfg.get("step", 1e-5)
    tol = cfg.get("tol", 1e-4)
    out = _out_dir(args)

    rows = []
    worst = 0.0
    ok = True
    for seed in seeds:
        report = gradcheck(config, seed, step=step, tol=tol)
        ok = ok and report.passed
        for entry in report.entries:
            worst = max(worst, entry.max_rel_err)
            rows.append([seed, entry.name, repr(entry.max_rel_err), str(entry.passed).lower()])
    _write_csv(out / "gradcheck.csv", ["seed", "parameter", "max_rel_err", "pass"], rows)
    print(f"gradcheck: {'PASS' if ok else 'FAIL'} "
          f"(seeds={len(seeds)}, worst_rel_err={worst:.3e}, tol={tol:g})")
    return 0 if ok else 1


def cmd_flops(args):
    from .analysis import flops_estimate, softmax_flops

    if args.config:
        keys = ["n", "m", "c", "k"]
        cfg = _load_config(args.config, keys)
        _reject_missing(cfg, keys, "config")
        n, m, c, k = (cfg[key] for key in keys)
    elif None not in (args.n, args.m, args.c, args.k):
        n, m, c, k = args.n, args.m, args.c, args.k
    else:
        raise ConfigError("flops needs either --config or all of --n/--m/--c/--k")

    breakdown = flops_estimate(n, m, c, k)
    dense = softmax_flops(n, c)
    if args.out:
        out = _out_dir(args)
        _write_csv(out / "flops.csv", ["term", "count"],
                   [[name, val] for name, val in breakdown.as_rows()]
                   + [["softmax_dense_total", dense]])
    terms = ", ".join(f"{name}={val}" for name, val in breakdown.as_rows())
    print(f"flops: {terms} (dense={dense})")
    return 0


_BENCH_BANDS = {
    "constant_dummy": (-0.2, 0.2),
    "quadratic_dummy": (1.8, 2.3),
    "rpattention": (0.8, 1.4),
    "softmax_dense": (1.6, 2.4),
}


def cmd_bench(args):
    from .analysis import bench_mechanisms, measure_scaling

    cfg = _load_config(args.config, [
        "mechanisms", "sizes", "reps", "warmup", "iters", "min_sample_ms",
        "channels", "heads", "num_representatives", "row_chunk"])
    names = cfg.get("mechanisms",
                    ["constant_dummy", "quadratic_dummy", "rpattention", "softmax_dense"])
    sizes = cfg.get("sizes", [256, 1024, 4096])
    mechanisms = bench_mechanisms(
        names, channels=cfg.get("channels", 64), heads=cfg.get("heads", 2),
        num_representatives=cfg.get("num_representatives", 49),
        row_chunk=cfg.get("row_chunk", 1024))
    report = measure_scaling(
        mechanisms, sizes,
        reps=cfg.get("reps", 3), warmup=cfg.get("warmup", 30),
        iters=cfg.get("iters", 100),
        min_sample_s=cfg.get("min_sample_ms", 2.0) / 1e3,
    )
    out = _out_dir(args)
    report.write_csv(out)
    for warning in report.warnings:
        print(f"bench warning: {warning}", file=sys.stderr)

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


def cmd_shift(args):
    import numpy as np

    from .analysis import mean_shift_report, shift_robustness
    from .attention import AttnConfig, init_params
    from .synthetic import make_blob_image

    cfg = _load_config(args.config, _field_names(AttnConfig) + [
        "image_size", "image_channels", "num_blobs", "patch_size", "shifts", "seeds",
        "pool_grid", "mode", "margin", "assert_ordering"])
    size = cfg.get("image_size", 32)
    image_channels = cfg.get("image_channels", 8)
    patch = cfg.get("patch_size", 4)
    shifts = cfg.get("shifts", list(range(0, 9)))
    seeds = cfg.get("seeds", [0, 1, 2, 3, 4, 5])
    pool_grid = cfg.get("pool_grid", [4, 4])
    if not isinstance(pool_grid, list) or len(pool_grid) != 2:
        raise ConfigError(f"pool_grid must be two integers, got {pool_grid!r}")
    pool_grid = tuple(check_count("pool_grid", g) for g in pool_grid)
    mode = cfg.get("mode", "zero")
    grid = size // patch
    defaults = {"channels": 32, "heads": 2, "num_representatives": pool_grid[0] * pool_grid[1]}
    config = _attn_config({**defaults, **cfg}, grid_h=grid, grid_w=grid, dtype="float64")

    reports = []
    for seed in seeds:
        rng = np.random.default_rng([seed, 17])
        image = make_blob_image(size, image_channels, cfg.get("num_blobs", 3), seed,
                                margin=cfg.get("margin", max(shifts) + 4))
        embed_w = rng.normal(0.0, 1.0 / (patch * patch * image_channels) ** 0.5,
                             (patch * patch * image_channels, config.channels))
        params_rp = init_params(config, seed)
        params_pooled = init_params(config, seed + 1000)
        reports.append(shift_robustness(
            image, embed_w, params_rp, config, params_pooled, config,
            pool_grid, shifts, patch_size=patch, mode=mode))

    mean = mean_shift_report(reports)
    out = _out_dir(args)
    mean.write_csv(out / "shift_mean.csv")
    _write_csv(out / "shift_raw.csv", ["seed", "shift", "cosine_rp", "cosine_pooled"],
               [[seed, s, repr(cr), repr(cp)]
                for seed, rep in zip(seeds, reports)
                for s, cr, cp in zip(rep.shifts, rep.cosine_rp, rep.cosine_pooled)])

    ok = True
    if cfg.get("assert_ordering", True):
        ok = abs(mean.cosine_rp[0] - 1.0) < 1e-6 and abs(mean.cosine_pooled[0] - 1.0) < 1e-6
        for i, s in enumerate(mean.shifts):
            if s > 0 and mean.cosine_rp[i] < mean.cosine_pooled[i]:
                ok = False
    worst_gap = min(r - p for r, p in zip(mean.cosine_rp[1:], mean.cosine_pooled[1:]))
    print(f"shift: {'PASS' if ok else 'FAIL'} "
          f"(seeds={len(seeds)}, min(rp - pooled)={worst_gap:+.4f})")
    return 0 if ok else 1


def _task_and_layer(cfg):
    """The task and float64 layer of a train/ablate config; the layer takes the task's shape."""
    from .attention import AttnConfig
    from .synthetic import SyntheticTask

    task = _build(SyntheticTask, cfg.get("task", {}), "task")
    attn = _build(AttnConfig, cfg.get("attn", {}), "attn", dtype="float64",
                  grid_h=task.grid_h, grid_w=task.grid_w, channels=task.channels)
    return task, attn


def cmd_train(args):
    from .train import TrainConfig, train_tiny

    cfg = _load_config(args.config, ["task", "attn", "train"])
    task, attn = _task_and_layer(cfg)
    train_cfg = _build(TrainConfig, cfg.get("train", {}), "train")
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


def cmd_ablate(args):
    from .train import TrainConfig, train_tiny

    cfg = _load_config(args.config, ["task", "attn", "train", "variants"])
    task, attn = _task_and_layer(cfg)
    variants = cfg.get("variants", ["full", "gather_distribute", "kmeans"])
    out = _out_dir(args)

    rows = []
    ok = True
    pieces = []
    for variant in variants:
        train_cfg = _build(TrainConfig, cfg.get("train", {}), "train", variant=variant)
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


def cmd_emcheck(args):
    import numpy as np

    from .analysis import em_one_step_oracle
    from .attention import SLOT_MASS_EPS, gather_assign, gather_latents, mass_normalize

    keys = ["trials", "heads", "tokens", "head_dim", "slots", "tol", "seed"]
    cfg = _load_config(args.config, keys) if args.config else {}
    trials = check_count("trials", cfg.get("trials", 20))
    heads = check_count("heads", cfg.get("heads", 2))
    tokens = check_count("tokens", cfg.get("tokens", 10))
    dim = check_count("head_dim", cfg.get("head_dim", 5))
    slots = check_count("slots", cfg.get("slots", 4))
    tol = check_real("tol", cfg.get("tol", 1e-12), minimum=0)
    rng = np.random.default_rng(check_count("seed", cfg.get("seed", 0), minimum=0))

    rows = []
    worst = 0.0
    for trial in range(trials):
        keys = rng.standard_normal((heads, tokens, dim))
        w_g = rng.standard_normal((dim, slots))
        a_o, a_hat_o, k_l_o = em_one_step_oracle(keys, w_g, SLOT_MASS_EPS)
        k4 = keys[None]
        a = gather_assign(k4, w_g)
        mass, k_l, _ = mass_normalize(a, *gather_latents(a, k4, k4))
        diff = max(float(np.abs(a[0] - a_o).max()),
                   float(np.abs(a[0] / np.swapaxes(mass[0], -1, -2) - a_hat_o).max()),
                   float(np.abs(k_l[0] - k_l_o).max()))
        worst = max(worst, diff)
        rows.append([trial, repr(diff), str(diff < tol).lower()])
    out = _out_dir(args)
    _write_csv(out / "emcheck.csv", ["trial", "max_abs_diff", "pass"], rows)
    ok = worst < tol
    print(f"emcheck: {'PASS' if ok else 'FAIL'} (trials={trials}, worst={worst:.3e}, tol={tol:g})")
    return 0 if ok else 1


def cmd_maps(args):
    import numpy as np

    from .analysis import export_assignment_maps
    from .attention import AttnConfig, init_params, rpattention_forward
    from .tensor_io import read_tensor

    cfg = _load_config(args.config, ["attn", "seed", "input"])
    config = _build(AttnConfig, cfg.get("attn", {}), "attn", dtype="float64")
    params = init_params(config, cfg.get("seed", 0))
    if "input" in cfg:
        x = read_tensor(cfg["input"]).astype(np.float64)
    else:
        rng = np.random.default_rng(cfg.get("seed", 0))
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
        p.add_argument("--config", required=name not in ("flops", "emcheck"),
                       help="JSON config file")
        p.add_argument("--out", default="out", help="artifact directory (default: out)")
        p.set_defaults(fn=fn)
        return p

    add("gradcheck", cmd_gradcheck)
    flops = add("flops", cmd_flops)
    flops.add_argument("--n", type=int)
    flops.add_argument("--m", type=int)
    flops.add_argument("--c", type=int)
    flops.add_argument("--k", type=int)
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
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

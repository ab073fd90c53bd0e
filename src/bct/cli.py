"""The bct command line: synth, train, evaluate, ablate, plot, inspect.

train, evaluate and ablate read the tokens argparse leaves over as config keys,
--key value or --key=value, applied in order after --config. main reports an
error of bct.errors on one stderr line and exits with the code of its class:
bad configuration 2, bad data or checkpoint 3, numeric failure 4.
"""

import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .checkpoint import MAGIC, load_subset, read_checkpoint
from .config import KEYS, _parse_int_list, _reject_unknown, build_config, check_out_dir
from .data import MANIFEST_NAME, fmt_float, load_manifest, load_split, read_ppm, synth_generate
from .errors import CheckpointError, ConfigError, DataError, NumericError, read_input, write_output
from .svgchart import line_chart
from .trainer import SUITES, build_model, evaluate, read_runlog, run_ablation, train


def _style(text: str, code: str, stream=None) -> str:
    """text in ANSI style code (1 bold, 31 red, 32 green) if stream (default stdout) is a tty and NO_COLOR is unset or empty."""
    stream = sys.stdout if stream is None else stream
    if os.environ.get("NO_COLOR") or not (hasattr(stream, "isatty") and stream.isatty()):
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _metrics_line(report) -> str:
    return f"acc {report.accuracy:.4f}  recall {report.recall:.4f}  precision {report.precision:.4f}  f1 {report.f1:.4f}"


def _join_key_values(argv: list) -> list:
    """argv with each --<key> VALUE of a config key joined into --<key>=VALUE: argparse takes no value (-h) for a flag."""
    joined, tokens = [], iter(argv)
    for token in tokens:
        if token.startswith("--") and token[2:] in KEYS and (value := next(tokens, None)) is not None:
            token = f"{token}={value}"
        joined.append(token)
    return joined


def _config_from_args(args):
    """build_config over the --key=value tokens argparse left (see _join_key_values)."""
    overrides = []
    for token in args.overrides:
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r}; give config keys as --key value")
        key, sep, value = token[2:].partition("=")
        _reject_unknown(key, "command line")
        if not sep:
            raise ConfigError(f"--{key}: expected a value")
        overrides.append((key, value))
    return build_config(args.config, overrides)


def _parse_flag_ints(flag: str, text: str) -> tuple:
    """Comma-separated integers of a command-line flag; a ConfigError names the flag."""
    try:
        return _parse_int_list(text)
    except ConfigError as e:
        raise ConfigError(f"{flag}: {e}") from None


# ------------------------------------------------------------------ commands


def cmd_synth(args) -> int:
    check_out_dir(args.out, "--out")
    counts = None
    if args.counts:
        counts = _parse_flag_ints("--counts", args.counts)
        if len(counts) != 2:
            raise ConfigError(f"--counts: expected two integers, got {args.counts!r}")
    manifest = synth_generate(
        args.out,
        n_per_class=args.per_class,
        seed=args.seed,
        noise_level=args.noise,
        image_size=args.size,
        family=args.family,
        cell_size=args.cell,
        class_counts=counts,
    )
    print(manifest.summary())
    return 0


def _progress_printer(record) -> None:
    val = "-" if math.isnan(record.val_acc) else f"{record.val_acc:.4f}"
    print(
        f"epoch {record.epoch:4d}  stage {record.stage}  "
        f"loss {record.train_loss:.6f}  acc {record.train_acc:.4f}  val {val}"
    )


def cmd_train(args) -> int:
    config = _config_from_args(args)
    progress = None if args.quiet else _progress_printer
    log = train(config, progress=progress)
    for t in log.transitions:
        print(f"stage switch after epoch {t.epoch}: {t.from_stage} -> {t.to_stage} ({t.reason})")
    if log.converged:
        print(_style(f"converged in {log.epochs_label()} epochs", "32"))
    else:
        print(_style(f"did not converge within {log.epochs_total} epochs", "31"))
    if log.test_report is not None:
        print(f"test: {_metrics_line(log.test_report)}")
    if config.out_dir:
        print(f"artifacts in {config.out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"--out {out}: expected a file in an existing directory")
    config = _config_from_args(args)
    model = build_model(config)
    load_subset(model, args.checkpoint)
    samples = load_split(config.manifest(), args.split)
    if not samples:
        raise DataError(f"{config.data_root}: split {args.split!r} is empty")
    counts, report = evaluate(model, samples)
    record = {
        "checkpoint": str(args.checkpoint),
        "data_root": config.data_root,
        "split": args.split,
        "n": counts.total,
        "counts": asdict(counts),
        "metrics": asdict(report),
    }
    write_output(out, json.dumps(record, sort_keys=True) + "\n", ConfigError, append=True)
    print(f"{args.split}: n {counts.total}  {_metrics_line(report)}")
    if report.degenerate:
        print(f"degenerate: {', '.join(report.degenerate)}")
    print(f"appended to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    check_out_dir(args.out, "--out")
    config = _config_from_args(args)
    table = run_ablation(args.suite, config, _parse_flag_ints("--seeds", args.seeds), args.out, jobs=args.jobs)
    sys.stdout.write(table.markdown())
    print(f"tables in {args.out}")
    return 0


def cmd_plot(args) -> int:
    if args.out:
        check_out_dir(args.out, "--out")
    run = Path(args.run)
    records = read_runlog(run / "runlog.csv")
    epochs = [float(r.epoch) for r in records]
    try:
        loss_svg = line_chart(
            [("train loss", epochs, [r.train_loss for r in records])],
            title="training loss", x_label="epoch", y_label="loss",
        )
        acc_svg = line_chart(
            [
                ("train acc", epochs, [r.train_acc for r in records]),
                ("val acc", epochs, [r.val_acc for r in records]),
            ],
            title="accuracy", x_label="epoch", y_label="accuracy",
        )
    except ValueError as e:
        raise DataError(f"{run / 'runlog.csv'}: {e}") from e
    out = Path(args.out) if args.out else run
    write_output(out / "loss.svg", loss_svg, ConfigError)
    write_output(out / "accuracy.svg", acc_svg, ConfigError)
    print(f"wrote {out / 'loss.svg'} and {out / 'accuracy.svg'}")
    return 0


def _inspect_checkpoint(path: Path) -> None:
    params = read_checkpoint(path)
    print(_style(f"{path}: parameter checkpoint, {len(params)} arrays", "1"))
    total = 0
    for name, array in params.items():
        total += array.size
        shape = "x".join(str(d) for d in array.shape) or "scalar"
        print(f"  {name:<28} {shape:>14}  {array.size}")
    print(f"  total parameters: {total}")


def _inspect_manifest(path: Path) -> None:
    manifest = load_manifest(path.parent)
    print(_style(f"{path}: dataset manifest", "1"))
    print(manifest.summary())


def _inspect_runlog(path: Path) -> None:
    records = read_runlog(path)
    stages = sorted({r.stage for r in records})
    last = records[-1]
    print(_style(f"{path}: training log, {len(records)} epochs, stages {stages}", "1"))
    print(f"  final: loss {fmt_float(last.train_loss)}  acc {fmt_float(last.train_acc)}  val {fmt_float(last.val_acc)}")
    scored = [r for r in records if not math.isnan(r.val_acc)]
    if scored:
        best = max(scored, key=lambda r: r.val_acc)  # max keeps the earliest of equal values
        print(f"  best val acc {fmt_float(best.val_acc)} at epoch {best.epoch}")


def _inspect_ppm(path: Path) -> None:
    image = read_ppm(path)
    h, w, _ = image.shape
    print(_style(f"{path}: PPM image, {w}x{h}, 3 channels", "1"))


def cmd_inspect(args) -> int:
    path = Path(args.path)
    magic = read_input(path, DataError)[:4]
    if magic == MAGIC:
        _inspect_checkpoint(path)
    elif magic[:2] == b"P6":
        _inspect_ppm(path)
    elif path.name == MANIFEST_NAME:
        _inspect_manifest(path)
    elif path.suffix == ".csv" and path.name.startswith("runlog"):
        _inspect_runlog(path)
    elif path.suffix in (".json", ".jsonl"):
        sys.stdout.write(read_input(path, DataError, text=True))
    else:
        raise DataError(f"{path}: not a checkpoint, PPM, manifest, or runlog")
    return 0


# ---------------------------------------------------------------- dispatcher


def make_parser() -> "argparse.ArgumentParser":
    import argparse  # here, so importing bct.cli does not load it
    parser = argparse.ArgumentParser(
        prog="bct", description="two-class image training workbench"
    )
    epilog = ("Any config key is also a flag, --key value or --key=value (e.g. --train.seed 7), "
              "applied in command-line order after --config. Keys: " + ", ".join(KEYS))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-class dataset")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--counts", help="per-class counts a,b (overrides --per-class)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--size", type=int, default=64, help="image edge in pixels")
    p.add_argument("--family", choices=("checker", "rings"), default="checker")
    p.add_argument("--cell", type=int, default=8, help="texture cell size in pixels")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model per the config", epilog=epilog)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch lines")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset split", epilog=epilog)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", default="evaluate.jsonl", help="JSONL file to append to")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="run an ablation suite over seeds", epilog=epilog)
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seeds", required=True, help="comma-separated run seeds")
    p.add_argument("--out", required=True, help="directory for tables and runs")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("plot", help="render SVG curves from a run directory")
    p.add_argument("--run", required=True, help="directory containing runlog.csv")
    p.add_argument("--out", help="output directory (default: the run directory)")
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("inspect", help="describe a checkpoint, dataset, image, or log")
    p.add_argument("path")
    p.set_defaults(fn=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args, rest = parser.parse_known_args(_join_key_values(sys.argv[1:] if argv is None else argv))
    if rest and "config" not in args:  # synth, plot and inspect take no config keys
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    args.overrides = rest
    try:
        return args.fn(args)
    except (ConfigError, DataError, CheckpointError, NumericError) as e:
        print(_style(f"{e.label}: {e}", "31", sys.stderr), file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())

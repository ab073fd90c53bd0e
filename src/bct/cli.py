"""The bct command line: synth, train, evaluate, ablate, plot, inspect.

train, evaluate and ablate read the tokens argparse leaves over as config keys,
--key value or --key=value, applied in order after --config. Errors map to
fixed exit codes: bad configuration 2, bad data 3, numeric failure 4.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .checkpoint import CheckpointError, load_subset, read_checkpoint
from .config import KEYS, _parse_int_list, _reject_unknown, build_config, check_out_dir
from .data import load_manifest, load_split, read_ppm, synth_generate
from .errors import ConfigError, DataError, NumericError
from .svgchart import line_chart
from .trainer import SUITES, build_model, evaluate, run_ablation, train


def _color_enabled(stream) -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _style(text: str, code: str, stream=None) -> str:
    stream = sys.stdout if stream is None else stream
    if not _color_enabled(stream):
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _bold(text: str) -> str:
    return _style(text, "1")


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
        print(_style(f"did not converge within {sum(log.per_stage_epochs)} epochs", "31"))
    if log.test_report is not None:
        m = log.test_report
        print(
            f"test: acc {m.accuracy:.4f}  recall {m.recall:.4f}  "
            f"precision {m.precision:.4f}  f1 {m.f1:.4f}"
        )
    if config.out_dir:
        print(f"artifacts in {config.out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(f"--out {out}: expected a file in an existing directory")
    config = _config_from_args(args)
    if not config.data_root:
        raise ConfigError("evaluate needs data.root")
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
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(
        f"{args.split}: n {counts.total}  acc {report.accuracy:.4f}  "
        f"recall {report.recall:.4f}  precision {report.precision:.4f}  f1 {report.f1:.4f}"
    )
    if report.degenerate:
        print(f"degenerate: {', '.join(report.degenerate)}")
    print(f"appended to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    config = _config_from_args(args)
    table = run_ablation(args.suite, config, _parse_flag_ints("--seeds", args.seeds), args.out, jobs=args.jobs)
    sys.stdout.write(table.markdown())
    print(f"tables in {args.out}")
    return 0


def _read_runlog(path: Path) -> list:
    """The rows of a runlog.csv as raw strings, once every field read from them parses."""
    if not path.is_file():
        raise DataError(f"{path} is not a file" if path.exists() else f"{path} does not exist")
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            fields = ("epoch", "stage", "train_loss", "train_acc", "val_acc")
            missing = [f for f in fields if f not in (reader.fieldnames or ())]
            if missing:
                raise DataError(f"{path}:1: no column {', '.join(missing)}")
            for row in reader:
                try:
                    if None in row or None in row.values():
                        raise ValueError(f"expected {len(reader.fieldnames)} fields")
                    int(row["epoch"]), int(row["stage"])
                    train_acc, val_acc = float(row["train_acc"]), float(row["val_acc"])
                    if not all(math.isfinite(float(row[f])) for f in ("train_loss", "train_acc")):
                        raise ValueError("train_loss and train_acc must be finite")
                    if not (0 <= train_acc <= 1 and (0 <= val_acc <= 1 or math.isnan(val_acc))):
                        raise ValueError("train_acc must lie in [0, 1], and val_acc in [0, 1] or be nan")
                except ValueError as e:
                    raise DataError(f"{path}:{reader.line_num}: {e}") from e
                rows.append(row)
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path}: not a UTF-8 CSV file ({e})") from e
    if not rows:
        raise DataError(f"{path}: no epochs recorded")
    return rows


def cmd_plot(args) -> int:
    if args.out:
        check_out_dir(args.out, "--out")
    run = Path(args.run)
    rows = _read_runlog(run / "runlog.csv")
    epochs = [float(r["epoch"]) for r in rows]
    try:
        loss_svg = line_chart(
            [("train loss", epochs, [float(r["train_loss"]) for r in rows])],
            title="training loss", x_label="epoch", y_label="loss",
        )
        acc_svg = line_chart(
            [
                ("train acc", epochs, [float(r["train_acc"]) for r in rows]),
                ("val acc", epochs, [float(r["val_acc"]) for r in rows]),
            ],
            title="accuracy", x_label="epoch", y_label="accuracy",
        )
    except ValueError as e:
        raise DataError(f"{run / 'runlog.csv'}: {e}") from e
    out = Path(args.out) if args.out else run
    out.mkdir(parents=True, exist_ok=True)
    (out / "loss.svg").write_text(loss_svg, encoding="utf-8")
    (out / "accuracy.svg").write_text(acc_svg, encoding="utf-8")
    print(f"wrote {out / 'loss.svg'} and {out / 'accuracy.svg'}")
    return 0


def _inspect_checkpoint(path: Path) -> None:
    params = read_checkpoint(path)
    print(_bold(f"{path}: parameter checkpoint, {len(params)} arrays"))
    total = 0
    for name, array in params.items():
        total += array.size
        shape = "x".join(str(d) for d in array.shape) or "scalar"
        print(f"  {name:<28} {shape:>14}  {array.size}")
    print(f"  total parameters: {total}")


def _inspect_manifest(path: Path) -> None:
    manifest = load_manifest(path.parent)
    print(_bold(f"{path}: dataset manifest"))
    print(manifest.summary())


def _inspect_runlog(path: Path) -> None:
    rows = _read_runlog(path)
    stages = sorted({int(r["stage"]) for r in rows})
    last = rows[-1]
    print(_bold(f"{path}: training log, {len(rows)} epochs, stages {stages}"))
    print(f"  final: loss {last['train_loss']}  acc {last['train_acc']}  val {last['val_acc']}")
    vals = [(v, i) for i, r in enumerate(rows) if not math.isnan(v := float(r["val_acc"]))]
    if vals:
        best, idx = max(vals, key=lambda t: (t[0], -t[1]))
        print(f"  best val acc {best:.9g} at epoch {rows[idx]['epoch']}")


def _inspect_ppm(path: Path) -> None:
    image = read_ppm(path)
    h, w, _ = image.shape
    print(_bold(f"{path}: PPM image, {w}x{h}, 3 channels"))


def cmd_inspect(args) -> int:
    path = Path(args.path)
    if not path.is_file():
        raise DataError(f"{path} is not a file" if path.exists() else f"{path} does not exist")
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"BCT1":
        _inspect_checkpoint(path)
    elif magic[:2] == b"P6":
        _inspect_ppm(path)
    elif path.name == "split_manifest.tsv":
        _inspect_manifest(path)
    elif path.suffix == ".csv" and path.name.startswith("runlog"):
        _inspect_runlog(path)
    elif path.suffix in (".json", ".jsonl"):
        try:
            sys.stdout.write(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e})") from e
    else:
        raise DataError(f"{path}: not a checkpoint, PPM, manifest, or runlog")
    return 0


# ---------------------------------------------------------------- dispatcher


def make_parser() -> argparse.ArgumentParser:
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
    except ConfigError as e:
        print(_style(f"config error: {e}", "31", sys.stderr), file=sys.stderr)
        return 2
    except CheckpointError as e:
        print(_style(f"checkpoint error: {e}", "31", sys.stderr), file=sys.stderr)
        return 3
    except DataError as e:
        print(_style(f"data error: {e}", "31", sys.stderr), file=sys.stderr)
        return 3
    except NumericError as e:
        print(_style(f"numeric error: {e}", "31", sys.stderr), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""The training loop, evaluation, run artifacts, and ablation suites.

A run is fully determined by its TrainConfig: data splits, init, batch
order, and updates all derive from the config seed, so rerunning writes
byte-identical runlog.csv, result.json, config echo, and checkpoints.
Wall-clock timings go to a separate walltime.csv that is allowed to differ.

Epochs are numbered from 1 and count cumulatively across paradigm stages;
the per-epoch shuffle seed is run_seed XOR epoch number. Convergence is
checked against the full train split at each epoch end: accuracy >=
acc_threshold and per-sample mean loss <= loss_threshold.
"""

import ctypes
import functools
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import config as config_mod
from .checkpoint import load_subset, save_checkpoint
from .config import TrainConfig
from .data import load_split, make_batches, stack_batch
from .errors import ConfigError, DataError, NumericError
from .layers import Model, build_backbone, build_cnn
from .losses import make_loss
from .metrics import ConfusionCounts, MetricReport, compute_metrics, count_batch
from .optim import OPTIMIZER_KINDS, Optimizer
from .staging import PARADIGMS, StagedDriver, pretrain_source
from .tensor import no_grad

# glibc mallopt parameters and the values train() sets: arrays up to 32 MiB come
# from the heap, and free() trims no heap top until 1 GiB of it is unused
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20  # DEFAULT_MMAP_THRESHOLD_MAX, glibc's documented cap on 64-bit
_TRIM_THRESHOLD_BYTES = 1 << 30


@dataclass
class EpochRecord:
    epoch: int
    stage: int
    train_loss: float
    train_acc: float
    val_acc: float  # nan when the val split is empty


@dataclass
class RunLog:
    """Everything a finished run reports; see write_outputs for the files."""

    records: list = field(default_factory=list)
    transitions: list = field(default_factory=list)
    per_stage_epochs: list = field(default_factory=list)
    converged: bool = False
    epochs_to_converge: int | None = None
    best_epoch: int | None = None
    test_counts: ConfusionCounts | None = None
    test_report: MetricReport | None = None
    param_count: int = 0
    wall_seconds: list = field(default_factory=list)
    final_state: dict | None = None
    best_state: dict | None = None

    def epochs_label(self) -> str:
        """Cumulative epoch count with the per-stage breakdown, e.g. "69 (23 + 46)"."""
        total = sum(self.per_stage_epochs)
        if len(self.per_stage_epochs) <= 1:
            return str(total)
        return f"{total} ({' + '.join(str(e) for e in self.per_stage_epochs)})"


def check_convergence(train_acc: float, train_loss: float, acc_threshold: float, loss_threshold: float) -> bool:
    return train_acc >= acc_threshold and train_loss <= loss_threshold


def build_model(config: TrainConfig) -> Model:
    kwargs = dict(
        input_shape=(3, config.image_size, config.image_size),
        channels=tuple(config.model.channels),
        dense_width=config.model.dense_width,
        kernel_size=config.model.kernel_size,
        pool_size=config.model.pool_size,
        seed=config.seed,
    )
    try:
        if config.model.kind == "backbone":
            return build_backbone(**kwargs)
        return build_cnn(**kwargs)
    except ValueError as e:  # ShapeError included: bad geometry is a config problem
        raise ConfigError(f"model does not fit data.image_size={config.image_size}: {e}") from e
    except MemoryError as e:  # so are more parameters than the machine can hold
        raise ConfigError(f"model is too large to allocate: {e}") from e


def _checked_forward(model: Model, images, where: str):
    """model(images); non-finite scores raise NumericError naming the first layer whose output is not finite.

    numpy's overflow and invalid-value warnings are silenced inside, as that error names the layer. Only
    on that failure path is the batch run again, whole and one layer at a time.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scores = model(images)
        if np.isfinite(scores.data).all():
            return scores
        x = images
        with no_grad():
            for i, (name, layer) in enumerate(model.layers):
                x = layer(x)
                if not np.isfinite(x.data).all():
                    break
    raise NumericError(f"non-finite scores {where}; first non-finite output from layer {i} ({name or type(layer).__name__})")


def eval_split(model: Model, samples, loss_fn=None, batch_size: int = 64):
    """(mean loss or None, ConfusionCounts) over a fixed-order pass.

    loss_fn must use sum reduction; the result is divided by the sample
    count, giving a per-sample mean that doesn't move with batch size.

    Memory: under no_grad, Model.forward runs the conv stack on bounded slices of each batch.
    """
    if not samples:
        raise DataError("cannot evaluate an empty split")
    counts = ConfusionCounts()
    total_loss = 0.0
    with no_grad():
        for start in range(0, len(samples), batch_size):
            batch = stack_batch(samples[start : start + batch_size])
            scores = _checked_forward(model, batch.images, f"in evaluation batch {start // batch_size}")
            preds = scores.argmax(axis=1)
            counts = count_batch(counts, preds, batch.labels)
            if loss_fn is not None:
                total_loss += loss_fn(scores, batch.targets).item()
    mean_loss = total_loss / len(samples) if loss_fn is not None else None
    return mean_loss, counts


def evaluate(model: Model, samples, batch_size: int = 64) -> tuple[ConfusionCounts, MetricReport]:
    _, counts = eval_split(model, samples, loss_fn=None, batch_size=batch_size)
    return counts, compute_metrics(counts)


@functools.cache
def _keep_freed_pages() -> None:
    """Keep freed pages in the heap (glibc); a no-op where libc has no mallopt.

    The pages a step frees are then reused by the next step instead of being
    unmapped and faulted back in.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    except (OSError, AttributeError, TypeError):
        pass


def train(config: TrainConfig, echo: dict | None = None, progress=None) -> RunLog:
    """Run one full training per the config; write outputs if out_dir is set.

    progress, if given, is called with each EpochRecord as it lands.

    Memory: the splits stay uint8, make_batches returns index arrays, and the
    loop stacks each batch's float32 images only when it reaches that batch,
    so no float copy of a whole split and at most one training batch is alive.
    A step's recorded convs keep their im2col columns only when the batch fits
    one column chunk (see Conv2d), and backward rebuilds the others' just for
    the weight gradient. The backward walk releases each node of the step's
    graph once its closure has run, so the graph shrinks as the walk goes and
    is gone before the next forward or the train-eval pass allocates; the
    eval passes' no-grad Model.forward bounds what its conv stack holds. On
    glibc the first call also sets the process's malloc thresholds (see
    _keep_freed_pages) so freed pages stay in the heap for the next step; the
    process RSS then stays at its high-water mark after train() returns.
    """
    _keep_freed_pages()
    config.validate()
    if not config.data_root:
        raise ConfigError("data.root is required for training")

    manifest = config.manifest()
    train_samples = load_split(manifest, "train")
    val_samples = load_split(manifest, "val")
    test_samples = load_split(manifest, "test")
    if not train_samples:
        raise DataError(f"{config.data_root}: train split is empty")

    model = build_model(config)
    if config.paradigm != "baseline":
        load_subset(model, config.pretrain_checkpoint, "backbone.")
    optimizer = Optimizer(model.params, config.optim)
    driver = StagedDriver(model, config.paradigm, optimizer, config.max_epochs)
    loss_fn = make_loss(config.loss)
    # per-sample-sum loss for the convergence check, whatever the training reduction
    eval_loss_fn = make_loss(replace(config.loss, reduction="sum"))

    log = RunLog(param_count=model.param_count())
    best_val = -1.0
    epoch = 0
    while not driver.done:
        epoch += 1
        started = time.perf_counter()
        for bi, idx in enumerate(make_batches(train_samples, config.batch_size, config.seed ^ epoch)):
            batch = stack_batch(train_samples[idx])
            scores = _checked_forward(model, batch.images, f"at epoch {epoch}, batch {bi}")
            loss = loss_fn(scores, batch.targets)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(f"non-finite training loss {value} at epoch {epoch}, batch {bi}")
            optimizer.zero_grad()
            loss.backward()
            try:
                optimizer.step()
            except NumericError as e:
                raise NumericError(f"{e} at epoch {epoch}, batch {bi}") from e
            del scores, loss  # backward() released the graph; drop its scores and loss too

        try:
            train_loss, train_counts = eval_split(model, train_samples, eval_loss_fn)
            val_counts = eval_split(model, val_samples)[1] if val_samples else None
        except NumericError as e:
            raise NumericError(f"epoch {epoch}: {e}") from e
        train_acc = (train_counts.tp + train_counts.tn) / train_counts.total
        if not math.isfinite(train_loss):
            raise NumericError(f"non-finite train loss {train_loss} at epoch {epoch}")
        val_acc = (val_counts.tp + val_counts.tn) / val_counts.total if val_samples else float("nan")
        record = EpochRecord(epoch, driver.stage_number, train_loss, train_acc, val_acc)
        log.records.append(record)
        log.wall_seconds.append(time.perf_counter() - started)
        if progress is not None:
            progress(record)

        if val_samples and val_acc > best_val:  # ties keep the earlier epoch
            best_val = val_acc
            log.best_epoch = epoch
            log.best_state = model.state()

        converged = check_convergence(train_acc, train_loss, config.acc_threshold, config.loss_threshold)
        transition = driver.record_epoch(epoch, converged)
        if transition is not None:
            log.transitions.append(transition)

    log.per_stage_epochs = list(driver.per_stage_epochs)
    log.converged = driver.exit_reason == "converged"
    log.epochs_to_converge = sum(log.per_stage_epochs) if log.converged else None
    log.final_state = model.state()

    if test_samples:
        # test metrics come from the best-val params when a val split exists
        if log.best_state is not None:
            model.load_state(log.best_state)
        counts, report = evaluate(model, test_samples)
        report.epochs_to_converge = log.epochs_to_converge
        log.test_counts, log.test_report = counts, report
        model.load_state(log.final_state)

    if config.out_dir:
        write_outputs(log, config, echo)
    return log


# ------------------------------------------------------------- run artifacts


def _g9(x: float) -> str:
    return f"{x:.9g}"


def runlog_csv(log: RunLog) -> str:
    lines = ["epoch,stage,train_loss,train_acc,val_acc"]
    lines += [
        f"{r.epoch},{r.stage},{_g9(r.train_loss)},{_g9(r.train_acc)},{_g9(r.val_acc)}"
        for r in log.records
    ]
    return "\n".join(lines) + "\n"


def walltime_csv(log: RunLog) -> str:
    lines = ["epoch,seconds"]
    lines += [f"{i},{s:.6f}" for i, s in enumerate(log.wall_seconds, start=1)]
    return "\n".join(lines) + "\n"


def result_dict(log: RunLog) -> dict:
    return {
        "converged": log.converged,
        "epochs_total": sum(log.per_stage_epochs),
        "epochs_to_converge": log.epochs_to_converge,
        "epochs_label": log.epochs_label(),
        "per_stage_epochs": log.per_stage_epochs,
        "best_epoch": log.best_epoch,
        "param_count": log.param_count,
        "transitions": [asdict(t) for t in log.transitions],
        "test": None
        if log.test_report is None
        else {"counts": asdict(log.test_counts), "metrics": asdict(log.test_report)},
    }


def write_outputs(log: RunLog, config: TrainConfig, echo: dict | None = None) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "runlog.csv").write_text(runlog_csv(log), encoding="utf-8")
    (out / "walltime.csv").write_text(walltime_csv(log), encoding="utf-8")
    (out / "result.json").write_text(
        json.dumps(result_dict(log), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    echo = echo if echo is not None else config_mod.flatten(config)
    # the echo records what determines the results; the landing dir doesn't
    manifest_lines = [f"{k} = {echo[k]}" for k in sorted(echo) if k != "train.out_dir"]
    (out / "manifest.txt").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    save_checkpoint(log.final_state, out / "final.bct1")
    save_checkpoint(
        log.best_state if log.best_state is not None else log.final_state, out / "best.bct1"
    )
    return out


# ----------------------------------------------------------------- ablations


@dataclass
class AblationTable:
    suite: str
    seeds: list
    arms: list  # arm names in fixed order
    runs: list  # per-run summary dicts
    rows: list  # per-arm aggregate dicts

    def markdown(self) -> str:
        head = "| arm | converged | median epochs | median test acc | median F1 |"
        sep = "|---|---|---|---|---|"
        lines = [f"## {self.suite} ablation ({len(self.seeds)} seeds)", "", head, sep]
        for r in self.rows:
            epochs = "-" if r["median_epochs"] is None else str(r["median_epochs"])
            lines.append(
                f"| {r['arm']} | {r['n_converged']}/{r['n_runs']} | {epochs} "
                f"| {_g9(r['median_test_acc'])} | {_g9(r['median_f1'])} |"
            )
        return "\n".join(lines) + "\n"

    def csv(self) -> str:
        lines = ["arm,n_converged,n_runs,median_epochs,median_test_acc,median_f1"]
        for r in self.rows:
            epochs = "" if r["median_epochs"] is None else str(r["median_epochs"])
            lines.append(
                f"{r['arm']},{r['n_converged']},{r['n_runs']},{epochs},"
                f"{_g9(r['median_test_acc'])},{_g9(r['median_f1'])}"
            )
        return "\n".join(lines) + "\n"

    def jsonl(self) -> str:
        return "".join(json.dumps(run, sort_keys=True) + "\n" for run in self.runs)


def _median(values):
    s = sorted(values)
    return s[len(s) // 2] if s else float("nan")


def _arm_row(arm: str, runs: list) -> dict:
    # non-converged runs sort as +inf; the upper median keeps the row honest
    epochs = [math.inf if r["epochs_to_converge"] is None else r["epochs_to_converge"] for r in runs]
    med = _median(epochs)
    return {
        "arm": arm,
        "n_runs": len(runs),
        "n_converged": sum(1 for r in runs if r["epochs_to_converge"] is not None),
        "median_epochs": None if math.isinf(med) else int(med),
        "median_test_acc": _median([r["test_acc"] for r in runs if r["test_acc"] is not None]),
        "median_f1": _median([r["f1"] for r in runs if r["f1"] is not None]),
    }


SUITES = ("loss", "optimizer", "paradigm")


def _suite_arms(suite: str, base: TrainConfig, pretrain_path: str | None) -> list:
    """(arm name, config) pairs of one suite, in table order."""
    if suite == "loss":
        gammas = (0.0, 1.0, 2.0)
        return [("cross_entropy", replace(base, loss=replace(base.loss, kind="cross_entropy")))] + [
            (f"focal_g{g:g}", replace(base, loss=replace(base.loss, kind="focal", gamma=g))) for g in gammas
        ]
    if suite == "optimizer":
        return [(kind, replace(base, optim=replace(base.optim, kind=kind))) for kind in OPTIMIZER_KINDS]
    return [
        (p, replace(base, paradigm=p, pretrain_checkpoint=None if p == "baseline" else pretrain_path))
        for p in PARADIGMS
    ]


def _run_summary(arm: str, seed: int, log: RunLog) -> dict:
    report = log.test_report
    return {
        "arm": arm,
        "seed": seed,
        "converged": log.converged,
        "epochs_to_converge": log.epochs_to_converge,
        "epochs_total": sum(log.per_stage_epochs),
        "per_stage_epochs": log.per_stage_epochs,
        "test_acc": None if report is None else report.accuracy,
        "f1": None if report is None else report.f1,
        "recall": None if report is None else report.recall,
        "precision": None if report is None else report.precision,
    }


def _run_one(job) -> dict:
    arm, seed, cfg = job
    return _run_summary(arm, seed, train(cfg))


def _pretrain_one(job):
    cfg, path = job
    pretrain_source(cfg, path)


def run_ablation(suite: str, base: TrainConfig, seeds, out_dir, jobs: int = 1) -> AblationTable:
    """Run one suite over the seeds and write ablation.md/.csv and runs.jsonl.

    The paradigm suite pretrains one backbone per seed from paradigm.source_root
    before its arms run. Every (arm, seed) run lands in out_dir/<arm>/seed_<n>/.
    All arm configs are validated before any training starts; results are
    independent of the jobs parallelism.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("ablation needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"duplicate seeds in {seeds}")
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if suite == "paradigm":
        if not base.source_root:
            raise ConfigError("paradigm suite needs paradigm.source_root for pretraining")
        if base.model.kind != "backbone":
            raise ConfigError("paradigm suite needs model.kind = backbone")
    out_dir = Path(out_dir)

    # build and validate every run config up front: a bad arm aborts the suite
    pretrain_jobs, run_jobs = [], []
    for seed in seeds:
        pre_path = None
        if suite == "paradigm":
            pre_dir = out_dir / "pretrain" / f"seed_{seed}"
            pre_path = str(pre_dir / "backbone.bct1")
            pre_cfg = replace(base, data_root=base.source_root, paradigm="baseline",
                              pretrain_checkpoint=None, seed=seed, out_dir=str(pre_dir))
            pre_cfg.validate()
            pretrain_jobs.append((pre_cfg, pre_path))
        for arm, cfg in _suite_arms(suite, base, pre_path):
            cfg = replace(cfg, seed=seed, out_dir=str(out_dir / arm / f"seed_{seed}"))
            if not cfg.data_root:
                raise ConfigError("data.root is required for ablation runs")
            cfg.validate(pretrain_pending=pre_path is not None)
            run_jobs.append((arm, seed, cfg))
    arm_order = list(dict.fromkeys(arm for arm, _, _ in run_jobs))

    # pin any missing split manifest now, so parallel workers can't race to
    # create it and the result can't depend on which seed ran first
    roots = [base.data_root, base.source_root] if suite == "paradigm" else [base.data_root]
    for root in roots:
        base.manifest(root)

    if jobs == 1:
        for job in pretrain_jobs:
            _pretrain_one(job)
        summaries = [_run_one(job) for job in run_jobs]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(_pretrain_one, pretrain_jobs))
            summaries = list(pool.map(_run_one, run_jobs))

    summaries.sort(key=lambda r: (arm_order.index(r["arm"]), seeds.index(r["seed"])))
    rows = [
        _arm_row(arm, [r for r in summaries if r["arm"] == arm]) for arm in arm_order
    ]
    table = AblationTable(suite=suite, seeds=seeds, arms=arm_order, runs=summaries, rows=rows)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ablation.md").write_text(table.markdown(), encoding="utf-8")
    (out_dir / "ablation.csv").write_text(table.csv(), encoding="utf-8")
    (out_dir / "runs.jsonl").write_text(table.jsonl(), encoding="utf-8")
    return table

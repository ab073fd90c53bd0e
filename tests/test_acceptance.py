"""Acceptance gate: one test per headline property, end to end.

Every expected value here is re-derived independently inside the test (hand
recurrences, brute-force recounts, central differences) or is a contract the
finished pipeline must satisfy (convergence, ordering, byte determinism).
Each test finishes by printing a PASS line with the measured numbers; run
with -s or -rA to see them.
"""

import filecmp
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bct.checkpoint import read_checkpoint, save_checkpoint
from bct.cli import main
from bct.config import LossSpec, ModelConfig, OptimizerConfig, TrainConfig
from bct.data import synth_generate
from bct.layers import Conv2d, Dense, Flatten, MaxPool2d, relu, sigmoid, softmax
from bct.losses import binary_cross_entropy, cross_entropy, focal_loss
from bct.metrics import ConfusionCounts, compute_metrics, count_batch
from bct.optim import Optimizer, rectification_term
from bct.rng import Rng
from bct.staging import pretrain_source
from bct.tensor import Tensor
from bct.trainer import run_ablation, train

from conftest import check_gradients


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True, dtype=np.float64)


# --------------------------------------------------------------- shared data


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    """8 images per class at 16x16; enough texture for three honest epochs."""
    root = tmp_path_factory.mktemp("accept_tiny") / "data"
    synth_generate(root, n_per_class=8, seed=11, noise_level=0.05,
                   image_size=16, family="checker", cell_size=4)
    return root


def tiny_config(root, **kw):
    base = dict(
        data_root=str(root), image_size=16,
        model=ModelConfig(kind="cnn", channels=(4, 8), dense_width=16),
        batch_size=8, max_epochs=3, loss_threshold=1e-12, seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


# ------------------------------------------------- 1. gradient correctness


def test_gradient_finite_differences():
    """Autodiff vs central differences: every layer, every loss, 28 shapes."""
    started = time.perf_counter()
    rng = Rng(901)
    shapes = 0

    for _ in range(4):  # conv2d
        n, cin, cout = 1 + rng.randint(2), 1 + rng.randint(3), 1 + rng.randint(3)
        h, w = 4 + rng.randint(4), 4 + rng.randint(4)
        k, s, p = 2 + rng.randint(2), 1 + rng.randint(2), rng.randint(2)
        # conv demands (dim + 2p - k) % s == 0; bump dims to the next valid size
        h += (-(h + 2 * p - k)) % s
        w += (-(w + 2 * p - k)) % s
        x = t64(rng.uniform(n * cin * h * w, -1, 1).reshape(n, cin, h, w))
        conv = Conv2d(cin, cout, k, stride=s, padding=p,
                      weight=rng.uniform(cout * cin * k * k, -1, 1).reshape(cout, cin, k, k),
                      bias=rng.uniform(cout, -1, 1), dtype=np.float64)
        check_gradients(lambda: (conv(x) ** 2).sum(), [x, conv.weight, conv.bias])
        shapes += 1

    for _ in range(4):  # maxpool2d; unique entries keep the argmax stable
        n, c = 1 + rng.randint(2), 1 + rng.randint(2)
        h = (4, 6)[rng.randint(2)]
        s = 1 + rng.randint(2)
        vals = rng.permutation(n * c * h * h).astype(np.float64) * 0.173
        x = t64(vals.reshape(n, c, h, h))
        check_gradients(lambda: (MaxPool2d(2, s)(x) ** 2).sum(), [x])
        shapes += 1

    for _ in range(4):  # dense
        n, fi, fo = 1 + rng.randint(4), 2 + rng.randint(7), 1 + rng.randint(4)
        x = t64(rng.uniform(n * fi, -1, 1).reshape(n, fi))
        d = Dense(fi, fo, weight=rng.uniform(fo * fi, -1, 1).reshape(fo, fi),
                  bias=rng.uniform(fo, -1, 1), dtype=np.float64)
        check_gradients(lambda: (d(x) ** 2).sum(), [x, d.weight, d.bias])
        shapes += 1

    for _ in range(2):  # sigmoid
        n, f = 2 + rng.randint(3), 3 + rng.randint(4)
        x = t64(rng.uniform(n * f, -2, 2).reshape(n, f))
        check_gradients(lambda: (sigmoid(x) ** 2).sum(), [x])
        shapes += 1

    for _ in range(2):  # relu, nudged off the kink
        n, f = 2 + rng.randint(3), 3 + rng.randint(4)
        x = t64(rng.uniform(n * f, -2, 2).reshape(n, f))
        x.data[np.abs(x.data) < 0.05] += 0.1
        check_gradients(lambda: (relu(x) ** 2).sum(), [x])
        shapes += 1

    for _ in range(2):  # softmax against a generic linear functional
        n, f = 2 + rng.randint(3), 3 + rng.randint(4)
        x = t64(rng.uniform(n * f, -2, 2).reshape(n, f))
        w = Tensor(rng.uniform(n * f, -1, 1).reshape(n, f), dtype=np.float64)
        check_gradients(lambda: (softmax(x) * w).sum(), [x])
        shapes += 1

    # losses, differentiated through softmax so the rows stay valid scores
    def onehot(labels, c):
        eye = np.eye(c, dtype=np.float64)
        return Tensor(eye[labels], dtype=np.float64)

    for _ in range(2):  # cross-entropy, 2-4 classes
        n, c = 2 + rng.randint(4), 2 + rng.randint(3)
        logits = t64(rng.uniform(n * c, -2, 2).reshape(n, c))
        t = onehot([rng.randint(c) for _ in range(n)], c)
        check_gradients(lambda: cross_entropy(softmax(logits), t), [logits])
        shapes += 1

    for _ in range(2):  # binary cross-entropy
        n = 2 + rng.randint(4)
        logits = t64(rng.uniform(n * 2, -2, 2).reshape(n, 2))
        t = onehot([rng.randint(2) for _ in range(n)], 2)
        check_gradients(lambda: binary_cross_entropy(softmax(logits), t), [logits])
        shapes += 1

    for gamma in (0.0, 1.0, 2.0):  # focal at each gamma
        for _ in range(2):
            n = 2 + rng.randint(4)
            logits = t64(rng.uniform(n * 2, -2, 2).reshape(n, 2))
            t = onehot([rng.randint(2) for _ in range(n)], 2)
            check_gradients(
                lambda: focal_loss(softmax(logits), t, gamma=gamma), [logits])
            shapes += 1

    elapsed = time.perf_counter() - started
    assert shapes >= 20
    assert elapsed < 60.0
    print(f"PASS gradients vs finite differences: {shapes} shapes, "
          f"rtol 1e-5 / atol 1e-7, {elapsed:.1f}s")


# ------------------------------------------- 2. focal gamma=0 collapses to bce


def test_focal_gamma_zero_equals_bce(tiny_root):
    rng = Rng(77)
    worst = 0.0
    for _ in range(1000):
        n = 1 + rng.randint(16)
        pos = rng.uniform(n, 0.02, 0.98)
        scores = Tensor(np.stack([pos, 1.0 - pos], axis=1), dtype=np.float64)
        eye = np.eye(2, dtype=np.float64)
        targets = Tensor(eye[[rng.randint(2) for _ in range(n)]], dtype=np.float64)
        f = focal_loss(scores, targets, gamma=0.0).item()
        b = binary_cross_entropy(scores, targets).item()
        worst = max(worst, abs(f - b))
    assert worst <= 1e-6

    # end to end: the two losses must drive byte-identical training
    runs = {}
    for kind, gamma in (("focal", 0.0), ("binary_cross_entropy", 0.0)):
        cfg = tiny_config(tiny_root, loss=LossSpec(kind=kind, gamma=gamma))
        runs[kind] = train(cfg)
    focal_col = [r.train_loss for r in runs["focal"].records]
    bce_col = [r.train_loss for r in runs["binary_cross_entropy"].records]
    assert focal_col == bce_col
    print(f"PASS focal(gamma=0) == bce: max |diff| {worst:.1e} over 1000 batches; "
          f"identical 3-epoch loss columns {focal_col}")


# --------------------------------------------------- 3. optimizer hand oracles


def test_optimizer_hand_oracles():
    def scalar():
        p = Tensor([0.0], requires_grad=True, dtype=np.float64)
        return {"w": p}, p

    def push(opt, p, grads):
        for g in grads:
            p.grad = np.array([g], dtype=np.float64)
            opt.step()

    # sgd with momentum: v1=1, theta1=-0.1; v2=1.9, theta2=-0.29
    params, p = scalar()
    push(Optimizer(params, OptimizerConfig(kind="sgd", learning_rate=0.1, momentum=0.9)),
         p, [1.0, 1.0])
    assert abs(p.data[0] - (-0.29)) <= 1e-9

    # adam first step: m_hat = v_hat = 1, theta1 = -lr / (1 + eps)
    params, p = scalar()
    push(Optimizer(params, OptimizerConfig(kind="adam", learning_rate=0.05)), p, [1.0])
    assert abs(p.data[0] - (-0.05 / (1.0 + 1e-8))) <= 1e-9

    # rectadam t=1 takes the un-adapted branch: theta1 = -lr * m_hat = -lr
    params, p = scalar()
    push(Optimizer(params, OptimizerConfig(kind="rectadam", learning_rate=0.05)), p, [1.0])
    assert abs(p.data[0] - (-0.05)) <= 1e-9

    # branch boundary at beta2=0.999: rho_inf = 1999, rho_t crosses 4 at t=5
    beta2 = 0.999
    rho_inf = 2.0 / (1.0 - beta2) - 1.0
    want = {t: rho_inf - 2.0 * t * beta2 ** t / (1.0 - beta2 ** t) for t in (4, 5)}
    rho4, r4 = rectification_term(4, beta2)
    rho5, r5 = rectification_term(5, beta2)
    assert abs(rho4 - want[4]) <= 1e-9 and abs(rho5 - want[5]) <= 1e-9
    assert rho4 <= 4.0 < rho5
    assert r4 is None and r5 is not None

    # r_t climbs toward 1 as the variance estimate matures
    rs = [rectification_term(t, beta2)[1] for t in (10, 100, 1000)]
    assert rs[0] < rs[1] < rs[2] < 1.0
    print(f"PASS optimizer oracles at 1e-9: sgd -0.29, adam -lr/(1+eps), "
          f"rectadam -lr; rho4={rho4:.4f} <= 4 < rho5={rho5:.4f}; "
          f"r_t {rs[0]:.4f} < {rs[1]:.4f} < {rs[2]:.4f} < 1")


# --------------------------------------------------------- 4. freeze contract


def test_freeze_contract_per_paradigm(tiny_root, tmp_path):
    """3-epoch miniature run per paradigm; frozen parameters stay bit-identical."""
    backbone_cfg = tiny_config(
        tiny_root, model=ModelConfig(kind="backbone", channels=(4, 8), dense_width=16))
    ckpt = tmp_path / "backbone.bct1"
    pretrain_source(backbone_cfg, ckpt)
    pretrained = read_checkpoint(ckpt)

    logs = {}
    for paradigm in ("baseline", "tl", "etl"):
        cfg = replace(backbone_cfg, paradigm=paradigm,
                      pretrain_checkpoint=str(ckpt) if paradigm != "baseline" else None)
        logs[paradigm] = train(cfg)

    # baseline: single stage, everything trainable, nothing frozen to check
    assert logs["baseline"].transitions == []
    assert logs["baseline"].per_stage_epochs == [3]

    # tl: backbone frozen for the whole run, every array bit-identical
    tl_final = logs["tl"].final_state
    frozen = [n for n in tl_final if n.startswith("backbone.")]
    assert frozen
    for name in frozen:
        assert np.array_equal(tl_final[name], pretrained[name]), name

    # etl stage 1 replays the tl run (same seed, head-only), stage 2 freezes
    # the head, so the final head must match tl's bit for bit while the
    # backbone must have moved off the pretrained values
    etl = logs["etl"]
    assert etl.per_stage_epochs == [3, 3]
    assert etl.transitions[0].epoch == 3
    heads = [n for n in etl.final_state if n.startswith("head.")]
    assert heads
    for name in heads:
        assert np.array_equal(etl.final_state[name], tl_final[name]), name
    assert any(not np.array_equal(etl.final_state[n], pretrained[n]) for n in frozen)
    print(f"PASS freeze contract: tl kept {len(frozen)} backbone arrays bit-identical; "
          f"etl [3, 3] kept {len(heads)} head arrays bit-identical through stage 2")


# ------------------------------------------------------ 5. metrics recounting


def test_metrics_exhaustive_recount():
    """compute_metrics == brute-force recount on every sequence of length <= 6."""
    cases = 0
    for length in range(1, 7):
        for code in range(4 ** length):
            preds, labels = [], []
            x = code
            for _ in range(length):
                x, pair = divmod(x, 4)
                preds.append(pair // 2)
                labels.append(pair % 2)
            counts = count_batch(ConfusionCounts(), preds, labels)

            tp = sum(1 for p, a in zip(preds, labels) if p == 1 and a == 1)
            fn = sum(1 for p, a in zip(preds, labels) if p == 0 and a == 1)
            fp = sum(1 for p, a in zip(preds, labels) if p == 1 and a == 0)
            tn = sum(1 for p, a in zip(preds, labels) if p == 0 and a == 0)
            assert (counts.tp, counts.fn, counts.fp, counts.tn) == (tp, fn, fp, tn)

            got = compute_metrics(counts)
            recall = tp / (tp + fn) if tp + fn > 0 else 0.0
            precision = tp / (tp + fp) if tp + fp > 0 else 0.0
            f1 = (2.0 * precision * recall / (precision + recall)
                  if precision + recall > 0 else 0.0)
            assert got.recall == recall
            assert got.precision == precision
            assert got.f1 == f1
            assert got.accuracy == (tp + tn) / length
            cases += 1
    assert cases == sum(4 ** k for k in range(1, 7))
    print(f"PASS metrics recount: exact match on {cases} exhaustive cases")


# ------------------------------------------------- 6. desk-scale convergence


@pytest.mark.slow
def test_desk_scale_convergence(tmp_path):
    root = tmp_path / "data"
    synth_generate(root, n_per_class=100, seed=0, noise_level=0.1,
                   image_size=64, family="checker", cell_size=8)
    cfg = TrainConfig(data_root=str(root), image_size=64,
                      loss=LossSpec(kind="focal", gamma=2.0),
                      optim=OptimizerConfig(kind="adam"),
                      seed=0)
    started = time.perf_counter()
    log = train(cfg)
    elapsed = time.perf_counter() - started
    epochs = sum(log.per_stage_epochs)
    acc = log.test_report.accuracy
    assert epochs <= 200
    assert elapsed <= 600.0
    assert acc >= 0.95
    print(f"PASS desk-scale convergence: test acc {acc:.3f} after {epochs} epochs "
          f"({'converged' if log.converged else 'cap'}), {elapsed:.0f}s")


# ------------------------------------- 7. staged-transfer directional results


@pytest.fixture(scope="module")
def transfer_runs(tmp_path_factory):
    """Five seeds x three paradigms on the pinned source/target pair."""
    work = tmp_path_factory.mktemp("accept_transfer")
    src, tgt = work / "src", work / "tgt"
    synth_generate(src, n_per_class=50, seed=100, noise_level=0.1,
                   image_size=32, family="rings", cell_size=8)
    synth_generate(tgt, n_per_class=12, seed=200, noise_level=0.65,
                   image_size=32, family="checker", cell_size=8)
    base = TrainConfig(data_root=str(tgt), image_size=32,
                       model=ModelConfig(kind="backbone"),
                       loss=LossSpec(kind="focal", gamma=2.0),
                       optim=OptimizerConfig(kind="adam", learning_rate=0.01),
                       batch_size=8, max_epochs=200, loss_threshold=0.03)
    rows = []
    for seed in range(5):
        seeded = replace(base, seed=seed)
        ckpt = work / f"backbone_seed{seed}.bct1"
        pretrain_source(replace(seeded, data_root=str(src)), ckpt)
        row = {"seed": seed}
        for paradigm in ("baseline", "tl", "etl"):
            cfg = replace(seeded, paradigm=paradigm,
                          pretrain_checkpoint=str(ckpt) if paradigm != "baseline" else None)
            log = train(cfg)
            row[paradigm] = log
        rows.append(row)
    return rows


def test_transfer_converges_faster_at_pinned_seed(transfer_runs):
    """Head-only fine-tuning beats from-scratch training at the pinned seed."""
    pinned = transfer_runs[0]
    base_log, tl_log = pinned["baseline"], pinned["tl"]
    assert base_log.converged and tl_log.converged
    e_base = sum(base_log.per_stage_epochs)
    e_tl = sum(tl_log.per_stage_epochs)
    assert e_tl < e_base

    etl_log = pinned["etl"]
    assert etl_log.test_report.accuracy >= tl_log.test_report.accuracy

    # the unfreezing transition momentarily degrades the training loss
    te = etl_log.transitions[0].epoch
    before = next(r.train_loss for r in etl_log.records if r.epoch == te)
    after = next(r.train_loss for r in etl_log.records if r.epoch == te + 1)
    assert after >= before

    meds = {}
    for paradigm in ("baseline", "tl", "etl"):
        logs = [row[paradigm] for row in transfer_runs]
        meds[paradigm] = {
            "epochs": statistics.median(sum(lg.per_stage_epochs) for lg in logs),
            "acc": statistics.median(lg.test_report.accuracy for lg in logs),
        }
    table = "; ".join(
        f"{p} epochs {meds[p]['epochs']:g} acc {meds[p]['acc']:.2f}"
        for p in ("baseline", "tl", "etl"))
    print(f"PASS staged transfer at seed 0: baseline {e_base} > tl {e_tl} epochs; "
          f"etl acc {etl_log.test_report.accuracy:.2f} >= tl "
          f"{tl_log.test_report.accuracy:.2f}; transition loss {before:.4f} -> "
          f"{after:.4f} (rise). 5-seed medians: {table}")


# ----------------------------------------------------- 8. byte determinism


def test_rerun_byte_determinism(tiny_root, tmp_path):
    def tree_bytes(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    # synth: same arguments, same bytes
    for d in ("gen_a", "gen_b"):
        assert main(["synth", "--out", str(tmp_path / d), "--per-class", "6",
                     "--seed", "5", "--noise", "0.1", "--size", "16",
                     "--cell", "4"]) == 0
    assert tree_bytes(tmp_path / "gen_a") == tree_bytes(tmp_path / "gen_b")

    # train: identical config into two directories
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"data.root = {tiny_root}\n"
        "data.image_size = 16\n"
        "model.channels = 4, 8\n"
        "model.dense_width = 16\n"
        "loss.kind = focal\n"
        "loss.gamma = 2.0\n"
        "train.batch_size = 8\n"
        "train.max_epochs = 2\n"
        "train.loss_threshold = 1e-12\n"
        "train.seed = 9\n",
        encoding="utf-8")
    for d in ("run_a", "run_b"):
        code = main(["train", "--config", str(conf), "--quiet",
                     "--train.out_dir", str(tmp_path / d)])
        assert code == 0
    compared = ["runlog.csv", "result.json", "manifest.txt", "final.bct1", "best.bct1"]
    for name in compared:
        a, b = tmp_path / "run_a" / name, tmp_path / "run_b" / name
        assert a.read_bytes() == b.read_bytes(), name
    assert (tmp_path / "run_a" / "walltime.csv").is_file()  # excluded from diff

    # checkpoint round-trip is bit-exact
    params = read_checkpoint(tmp_path / "run_a" / "final.bct1")
    rewrite = tmp_path / "rewrite.bct1"
    save_checkpoint(params, rewrite)
    assert filecmp.cmp(tmp_path / "run_a" / "final.bct1", rewrite, shallow=False)

    # charts
    for d in ("plot_a", "plot_b"):
        assert main(["plot", "--run", str(tmp_path / "run_a"),
                     "--out", str(tmp_path / d)]) == 0
    for name in ("loss.svg", "accuracy.svg"):
        assert (tmp_path / "plot_a" / name).read_bytes() == \
            (tmp_path / "plot_b" / name).read_bytes()

    # ablation tables
    base = tiny_config(tiny_root, max_epochs=2, seed=1)
    for d in ("abl_a", "abl_b"):
        run_ablation("loss", base, [1], tmp_path / d)
    for name in ("ablation.md", "ablation.csv", "runs.jsonl"):
        assert (tmp_path / "abl_a" / name).read_bytes() == \
            (tmp_path / "abl_b" / name).read_bytes()
    print(f"PASS byte determinism: synth tree, {', '.join(compared)}, "
          "both charts, all three ablation tables identical across reruns; "
          "checkpoint round-trip bit-exact")


# ----------------------------------------- 9. minority recall under imbalance


@pytest.mark.slow
def test_minority_recall_under_imbalance(tmp_path_factory):
    """On a 90/10 split with a capacity-starved net, focal recovers minority
    samples that plain bce leaves behind."""
    root = tmp_path_factory.mktemp("accept_imb") / "data"
    synth_generate(root, class_counts=(450, 50), seed=302, noise_level=1.0,
                   image_size=32, family="checker", cell_size=4)
    base = TrainConfig(data_root=str(root), image_size=32,
                       model=ModelConfig(kind="cnn", channels=(2, 4), dense_width=8),
                       optim=OptimizerConfig(kind="adam", learning_rate=0.005),
                       batch_size=8, max_epochs=20)
    recalls = {"focal": [], "bce": []}
    for seed in range(5):
        for arm, spec in (("focal", LossSpec(kind="focal", gamma=2.0)),
                          ("bce", LossSpec(kind="binary_cross_entropy"))):
            log = train(replace(base, seed=seed, loss=spec))
            recalls[arm].append(log.test_report.recall)
    assert recalls["focal"][0] >= recalls["bce"][0]
    med_f = statistics.median(recalls["focal"])
    med_b = statistics.median(recalls["bce"])
    per_seed = "; ".join(
        f"seed {s}: focal {f:.2f} bce {b:.2f}"
        for s, (f, b) in enumerate(zip(recalls["focal"], recalls["bce"])))
    print(f"PASS imbalance: pinned seed 0 minority recall focal "
          f"{recalls['focal'][0]:.2f} >= bce {recalls['bce'][0]:.2f}; "
          f"5-seed medians focal {med_f:.2f} vs bce {med_b:.2f} ({per_seed})")

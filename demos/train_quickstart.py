"""Generate a synthetic dataset, train the small CNN on it, chart the run.

Everything lands under --out (default demo_out/quickstart): the dataset,
the run artifacts, and two SVG charts you can open in a browser.

Run:  python demos/train_quickstart.py [--out DIR] [--per-class N]
"""

import argparse
from pathlib import Path

from bct.config import LossSpec, ModelConfig, OptimizerConfig, TrainConfig
from bct.data import synth_generate
from bct.svgchart import line_chart
from bct.trainer import train


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo_out/quickstart")
    parser.add_argument("--per-class", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out)
    data = out / "data"
    manifest = synth_generate(data, n_per_class=args.per_class, seed=args.seed,
                              noise_level=0.15, image_size=32, cell_size=8)
    print(manifest.summary())

    config = TrainConfig(
        data_root=str(data), image_size=32,
        model=ModelConfig(kind="cnn", channels=(8, 16), dense_width=32),
        loss=LossSpec(kind="focal", gamma=2.0),
        optim=OptimizerConfig(kind="adam"),
        batch_size=16, max_epochs=60, seed=args.seed,
        out_dir=str(out / "run"),
    )
    print()
    print("epoch  train_loss  train_acc  val_acc")
    log = train(config, progress=lambda r: print(
        f"{r.epoch:5d}  {r.train_loss:10.4f}  {r.train_acc:9.3f}  {r.val_acc:7.3f}"))

    print()
    verdict = "converged" if log.converged else "hit the epoch cap"
    print(f"{verdict} after {log.epochs_label()} epochs; "
          f"best validation at epoch {log.best_epoch}")
    rep = log.test_report
    print(f"test: accuracy {rep.accuracy:.3f}  recall {rep.recall:.3f}  "
          f"precision {rep.precision:.3f}  f1 {rep.f1:.3f}")

    epochs = [float(r.epoch) for r in log.records]
    (out / "loss.svg").write_text(line_chart(
        [("train loss", epochs, [r.train_loss for r in log.records])],
        title="training loss", x_label="epoch", y_label="loss"), encoding="utf-8")
    (out / "accuracy.svg").write_text(line_chart(
        [("train", epochs, [r.train_acc for r in log.records]),
         ("val", epochs, [r.val_acc for r in log.records])],
        title="accuracy", x_label="epoch", y_label="accuracy"), encoding="utf-8")
    print(f"artifacts in {out / 'run'}; charts: {out / 'loss.svg'}, "
          f"{out / 'accuracy.svg'}")


if __name__ == "__main__":
    main()

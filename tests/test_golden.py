"""Golden artifact ledger: the sha256 of every file a small bct session writes, pinned across revisions.

The session runs through cli.main in a temporary directory, with relative
paths, so no file holds a machine path: two synth datasets, three train runs
that cover every loss and every optimizer between them, the paradigm suite
at --jobs 2, one evaluate line and the two plot SVGs; then a desk-scale
synth, train and evaluate at 64 px, whose convs and eval batches are large
enough to take the memory-bounding paths. Only walltime.csv is left out. golden/ledger.txt holds one `sha256  relative/path` line per file;
golden/env.txt records the numpy, BLAS and OpenBLAS kernel family the ledger was made with. The .bct1 and
runlog.csv digests move with the kernel family (OPENBLAS_CORETYPE forces one), so a second test reruns the
session under Haswell kernels and compares the two runs with each other, not with the ledger.

A change that moves artifacts on purpose rewrites both files with

    PYTHONPATH=src python tests/test_golden.py

and says which artifacts moved and why.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bct.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
LEDGER = GOLDEN / "ledger.txt"
ENV = GOLDEN / "env.txt"
NOT_PINNED = {"walltime.csv"}

COMMON = ["--data.root", "checker", "--data.image_size", "16", "--model.channels", "4,8",
          "--model.dense_width", "8", "--train.batch_size", "4", "--train.max_epochs", "2"]
SESSION = (
    ["synth", "--out", "checker", "--per-class", "8", "--size", "16", "--cell", "4", "--seed", "0"],
    ["synth", "--out", "rings", "--per-class", "8", "--size", "16", "--cell", "4", "--seed", "1",
     "--family", "rings"],
    ["train", "--quiet", *COMMON, "--train.out_dir", "runs/ce_sgd",
     "--loss.kind", "cross_entropy", "--optim.kind", "sgd", "--optim.momentum", "0.9"],
    ["train", "--quiet", *COMMON, "--train.out_dir", "runs/bce_adam",
     "--loss.kind", "binary_cross_entropy", "--optim.kind", "adam", "--train.seed", "3"],
    ["train", "--quiet", *COMMON, "--train.out_dir", "runs/focal_rectadam",
     "--loss.kind", "focal", "--loss.gamma", "1.5", "--loss.reduction", "sum", "--optim.kind", "rectadam"],
    ["ablate", "--suite", "paradigm", "--jobs", "2", "--seeds", "0", "--out", "suite", *COMMON,
     "--model.kind", "backbone", "--paradigm.source_root", "rings"],
    ["evaluate", "--checkpoint", "runs/ce_sgd/best.bct1", *COMMON, "--out", "evaluate.jsonl"],
    ["plot", "--run", "runs/focal_rectadam"],
    # desk scale: the recorded convs build their columns in blocks and rebuild them for dW,
    # and the 38-image train split is one eval batch that the no-grad forward slices
    ["synth", "--out", "desk", "--per-class", "24", "--size", "64", "--cell", "8", "--seed", "0"],
    ["train", "--quiet", "--data.root", "desk", "--train.batch_size", "16", "--loss.kind", "focal",
     "--loss.gamma", "2", "--train.max_epochs", "2", "--train.out_dir", "runs/desk_focal"],
    ["evaluate", "--checkpoint", "runs/desk_focal/best.bct1", "--data.root", "desk", "--split", "train",
     "--out", "evaluate_desk.jsonl"],
)


def blas_core() -> str:
    """The kernel family numpy's bundled OpenBLAS chose at load time, e.g. SkylakeX; "unknown" without that library."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def env_record() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = {}
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}", "blas_core": blas_core()}


def run_session() -> dict[str, str]:
    """Run SESSION in the current directory; {relative path: sha256} of every file it wrote, bar walltime.csv."""
    for argv in SESSION:
        assert main(argv) == 0, f"bct {' '.join(argv)} failed"
    return {
        p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path().rglob("*"))
        if p.is_file() and p.name not in NOT_PINNED
    }


def read_lines(path: Path, sep: str) -> list[list[str]]:
    return [line.split(sep, 1) for line in path.read_text(encoding="utf-8").splitlines()]


def test_artifacts_match_the_ledger(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_session()
    want = {path: digest for digest, path in read_lines(LEDGER, "  ")}
    differ = sorted(
        [f"changed {p}" for p in want.keys() & got.keys() if want[p] != got[p]]
        + [f"missing {p}" for p in want.keys() - got.keys()]
        + [f"new {p}" for p in got.keys() - want.keys()]
    )
    env, recorded = env_record(), dict(read_lines(ENV, " = "))
    env_diff = [f"{k}: recorded {recorded.get(k)}, here {env[k]}" for k in env if recorded.get(k) != env[k]]
    assert not differ, "\n".join(differ + env_diff)


# run in a fresh directory; writes [blas core, digests] as JSON to the path in argv[1], outside that directory
_CHILD = ("import json, sys, pathlib, test_golden; "
          "pathlib.Path(sys.argv[1]).write_text(json.dumps([test_golden.blas_core(), test_golden.run_session()]))")


def test_reruns_match_on_a_second_kernel_family(tmp_path):
    # one BLAS thread: on Haswell kernels the .bct1 and runlog bytes also move with the thread count.
    # The hash seed changes between the runs, so no artifact may depend on set or str-hash order
    path = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}
    runs = []
    for hash_seed in ("1", "7"):
        cwd, out = tmp_path / f"hashseed_{hash_seed}", tmp_path / f"hashseed_{hash_seed}.json"
        cwd.mkdir()
        child = subprocess.run([sys.executable, "-c", _CHILD, str(out)], cwd=cwd,
                               env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        runs.append(json.loads(out.read_text(encoding="utf-8")))
    (core, first), (_, second) = runs
    assert core in ("Haswell", "unknown")
    assert first == second, "\n".join(f"changed {p}" for p in sorted(first) if first[p] != second.get(p))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        digests = run_session()
    GOLDEN.mkdir(exist_ok=True)
    LEDGER.write_text("".join(f"{d}  {p}\n" for p, d in digests.items()), encoding="utf-8")
    ENV.write_text("".join(f"{k} = {v}\n" for k, v in env_record().items()), encoding="utf-8")
    print(f"wrote {len(digests)} digests to {LEDGER}", file=sys.stderr)

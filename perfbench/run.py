"""The bct benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program measured is the bct package in src/ next to
this directory, imported from source (there is nothing to build). One run:

1. Set-up, three times, each into a fresh directory: the workload's datasets
   and, for transfer, the pretrained backbone. The three trees must match
   byte for byte. setup_s is the median set-up plus the median import time
   of the worker processes.
2. Replicas, each in a fresh worker process, in waves that fill every CPU,
   until S seconds have passed and at least two replicas ran. With
   --trace 1 every other replica is traced (the first one is), and the
   untraced ones give the tracing overhead.
3. Checks on every replica: the worker succeeded, the workload's own output
   checks pass, and every artifact except walltime.csv is byte-identical
   to the first replica's. A replica that fails any of them is failed.

It prints a table, an environment record, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. Metric names and
units come from BENCHMARK.json: end_to_end with --trace 0, per_layer with
--trace 1. Every BLAS library is held to one thread per process.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS = 3
MIN_REPLICAS = 2  # the byte-identity check needs a second replica
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NOT_COMPARED = {"walltime.csv"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ------------------------------------------------------------------ helpers


def tree_hashes(root) -> dict:
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in NOT_COMPARED
    }


def tree_differences(a, b) -> list:
    ha, hb = tree_hashes(a), tree_hashes(b)
    return sorted(k for k in ha.keys() | hb.keys() if ha.get(k) != hb.get(k))


def read_walltimes(run_dir) -> list:
    lines = (Path(run_dir) / "walltime.csv").read_text(encoding="utf-8").splitlines()[1:]
    return [float(line.split(",")[1]) for line in lines]


def git_revision():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text(encoding="utf-8").strip() if path.is_file() else ref


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "bct").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(np, workload, seed) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = {}
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "thread_control": "the benchmark sets these variables to 1 before numpy loads; "
                          "workers inherit them",
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "workload": workload.name,
        "seed": seed,
    }
    if hasattr(workload, "jobs"):
        env["jobs"] = workload.jobs()
        env["jobs_rule"] = "jobs = min(2, nproc) with one BLAS thread each, so jobs x threads <= nproc"
    return env


def median(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


# ------------------------------------------------------------------ replicas


class Replica:
    def __init__(self, index, directory, traced):
        self.index = index
        self.dir = Path(directory)
        self.out = self.dir / "out"
        self.trace_dir = self.dir / "trace" if traced else None
        self.problems = []
        self.result = None
        self.proc = None

    def start(self, workload, inputs):
        self.dir.mkdir(parents=True)
        job = {
            "workload": workload.name,
            "inputs": inputs,
            "out": str(self.out),
            "trace_dir": str(self.trace_dir) if self.trace_dir else None,
            "result": str(self.dir / "result.json"),
            "src": str(SRC),
        }
        (self.dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        with open(self.dir / "worker.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(self.dir / "job.json")],
                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)

    def finish(self, deadline):
        if self.proc is None:
            self.problems.append(f"replica {self.index} did not start")
            return
        try:
            code = self.proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # the worker leads its own process group, pool workers included
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        if code is None:
            self.problems.append(f"replica {self.index} timed out")
        elif code != 0:
            tail = (self.dir / "worker.log").read_text(errors="replace").strip().splitlines()[-1:]
            self.problems.append(f"replica {self.index} exited with {code}: {' '.join(tail)}")
        else:
            self.result = json.loads((self.dir / "result.json").read_text(encoding="utf-8"))

    @property
    def done(self):
        return self.result is not None

    @property
    def ok(self):
        return self.done and not self.problems


def run_replicas(workload, inputs, seed, seconds, trace, work):
    """Run replicas in waves until `seconds` have passed and MIN_REPLICAS are done.

    A wave starts as many replicas at once as fill every CPU (each worker
    process runs one BLAS thread; the suite's replica is jobs processes), so
    every replica of every workload meets the same, fully loaded machine,
    and the pair that the byte-identity check needs costs one replica's
    time where CPUs allow.
    """
    procs = workload.jobs() if hasattr(workload, "jobs") else 1
    width = max(1, len(os.sched_getaffinity(0)) // procs)
    replicas = []
    t0 = time.perf_counter()
    wave_s = 0.0
    while len(replicas) < MIN_REPLICAS or time.perf_counter() - t0 < seconds:
        deadline = STARTED + RUN_LIMIT_S
        if replicas and deadline - time.perf_counter() < wave_s * 1.5:
            break
        wave = [Replica(i, work / f"replica{i}", trace and i % 2 == 0)
                for i in range(len(replicas), len(replicas) + width)]
        started = time.perf_counter()
        try:
            for rep in wave:
                rep.start(workload, inputs)
        finally:
            for rep in wave:
                rep.finish(deadline)
        wave_s = time.perf_counter() - started
        replicas += wave
        if not all(rep.done for rep in wave):  # the next workers would fail the same way
            break
        for rep in wave:
            try:
                rep.problems += workload.check(inputs, rep.out, seed)
            except (OSError, KeyError, TypeError, ValueError) as e:  # missing or malformed artifacts
                rep.problems.append(f"replica {rep.index} output check failed: {e!r}")
            if rep is not replicas[0]:
                diff = tree_differences(replicas[0].out, rep.out)
                if diff:
                    rep.problems.append(f"replica {rep.index} artifacts differ from replica 0: "
                                        f"{', '.join(diff[:5])}")
    done = [r for r in replicas if r.done]
    if len(done) < MIN_REPLICAS:
        for r in replicas:
            r.problems.append(f"only {len(done)} replica(s) completed, {MIN_REPLICAS} needed")
    return replicas


# ------------------------------------------------------------------ metrics


def end_to_end(workload, inputs, setup_times, replicas):
    import workloads

    ok = [r for r in replicas if r.done]
    n_train = workloads.train_images(inputs[workload.dataset])
    firsts, steady, rates = [], [], []
    epochs = None
    for r in ok:
        total = 0
        for d in workload.run_dirs(r.out):
            times = read_walltimes(d)
            firsts.append(times[0])
            steady.extend(times[1:])
            total += len(times)
        epochs = total
        rates.append(n_train * total / r.result["wall_s"])
    metrics = {
        "setup_s": median(setup_times) + median(r.result["import_s"] for r in ok),
        "run_s": median(r.result["wall_s"] for r in ok),
        "first_epoch_s": median(firsts),
        "epoch_s_p50": median(steady),
        "epoch_s_p90": p90(steady),
        "samples_per_s": median(rates),
        "epochs": epochs,
        "peak_rss_mb": median(r.result["rss_kb"] for r in ok) / 1024.0,
    }
    samples = {"setup_s": len(setup_times), "run_s": len(ok), "first_epoch_s": len(firsts),
               "epoch_s_p50": len(steady), "epoch_s_p90": len(steady), "samples_per_s": len(ok),
               "epochs": len(ok), "peak_rss_mb": len(ok)}
    return metrics, samples


def per_layer(workload, synth_times, replicas):
    import tracer

    traced = [r for r in replicas if r.done and r.trace_dir]
    plain = [r for r in replicas if r.done and not r.trace_dir]
    summaries = []
    for r in traced:
        s = tracer.summarize(r.trace_dir, r.result["wall_s"])
        want = len(workload.run_dirs(r.out))
        if s["trainer.train_runs"] != want:
            r.problems.append(f"trace of replica {r.index} holds {s['trainer.train_runs']} "
                              f"train() spans, expected {want}")
        summaries.append(s)
    metrics = {k: median(s[k] for s in summaries) for k in summaries[0]}
    metrics["data.synth_s"] = median(synth_times)
    traced_wall = median(r.result["wall_s"] for r in traced)
    metrics["trace.overhead_ratio"] = traced_wall / median(r.result["wall_s"] for r in plain) - 1.0
    samples = {"traced_replicas": len(traced), "untraced_replicas": len(plain)}
    return metrics, samples


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bct" / "__init__.py").is_file():
        print(f"error: no bct package under {SRC}; run from a bct checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np

    import bct

    if Path(bct.__file__).resolve().parent != SRC / "bct":
        print(f"error: imported bct from {bct.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        record = measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["env"] = environment(np, workload, args.seed)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = record["attempted"], record["failed"]
    print(f"{workload.name}  seed {args.seed}  trace {args.trace}: "
          f"{attempted} replicas, {failed} failed, fail_ratio {failed / attempted:g}")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")
    for name, m in metrics.items():
        n = record["samples"].get(name)
        note = f"  (n={n})" if n is not None else ""
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}{note}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload.name}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def measure(workload, args, work) -> dict:
    setup_times, synth_times = [], []

    @contextlib.contextmanager
    def synth_timer():
        t = time.perf_counter()
        yield
        synth_times.append(time.perf_counter() - t)

    inputs = None
    for i in range(SETUPS):
        t = time.perf_counter()
        got = workload.setup(work / f"setup{i}", args.seed, synth_timer)
        setup_times.append(time.perf_counter() - t)
        inputs = inputs or got
    problems = [f"set-up {i} differs from set-up 0: {', '.join(diff[:5])}"
                for i in range(1, SETUPS)
                if (diff := tree_differences(work / "setup0", work / f"setup{i}"))]

    replicas = run_replicas(workload, inputs, args.seed, args.seconds, bool(args.trace), work)
    if sum(r.done for r in replicas) < MIN_REPLICAS:
        raise SystemExit("error: " + "; ".join(p for r in replicas for p in r.problems))
    if args.trace:
        metrics, samples = per_layer(workload, synth_times, replicas)
    else:
        metrics, samples = end_to_end(workload, inputs, setup_times, replicas)
    if problems:  # inputs that do not reproduce make every replica suspect
        for r in replicas:
            r.problems += problems[:1]
    problems += [p for r in replicas for p in r.problems]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "metrics": metrics,
        "samples": samples,
        "attempted": len(replicas),
        "failed": sum(1 for r in replicas if not r.ok),
        "problems": sorted(set(problems)),
        "setup_s": setup_times,
        "replicas": [{"index": r.index, "traced": r.trace_dir is not None, "ok": r.ok,
                      "result": r.result, "problems": r.problems} for r in replicas],
    }


if __name__ == "__main__":
    sys.exit(main())

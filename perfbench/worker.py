"""Run one benchmark replica in a fresh process.

    python3 perfbench/worker.py JOB.json

The job file (written by run.py) names the workload, its set-up inputs,
the output directory and, for a traced replica, the trace directory. The
worker times the workload call and writes the wall time, the import time
and the peak resident memory of itself and its children to the job's
result file.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(job_path) -> int:
    started = time.perf_counter()
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import bct.trainer  # noqa: F401  (the import warm-up that set-up time counts)
    import workloads

    imported = time.perf_counter()
    tr = None
    if job["trace_dir"]:
        import tracer

        Path(job["trace_dir"]).mkdir(parents=True)
        tr = tracer.install(job["trace_dir"])
        root = tr.open("replica")
    workload = workloads.WORKLOADS[job["workload"]]
    t0 = time.perf_counter()
    workload.run(job["inputs"], job["out"], job.get("epoch_cap"))
    wall = time.perf_counter() - t0
    if tr is not None:
        tr.close(root)
        tr.dump(Path(job["trace_dir"]) / "main.json")
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"wall_s": wall, "import_s": imported - started, "rss_kb": rss_kb}
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Span tracer for traced benchmark replicas.

install() wraps the public entry points of the bct modules in place. Each
wrapped call records a span (name, start, end, parent) in memory; layer
backward passes are traced by wrapping the backward closure of the Tensor
that the layer's forward returns. Counters (calls that are not timed,
computed operation counts, useful-work tallies) are recorded at the same
call boundaries. dump() writes everything to one JSON file per process at
the end; ablation pool workers write their own file after each job, and
summarize() merges the files of one replica into per-layer metrics.

bct.trainer binds make_batches, load_split, stack_batch, count_batch,
save_checkpoint and load_subset by name, so those bindings are patched in
bct.trainer itself. Untraced replicas never import this module.
"""

import functools
import json
import os
import time
from pathlib import Path

import opcount

CLOCK = time.perf_counter


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.dumps = 0
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.frozen = frozenset()  # ids of the parameter tensors frozen right now
        self.upstream_trainable = False  # a trainable conv ran earlier in this forward
        self.batch_ids = {}  # id(batch images tensor) -> sample ids
        self.stage_seen = set()
        self.stage_forwards = 0
        self.in_test = False

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- spans

    def open(self, name):
        rec = [name, CLOCK(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[2] = CLOCK()
        self.stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)

        return wrapper

    def wrap_backward(self, out, name, after=None):
        """Trace the backward closure of a layer's output tensor."""
        inner = out._backward
        if inner is None:
            return out

        def backward(g):
            rec = self.open(name)
            try:
                inner(g)
            finally:
                self.close(rec)
            if after is not None:
                after(rec[2] - rec[1])

        out._backward = backward
        return out

    # -- frozen-backbone forwards, tallied per stage

    def end_stage(self):
        self.add("frozen_fwd.distinct", len(self.stage_seen))
        self.add("frozen_fwd.forwards", self.stage_forwards)
        self.stage_seen = set()
        self.stage_forwards = 0

    def dump(self, path, **extra):
        doc = {"pid": os.getpid(), "spans": self.spans, "counts": self.counts, **extra}
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


def install(out_dir) -> Tracer:
    """Patch the bct modules so that every wrapped call reports to one Tracer."""
    import bct.data
    import bct.cli
    import bct.layers as L
    import bct.losses
    import bct.optim
    import bct.staging
    import bct.tensor
    import bct.trainer as T

    tr = Tracer(out_dir)
    wrap = tr.wrap

    def patch_forward(cls, method):
        # the layer classes alias __call__ = forward at class creation
        cls.forward = cls.__call__ = method

    # ---- layers

    conv_forward = L.Conv2d.forward

    def conv(layer, x):
        frozen = id(layer.weight) in tr.frozen
        useful = tr.upstream_trainable or not frozen
        tr.upstream_trainable = tr.upstream_trainable or not frozen
        rec = tr.open("layers.conv.fwd")
        try:
            out = conv_forward(layer, x)
        finally:
            tr.close(rec)
        n, c, h, w = x.shape
        _, oc, ho, wo = out.shape
        k, size = layer.kernel_size, x.data.itemsize
        flops, nbytes = opcount.conv_forward(n, c, h, w, oc, k, ho, wo, size)
        tr.add("conv.fwd_flop", flops)
        tr.add("conv.fwd_bytes", nbytes)
        needs_dx = x.requires_grad

        def after(seconds):
            bflops, bbytes = opcount.conv_backward(n, c, h, w, oc, k, ho, wo, size, needs_dx)
            tr.add("conv.bwd_flop", bflops)
            tr.add("conv.bwd_bytes", bbytes)
            tr.add("conv.bwd_calls", 1)
            tr.add("conv.bwd_useful", int(useful))
            if frozen:
                tr.add("conv.bwd_frozen_s", seconds)

        return tr.wrap_backward(out, "layers.conv.bwd", after)

    patch_forward(L.Conv2d, conv)

    pool_forward = L.MaxPool2d.forward

    def pool(layer, x):
        rec = tr.open("layers.pool.fwd")
        try:
            out = pool_forward(layer, x)
        finally:
            tr.close(rec)
        n, c, h, w = x.shape
        ho, wo = out.shape[2:]
        size = x.data.itemsize
        ops, nbytes = opcount.pool_forward(n, c, h, w, layer.window, ho, wo, size)
        tr.add("pool.fwd_ops", ops)
        tr.add("pool.fwd_bytes", nbytes)

        def after(seconds):
            bops, bbytes = opcount.pool_backward(n, c, h, w, ho, wo, size)
            tr.add("pool.bwd_ops", bops)
            tr.add("pool.bwd_bytes", bbytes)

        return tr.wrap_backward(out, "layers.pool.bwd", after)

    patch_forward(L.MaxPool2d, pool)

    dense_forward = wrap("layers.dense.fwd", L.Dense.forward)

    def dense(layer, x):
        return tr.wrap_backward(dense_forward(layer, x), "layers.dense.bwd")

    patch_forward(L.Dense, dense)

    activation_forward = {
        kind: wrap(f"layers.{kind}.fwd", L.Activation.forward) for kind in L._ACTIVATIONS
    }

    def activation(layer, x):
        return tr.wrap_backward(activation_forward[layer.kind](layer, x), f"layers.{layer.kind}.bwd")

    patch_forward(L.Activation, activation)

    model_forward = wrap("layers.model.fwd", L.Model.forward)

    def backbone_frozen(model):
        convs = [layer for _, layer in model.layers if isinstance(layer, L.Conv2d)]
        return bool(convs) and all(id(c.weight) in tr.frozen for c in convs)

    def model(m, x):
        tr.upstream_trainable = False
        ids = tr.batch_ids.pop(id(x), None)
        if ids is not None and backbone_frozen(m):
            tr.stage_seen.update(ids)
            tr.stage_forwards += len(ids)
        if bct.tensor._grad_enabled:
            # the train step runs from this forward to the end of optimizer.step()
            tr.open("trainer.train_step")
        return model_forward(m, x)

    patch_forward(L.Model, model)
    L.Model.state = wrap("layers.model_state", L.Model.state)

    # ---- tensor, losses, optim

    bct.tensor.Tensor.backward = wrap("tensor.backward", bct.tensor.Tensor.backward)
    for name in ("cross_entropy", "binary_cross_entropy", "focal_loss"):
        setattr(bct.losses, name, wrap("losses.loss", getattr(bct.losses, name)))

    step = wrap("optim.step", bct.optim.Optimizer.step)

    def optim_step(opt):
        tr.add("optim.params_skipped", len(opt.frozen))
        step(opt)
        top = tr.spans[tr.stack[-1]] if tr.stack else None
        if top is not None and top[0] == "trainer.train_step":
            tr.close(top)

    bct.optim.Optimizer.step = optim_step

    set_freeze = bct.optim.Optimizer.set_freeze

    def freeze(opt, names):
        set_freeze(opt, names)
        tr.end_stage()
        tr.frozen = frozenset(id(opt.params[n]) for n in opt.frozen)

    bct.optim.Optimizer.set_freeze = freeze

    # ---- data and metrics, through the names bct.trainer bound

    def counted(name, fn, key, measure):
        timed = wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            tr.add(key, measure(args, result))
            return result

        return wrapper

    T.load_split = counted("data.load_split", T.load_split, "data.images_decoded",
                           lambda a, r: len(r))
    T.make_batches = counted("data.make_batches", T.make_batches, "data.batches",
                             lambda a, r: len(r))
    T.count_batch = counted("metrics.count_batch", T.count_batch, "metrics.samples_counted",
                            lambda a, r: len(a[1]))
    T.save_checkpoint = counted("checkpoint.save", T.save_checkpoint, "checkpoint.bytes_written",
                                lambda a, r: os.path.getsize(a[1]))
    T.load_subset = wrap("checkpoint.load_subset", T.load_subset)

    stack_batch = bct.data.stack_batch

    @functools.wraps(stack_batch)
    def batch(samples):
        b = stack_batch(samples)
        tr.batch_ids[id(b.images)] = b.ids
        return b

    bct.data.stack_batch = batch  # make_batches looks it up in bct.data
    T.stack_batch = batch  # eval_split looks it up in bct.trainer

    # ---- trainer phases and staging

    eval_split = T.eval_split
    train_eval = wrap("trainer.train_eval", eval_split)
    val_eval = wrap("trainer.val_eval", eval_split)

    @functools.wraps(eval_split)
    def split_eval(model_, samples, loss_fn=None, batch_size=64):
        if tr.in_test:
            return eval_split(model_, samples, loss_fn, batch_size)
        fn = train_eval if loss_fn is not None else val_eval
        return fn(model_, samples, loss_fn, batch_size)

    T.eval_split = split_eval

    evaluate = wrap("trainer.test_eval", T.evaluate)

    @functools.wraps(T.evaluate)
    def test_eval(*args, **kwargs):
        tr.in_test = True
        try:
            return evaluate(*args, **kwargs)
        finally:
            tr.in_test = False

    T.evaluate = test_eval

    train = wrap("trainer.train", T.train)

    @functools.wraps(T.train)
    def train_run(*args, **kwargs):
        try:
            return train(*args, **kwargs)
        finally:
            tr.end_stage()

    T.train = train_run
    T.write_outputs = wrap("trainer.write_outputs", T.write_outputs)

    run_ablation = wrap("trainer.run_ablation", T.run_ablation)

    @functools.wraps(T.run_ablation)
    def ablation(suite, base, seeds, out_dir, jobs=1):
        tr.add("ablate.jobs", jobs)
        return run_ablation(suite, base, seeds, out_dir, jobs)

    T.run_ablation = ablation
    bct.cli.run_ablation = ablation  # the CLI bound it by name

    run_one = T._run_one

    @functools.wraps(run_one)
    def pool_job(job):
        if os.getpid() == tr.pid:
            return run_one(job)
        # a forked pool worker: drop what the fork copied, write its own spans
        tr.reset()
        try:
            return run_one(job)
        finally:
            tr.dumps += 1
            tr.dump(tr.out_dir / f"worker-{os.getpid()}-{tr.dumps}.json")

    T._run_one = pool_job

    record_epoch = bct.staging.StagedDriver.record_epoch

    def staged_epoch(driver, epoch, converged):
        transition = record_epoch(driver, epoch, converged)
        tr.add("staging.stage_epochs", 1)
        tr.add("staging.transitions", int(transition is not None))
        return transition

    bct.staging.StagedDriver.record_epoch = staged_epoch
    return tr


# ----------------------------------------------------------------- summaries

# span name -> metric name for the summed span durations
SPAN_SECONDS = {
    "layers.conv.fwd": "layers.conv.fwd_s",
    "layers.conv.bwd": "layers.conv.bwd_s",
    "layers.pool.fwd": "layers.pool.fwd_s",
    "layers.pool.bwd": "layers.pool.bwd_s",
    "layers.sigmoid.fwd": "layers.sigmoid.fwd_s",
    "layers.sigmoid.bwd": "layers.sigmoid.bwd_s",
    "layers.relu.fwd": "layers.relu.fwd_s",
    "layers.dense.fwd": "layers.dense.fwd_s",
    "layers.dense.bwd": "layers.dense.bwd_s",
    "layers.model_state": "layers.model_state_s",
    "losses.loss": "losses.loss_s",
    "optim.step": "optim.step_s",
    "data.load_split": "data.load_split_s",
    "data.make_batches": "data.make_batches_s",
    "metrics.count_batch": "metrics.count_batch_s",
    "trainer.train_step": "trainer.train_step_s",
    "trainer.train_eval": "trainer.train_eval_s",
    "trainer.val_eval": "trainer.val_eval_s",
    "trainer.test_eval": "trainer.test_eval_s",
    "trainer.write_outputs": "trainer.write_outputs_s",
    "checkpoint.save": "checkpoint.save_s",
    "checkpoint.load_subset": "checkpoint.load_subset_s",
}

SPAN_CALLS = {
    "layers.conv.fwd": "layers.conv.calls",
    "tensor.backward": "tensor.backward.calls",
    "losses.loss": "losses.calls",
    "optim.step": "optim.step.calls",
}

COUNTS = {
    "optim.params_skipped": "optim.params_skipped",
    "data.images_decoded": "data.images_decoded",
    "data.batches": "data.batches",
    "metrics.samples_counted": "metrics.samples_counted",
    "staging.stage_epochs": "staging.stage_epochs",
    "staging.transitions": "staging.transitions",
    "checkpoint.bytes_written": "checkpoint.bytes_written",
}


def _ratio(num, den):
    # no attempts means nothing was wasted
    return num / den if den else 1.0


def summarize(trace_dir, wall_s):
    """Per-layer metrics of one traced replica from all its trace files.

    wall_s is the replica's timed wall clock, the denominator of the
    ablation busy ratio.
    """
    total, calls, child, counts = {}, {}, {}, {}
    spans = 0
    for path in sorted(Path(trace_dir).glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        recs = doc["spans"]
        spans += len(recs)
        for name, start, end, parent in recs:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = recs[parent][0]
                child[pname] = child.get(pname, 0.0) + (end - start)
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value

    out = {metric: total.get(span, 0.0) for span, metric in SPAN_SECONDS.items()}
    out.update({metric: calls.get(span, 0) for span, metric in SPAN_CALLS.items()})
    out.update({metric: counts.get(key, 0) for key, metric in COUNTS.items()})
    out["tensor.backward_self_s"] = total.get("tensor.backward", 0.0) - child.get("tensor.backward", 0.0)
    out["layers.conv.bwd_frozen_s"] = counts.get("conv.bwd_frozen_s", 0.0)
    out["layers.conv.bwd_useful_ratio"] = _ratio(counts.get("conv.bwd_useful", 0),
                                                 counts.get("conv.bwd_calls", 0))
    out["layers.frozen_fwd_useful_ratio"] = _ratio(counts.get("frozen_fwd.distinct", 0),
                                                   counts.get("frozen_fwd.forwards", 0))
    fwd_flop, bwd_flop = counts.get("conv.fwd_flop", 0), counts.get("conv.bwd_flop", 0)
    out["layers.conv.gflop"] = (fwd_flop + bwd_flop) / 1e9
    out["layers.conv.fwd_gflop_computed"] = fwd_flop / 1e9
    out["layers.conv.bwd_gflop_computed"] = bwd_flop / 1e9
    out["layers.conv.fwd_mb_computed"] = counts.get("conv.fwd_bytes", 0) / 1e6
    out["layers.conv.bwd_mb_computed"] = counts.get("conv.bwd_bytes", 0) / 1e6
    out["layers.pool.fwd_gop_computed"] = counts.get("pool.fwd_ops", 0) / 1e9
    out["layers.pool.bwd_gop_computed"] = counts.get("pool.bwd_ops", 0) / 1e9
    out["layers.pool.fwd_mb_computed"] = counts.get("pool.fwd_bytes", 0) / 1e6
    out["layers.pool.bwd_mb_computed"] = counts.get("pool.bwd_bytes", 0) / 1e6
    jobs = counts.get("ablate.jobs", 1)
    out["trainer.ablate_busy_ratio"] = total.get("trainer.train", 0.0) / (jobs * wall_s)
    out["trainer.train_runs"] = calls.get("trainer.train", 0)
    out["trace.spans"] = spans
    return out

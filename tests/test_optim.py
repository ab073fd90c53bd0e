import math

import numpy as np
import pytest

from bct.errors import NumericError
from bct.optim import Optimizer, OptimizerConfig, rectification_term
from bct.tensor import Tensor


def reference_sgd(grads, lr, momentum, theta0=0.0):
    """Scalar momentum-SGD recurrence in pure python floats."""
    theta, m = theta0, 0.0
    out = []
    for g in grads:
        m = momentum * m + g
        theta = theta - lr * m
        out.append(theta)
    return out


def reference_adam(grads, lr, b1=0.9, b2=0.999, eps=1e-8, theta0=0.0):
    theta, m, v = theta0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def reference_rectadam(grads, lr, b1=0.9, b2=0.999, eps=1e-8, theta0=0.0):
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    theta, m, v = theta0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        rho_t = rho_inf - 2.0 * t * b2 ** t / (1 - b2 ** t)
        if rho_t > 4.0:
            v_hat = math.sqrt(v / (1 - b2 ** t))
            r_num = (rho_t - 4.0) * (rho_t - 2.0) * rho_inf
            r_den = (rho_inf - 4.0) * (rho_inf - 2.0) * rho_t
            r_t = math.sqrt(r_num / r_den)
            theta = theta - lr * r_t * m_hat / (v_hat + eps)
        else:
            theta = theta - lr * m_hat
        out.append(theta)
    return out


def scalar_param(value=0.0):
    p = Tensor([value], requires_grad=True, dtype=np.float64)
    return {"w": p}, p


def drive(opt, p, grads):
    """Feed a fixed gradient sequence, returning the parameter trajectory."""
    out = []
    for g in grads:
        p.grad = np.array([g], dtype=np.float64)
        opt.step()
        out.append(float(p.data[0]))
    return out


class TestSgd:
    def test_two_step_hand_value(self):
        # lr=0.1, momentum=0.9, unit gradients: theta = -0.1 then -0.29
        params, p = scalar_param()
        opt = Optimizer(params, OptimizerConfig(kind="sgd", learning_rate=0.1, momentum=0.9))
        traj = drive(opt, p, [1.0, 1.0])
        assert traj[0] == pytest.approx(-0.1, abs=1e-15)
        assert traj[1] == pytest.approx(-0.29, abs=1e-15)

    def test_matches_reference_recurrence(self):
        grads = [math.sin(0.7 * k) for k in range(25)]
        params, p = scalar_param(1.0)
        opt = Optimizer(params, OptimizerConfig(kind="sgd", learning_rate=0.03, momentum=0.8))
        got = drive(opt, p, grads)
        want = reference_sgd(grads, 0.03, 0.8, theta0=1.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_zero_momentum_is_plain_descent(self):
        params, p = scalar_param(1.0)
        opt = Optimizer(params, OptimizerConfig(kind="sgd", learning_rate=0.5, momentum=0.0))
        drive(opt, p, [1.0])
        assert p.data[0] == pytest.approx(0.5, abs=1e-15)

    def test_step_linear_in_gradient_scale(self):
        for c in [2.0, 10.0]:
            pa, a = scalar_param()
            pb, b = scalar_param()
            oa = Optimizer(pa, OptimizerConfig(kind="sgd", learning_rate=0.1, momentum=0.0))
            ob = Optimizer(pb, OptimizerConfig(kind="sgd", learning_rate=0.1, momentum=0.0))
            drive(oa, a, [0.3])
            drive(ob, b, [0.3 * c])
            assert b.data[0] == pytest.approx(c * a.data[0], rel=1e-12)


class TestAdam:
    def test_first_step_hand_value(self):
        # unit gradient: m_hat=1, v_hat=1, theta1 = -lr/(1+eps)
        params, p = scalar_param()
        opt = Optimizer(params, OptimizerConfig(kind="adam", learning_rate=0.1))
        drive(opt, p, [1.0])
        assert p.data[0] == pytest.approx(-0.1 / (1 + 1e-8), abs=1e-12)

    def test_matches_reference_recurrence(self):
        grads = [math.cos(1.3 * k) + 0.2 for k in range(30)]
        params, p = scalar_param(0.5)
        opt = Optimizer(params, OptimizerConfig(kind="adam", learning_rate=0.01))
        got = drive(opt, p, grads)
        want = reference_adam(grads, 0.01, theta0=0.5)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_first_step_scale_invariant(self):
        # t=1: m_hat/sqrt(v_hat) = sign(g) up to eps, so scale cancels
        pa, a = scalar_param()
        pb, b = scalar_param()
        oa = Optimizer(pa, OptimizerConfig(kind="adam", learning_rate=0.1))
        ob = Optimizer(pb, OptimizerConfig(kind="adam", learning_rate=0.1))
        drive(oa, a, [0.5])
        drive(ob, b, [500.0])
        assert b.data[0] == pytest.approx(a.data[0], abs=1e-6)


class TestRectAdam:
    def test_warmup_boundary_of_rho(self):
        # rho_t crosses 4 between t=4 and t=5 at beta2=0.999
        rho4, r4 = rectification_term(4, 0.999)
        rho5, r5 = rectification_term(5, 0.999)
        assert rho4 <= 4.0 < rho5
        assert r4 is None and r5 is not None
        rho1, r1 = rectification_term(1, 0.999)
        assert rho1 == pytest.approx(1.0, abs=1e-9)
        assert r1 is None

    def test_rectifier_increases_toward_one(self):
        rs = [rectification_term(t, 0.999)[1] for t in [10, 100, 1000, 10000]]
        assert all(r is not None for r in rs)
        assert all(a < b for a, b in zip(rs, rs[1:]))
        # hand check: rho_10 = 9.9835, r = sqrt(5.9835*7.9835*1999 / (1995*1997*9.9835))
        assert rs[0] == pytest.approx(0.048998, abs=1e-5)
        assert rs[-1] < 1.0
        assert rectification_term(10**7, 0.999)[1] == pytest.approx(1.0, abs=1e-3)

    def test_first_step_is_plain_momentum(self):
        # un-adapted branch: theta1 = -lr exactly for unit gradient
        params, p = scalar_param()
        opt = Optimizer(params, OptimizerConfig(kind="rectadam", learning_rate=0.1))
        drive(opt, p, [1.0])
        assert p.data[0] == -0.1

    def test_matches_reference_recurrence_through_branch_switch(self):
        # 30 steps straddle the t=4 -> t=5 branch change
        grads = [math.sin(0.9 * k) - 0.1 for k in range(30)]
        params, p = scalar_param(-0.3)
        opt = Optimizer(params, OptimizerConfig(kind="rectadam", learning_rate=0.02))
        got = drive(opt, p, grads)
        want = reference_rectadam(grads, 0.02, theta0=-0.3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_adaptive_step_scale_invariant(self):
        # once rho_t > 4, the step direction magnitude is scale-free up to eps
        pa, a = scalar_param()
        pb, b = scalar_param()
        oa = Optimizer(pa, OptimizerConfig(kind="rectadam", learning_rate=0.1))
        ob = Optimizer(pb, OptimizerConfig(kind="rectadam", learning_rate=0.1))
        grads = [0.7] * 6
        ta = drive(oa, a, grads)
        tb = drive(ob, b, [g * 40.0 for g in grads])
        step_a = ta[5] - ta[4]
        step_b = tb[5] - tb[4]
        assert step_b == pytest.approx(step_a, abs=1e-6)


class TestDescentAndState:
    def test_monotone_descent_on_quadratic(self):
        # f = 0.5 theta^2 from theta=1, lr=0.01; momentum held at 0 for sgd
        # (0.9 underdamps and oscillates through the minimum)
        for cfg in [
            OptimizerConfig(kind="sgd", learning_rate=0.01, momentum=0.0),
            OptimizerConfig(kind="adam", learning_rate=0.01),
            OptimizerConfig(kind="rectadam", learning_rate=0.01),
        ]:
            params, p = scalar_param(1.0)
            opt = Optimizer(params, cfg)
            losses = [0.5]
            for _ in range(100):
                p.grad = p.data.copy()  # df/dtheta = theta
                opt.step()
                losses.append(0.5 * float(p.data[0]) ** 2)
            assert all(a > b for a, b in zip(losses, losses[1:])), cfg.kind

    def test_freeze_skips_value_and_moments(self):
        w1 = Tensor([1.0], requires_grad=True, dtype=np.float64)
        w2 = Tensor([1.0], requires_grad=True, dtype=np.float64)
        opt = Optimizer({"a": w1, "b": w2}, OptimizerConfig(kind="adam", learning_rate=0.1))
        opt.set_freeze({"b"})
        for _ in range(3):
            w1.grad = np.array([1.0])
            w2.grad = np.array([1.0])
            opt.step()
        assert w2.data[0] == 1.0
        assert not opt.m["b"].any() and not opt.v["b"].any()
        assert w1.data[0] != 1.0

    def test_unfreeze_resumes_from_preserved_moments(self):
        # freeze, step, unfreeze, step: frozen moments were held at zero, so
        # the first post-thaw step equals a fresh t-indexed step
        w = Tensor([0.0], requires_grad=True, dtype=np.float64)
        opt = Optimizer({"a": w}, OptimizerConfig(kind="sgd", learning_rate=0.1, momentum=0.9))
        opt.set_freeze({"a"})
        w.grad = np.array([5.0])
        opt.step()
        assert w.data[0] == 0.0 and opt.m["a"][0] == 0.0
        opt.set_freeze(())
        w.grad = np.array([1.0])
        opt.step()
        assert w.data[0] == pytest.approx(-0.1)  # momentum buffer started clean

    def test_frozen_params_bit_identical_under_long_run(self):
        rng_vals = np.linspace(-1, 1, 50)
        w = Tensor(np.arange(8, dtype=np.float64), requires_grad=True, dtype=np.float64)
        frozen_snapshot = w.data.copy()
        opt = Optimizer({"w": w}, OptimizerConfig(kind="rectadam", learning_rate=0.05))
        opt.set_freeze({"w"})
        for v in rng_vals:
            w.grad = np.full(8, v)
            opt.step()
        np.testing.assert_array_equal(w.data, frozen_snapshot)

    def test_missing_gradient_raises(self):
        params, p = scalar_param()
        opt = Optimizer(params, OptimizerConfig(kind="sgd"))
        with pytest.raises(ValueError, match="no gradient"):
            opt.step()

    def test_freeze_unknown_name_raises(self):
        params, _ = scalar_param()
        opt = Optimizer(params, OptimizerConfig())
        with pytest.raises(KeyError):
            opt.set_freeze({"nope"})

    def test_update_order_is_registry_order(self):
        names = ["z", "a", "m"]
        tensors = {n: Tensor([0.0], requires_grad=True, dtype=np.float64) for n in names}
        opt = Optimizer(tensors, OptimizerConfig(kind="sgd"))
        assert list(opt.params) == names
        assert opt.trainable_names() == names

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="lion").validate()
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0).validate()
        with pytest.raises(ValueError):
            OptimizerConfig(beta2=1.0).validate()
        with pytest.raises(ValueError):
            OptimizerConfig(momentum=-0.1).validate()
        with pytest.raises(ValueError):
            OptimizerConfig(epsilon=0.0).validate()
        assert OptimizerConfig(kind="sgd").resolved_lr() == 0.01
        assert OptimizerConfig(kind="adam").resolved_lr() == 0.001

    def test_float32_params_stay_float32(self):
        w = Tensor([1.0], requires_grad=True, dtype=np.float32)
        opt = Optimizer({"w": w}, OptimizerConfig(kind="adam", learning_rate=0.01))
        w.grad = np.array([0.5], dtype=np.float32)
        opt.step()
        assert w.data.dtype == np.float32
        assert opt.m["w"].dtype == np.float32


# ---- the flat store against the per-tensor loop it replaces


class PerTensorReference:
    """The per-parameter update loop, on private copies of the parameters."""

    def __init__(self, params, config):
        self.config, self.t, self.frozen = config, 0, frozenset()
        self.data = {n: p.data.copy() for n, p in params.items()}
        self.m = {n: np.zeros_like(a) for n, a in self.data.items()}
        self.v = {n: np.zeros_like(a) for n, a in self.data.items()}

    def step(self, grads):
        self.t += 1
        cfg = self.config
        lr, b1, b2, eps = cfg.resolved_lr(), cfg.beta1, cfg.beta2, cfg.epsilon
        bc1, bc2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        r_t = rectification_term(self.t, b2)[1] if cfg.kind == "rectadam" else None
        for name, w in self.data.items():
            if name in self.frozen:
                continue
            dt, g, m, v = w.dtype.type, grads[name], self.m[name], self.v[name]
            if cfg.kind == "sgd":
                m *= dt(cfg.momentum)
                m += g
                w -= dt(lr) * m
                continue
            m *= dt(b1)
            m += dt(1.0 - b1) * g
            v *= dt(b2)
            v += dt(1.0 - b2) * g * g
            m_hat = m / dt(bc1)
            if cfg.kind == "adam":
                w -= dt(lr) * m_hat / (np.sqrt(v / dt(bc2)) + dt(eps))
            elif r_t is None:
                w -= dt(lr) * m_hat
            else:
                w -= dt(lr * r_t) * m_hat / (np.sqrt(v / dt(bc2)) + dt(eps))


SHAPES = {"conv1.weight": (2, 3, 3, 3), "conv1.bias": (2,), "dense1.weight": (4, 8), "dense1.bias": (4,),
          "head.weight": (2, 4), "head.bias": (2,)}


def registry(rng, dtype):
    return {n: Tensor(rng.standard_normal(s), requires_grad=True, dtype=dtype) for n, s in SHAPES.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["sgd", "adam", "rectadam"])
def test_flat_store_matches_per_tensor_loop_bytes(kind, dtype):
    rng = np.random.default_rng(3)
    params = registry(rng, dtype)
    cfg = OptimizerConfig(kind=kind, learning_rate=0.01)
    opt, ref = Optimizer(params, cfg), PerTensorReference(params, cfg)
    # all trainable, then head only (tl), then everything but the head (etl stage 2),
    # then a freeze that splits the store into two runs
    schedule = [(), ("conv1.weight", "conv1.bias", "dense1.weight", "dense1.bias"),
                ("head.weight", "head.bias"), ("dense1.weight",)]
    for frozen in schedule:
        opt.set_freeze(frozen)
        ref.frozen = frozenset(frozen)
        for i in range(40):
            scale = 10.0 ** rng.integers(-6, 3)  # gradients from 1e-6 to 1e2
            grads = {n: (rng.standard_normal(s) * scale).astype(dtype) for n, s in SHAPES.items()}
            opt.zero_grad()
            for name, g in grads.items():
                if i % 2:
                    params[name].grad = g  # assigned directly, as a caller may
                else:
                    params[name].accumulate_grad(g)  # the first write of backward()
            opt.step()
            ref.step(grads)
    for name, p in params.items():
        assert p.data.tobytes() == ref.data[name].tobytes(), name
        assert opt.m[name].tobytes() == ref.m[name].tobytes(), name
        if kind != "sgd":
            assert opt.v[name].tobytes() == ref.v[name].tobytes(), name


def test_registry_tensors_and_moments_are_views_of_the_store():
    params = registry(np.random.default_rng(0), np.float32)
    before = {n: p.data.copy() for n, p in params.items()}
    opt = Optimizer(params, OptimizerConfig(kind="adam"))
    for name, p in params.items():
        np.testing.assert_array_equal(p.data, before[name])
        assert p.data.shape == SHAPES[name]
        for flat, view in ((opt.flat_data, p.data), (opt.flat_grad, p.grad_view),
                           (opt.flat_m, opt.m[name]), (opt.flat_v, opt.v[name])):
            assert np.shares_memory(flat, view)
    p = params["dense1.bias"]
    p.accumulate_grad(np.ones(4, np.float32))
    assert p.grad is p.grad_view  # the first write lands in the store
    assert opt.flat_grad[opt.spans["dense1.bias"]].tolist() == [1.0] * 4
    assert Optimizer(registry(np.random.default_rng(0), np.float32), OptimizerConfig(kind="sgd")).v == {}


def test_contiguous_trainable_params_form_one_run():
    params = registry(np.random.default_rng(0), np.float32)
    opt = Optimizer(params, OptimizerConfig())
    total = opt.flat_data.size
    assert opt.runs == [slice(0, total)]
    opt.set_freeze(["conv1.weight", "conv1.bias"])
    assert len(opt.runs) == 1 and opt.runs[0].stop == total
    opt.set_freeze(["dense1.weight"])
    assert len(opt.runs) == 2
    opt.set_freeze(params)
    assert opt.runs == []


def test_mixed_dtype_registry_rejected():
    a = Tensor([1.0], requires_grad=True, dtype=np.float32)
    b = Tensor([1.0], requires_grad=True, dtype=np.float64)
    with pytest.raises(ValueError, match="dtypes"):
        Optimizer({"a": a, "b": b}, OptimizerConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_raises_before_any_update(bad):
    params = registry(np.random.default_rng(1), np.float32)
    opt = Optimizer(params, OptimizerConfig(kind="adam"))
    for p in params.values():
        p.grad = np.ones(p.shape, np.float32)
    opt.step()
    snapshot = (opt.flat_data.copy(), opt.flat_m.copy(), opt.flat_v.copy(), opt.t)
    for p in params.values():
        p.grad = np.ones(p.shape, np.float32)
    params["dense1.bias"].grad[2] = bad
    params["head.weight"].grad[0, 0] = bad
    with pytest.raises(NumericError, match="'dense1.bias'"):
        opt.step()
    assert opt.flat_data.tobytes() == snapshot[0].tobytes()
    assert opt.flat_m.tobytes() == snapshot[1].tobytes() and opt.flat_v.tobytes() == snapshot[2].tobytes()
    assert opt.t == snapshot[3]
    # a frozen parameter's gradient is not checked: it is never used
    opt.set_freeze(["dense1.bias", "head.weight"])
    opt.step()
    assert np.isfinite(opt.flat_data).all()


def test_update_that_overflows_names_the_parameter():
    # finite gradients, but lr * grad overflows float32: the weights become -inf
    ok = Tensor(np.ones(2), requires_grad=True, dtype=np.float32)
    w = Tensor(np.ones(3), requires_grad=True, dtype=np.float32)
    opt = Optimizer({"ok": ok, "w": w}, OptimizerConfig(kind="sgd", learning_rate=1e38))
    ok.grad, w.grad = np.zeros(2, np.float32), np.full(3, 10.0, np.float32)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite value after the update in parameter 'w'"):
        opt.step()
    assert np.isneginf(w.data).all() and (ok.data == 1).all()
    # a frozen non-finite parameter is not checked: it is never updated
    opt.set_freeze(["w"])
    opt.step()

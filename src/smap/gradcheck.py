"""Finite-difference verification of every differentiable operation.

Central differences with step 1e-5 at float64. Small primitives are checked
coordinate by coordinate; whole networks are checked along random directions
(which is the same central-difference estimate, projected). Used by the
``gradcheck`` CLI subcommand and by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor

FD_STEP = 1e-5
REL_TOL = 1e-4


def rel_error(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    if denom < 1e-7:
        return abs(a - b)
    return abs(a - b) / denom


def analytic_grads(loss_fn: Callable[[Sequence[Tensor]], Tensor],
                   tensors: Sequence[Tensor]) -> list[np.ndarray]:
    for t in tensors:
        t.requires_grad = True
        t.zero_grad()
    with Tape() as tape:
        loss = loss_fn(tensors)
    ad.backward(tape, loss)
    return [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]


def fd_coordinate(loss_fn, tensors: Sequence[Tensor], which: int, index,
                  step: float = FD_STEP) -> float:
    t = tensors[which]
    orig = t.data[index]
    t.data[index] = orig + step
    hi = loss_fn(tensors).item()
    t.data[index] = orig - step
    lo = loss_fn(tensors).item()
    t.data[index] = orig
    return (hi - lo) / (2.0 * step)


def max_rel_error_coordinatewise(loss_fn, tensors: Sequence[Tensor],
                                 step: float = FD_STEP) -> float:
    grads = analytic_grads(loss_fn, tensors)
    worst = 0.0
    for which, t in enumerate(tensors):
        for index in np.ndindex(t.shape if t.shape else (1,)):
            idx = index if t.shape else ()
            fd = fd_coordinate(loss_fn, tensors, which, idx, step)
            worst = max(worst, rel_error(float(grads[which][idx]), fd))
    return worst


def _directional_fd(loss_fn, tensors, dirs, step):
    """Central difference along a direction; None if a relu flips inside the
    probe window (the point is not differentiable there)."""
    saved = [t.data.copy() for t in tensors]
    with ad.capture_kinks() as hi_kinks:
        for t, s, d in zip(tensors, saved, dirs):
            t.data = s + step * d
        hi = loss_fn(tensors).item()
    with ad.capture_kinks() as lo_kinks:
        for t, s, d in zip(tensors, saved, dirs):
            t.data = s - step * d
        lo = loss_fn(tensors).item()
    for t, s in zip(tensors, saved):
        t.data = s
    same = len(hi_kinks.patterns) == len(lo_kinks.patterns) and all(
        np.array_equal(a, b) for a, b in zip(hi_kinks.patterns, lo_kinks.patterns))
    if not same:
        return None
    return (hi - lo) / (2.0 * step)


def max_rel_error_directional(loss_fn, tensors: Sequence[Tensor], rng,
                              n_directions: int = 4,
                              step: float = FD_STEP) -> Optional[float]:
    """Directional central differences, or None at a non-differentiable point.

    Estimates at steps h and h/2 must agree; a material disagreement means the
    probe window straddles a kink (relu or a threshold), where the function is
    not differentiable and finite differences say nothing about the gradient.
    A genuine backward bug is still caught: there the two estimates agree with
    each other but not with the analytic value.
    """
    grads = analytic_grads(loss_fn, tensors)
    worst = 0.0
    for _ in range(n_directions):
        dirs = [rng.standard_normal(t.shape) for t in tensors]
        fd_h = _directional_fd(loss_fn, tensors, dirs, step)
        fd_h2 = _directional_fd(loss_fn, tensors, dirs, step / 2.0)
        if fd_h is None or fd_h2 is None or rel_error(fd_h, fd_h2) > REL_TOL / 4.0:
            return None
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, dirs))
        worst = max(worst, rel_error(analytic, fd_h2))
    return worst


@dataclass
class CheckResult:
    name: str
    worst_rel_error: float
    instances: int

    @property
    def passed(self) -> bool:
        return self.worst_rel_error < REL_TOL


def _t(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def primitive_cases(rng) -> dict[str, Callable[[], tuple[list[Tensor], Callable]]]:
    """name -> factory of (input tensors, scalar loss through that op).

    Inputs take the default dtype when the factory is called.
    """
    def scalar(fn_inner):
        return lambda ts: ad.tsum(fn_inner(*ts))

    cases: dict[str, Callable[[], tuple[list[Tensor], Callable]]] = {}

    def register(name, make):
        cases[name] = make

    register("matmul", lambda: ([_t(rng, 3, 4), _t(rng, 4, 2)],
                                scalar(lambda a, b: ad.matmul(a, ad.mul(b, b)))))
    register("matmul_batched", lambda: ([_t(rng, 2, 3, 4), _t(rng, 4, 2)],
                                        scalar(lambda a, b: ad.matmul(a, b))))
    register("linear", lambda: ([_t(rng, 2, 3, 4), _t(rng, 4, 2), _t(rng, 2)],
                                scalar(lambda x, w, b: ad.mul(ad.linear(x, w, b),
                                                              ad.linear(x, w, b)))))
    register("add", lambda: ([_t(rng, 2, 3), _t(rng, 2, 3)],
                             scalar(lambda a, b: ad.add(ad.mul(a, a), b))))
    register("add_broadcast", lambda: ([_t(rng, 2, 3), _t(rng, 3)],
                                       scalar(lambda a, b: ad.add(a, ad.mul(b, b)))))
    register("sub", lambda: ([_t(rng, 2, 3), _t(rng, 2, 3)],
                             scalar(lambda a, b: ad.sub(ad.mul(a, b), b))))
    register("mul", lambda: ([_t(rng, 2, 3), _t(rng, 2, 3)],
                             scalar(lambda a, b: ad.mul(a, b))))
    register("div", lambda: ([_t(rng, 2, 3), Tensor(rng.uniform(0.5, 2.0, (2, 3)), requires_grad=True)],
                             scalar(lambda a, b: ad.div(a, b))))
    register("exp", lambda: ([_t(rng, 2, 3)], scalar(ad.exp)))
    register("log", lambda: ([Tensor(rng.uniform(0.2, 3.0, (2, 3)), requires_grad=True)],
                             scalar(ad.log)))
    register("sqrt", lambda: ([Tensor(rng.uniform(0.2, 3.0, (2, 3)), requires_grad=True)],
                              scalar(ad.sqrt)))
    register("square", lambda: ([_t(rng, 2, 3)], scalar(ad.square)))
    register("sigmoid", lambda: ([_t(rng, 2, 3)], scalar(ad.sigmoid)))
    register("tanh", lambda: ([_t(rng, 2, 3)], scalar(ad.tanh)))
    register("relu", lambda: ([Tensor(rng.standard_normal((2, 3)) + np.where(rng.random((2, 3)) < 0.5, -0.5, 0.5),
                                      requires_grad=True)],
                              scalar(ad.relu)))
    register("scale", lambda: ([_t(rng, 2, 3)], scalar(lambda a: ad.scale(a, 1.7))))
    register("sum_all", lambda: ([_t(rng, 2, 3)], lambda ts: ad.tsum(ts[0])))
    register("sum_axis", lambda: ([_t(rng, 2, 3)],
                                  lambda ts: ad.tsum(ad.square(ad.tsum(ts[0], axis=1)))))
    register("mean", lambda: ([_t(rng, 2, 3)],
                              lambda ts: ad.tmean(ad.square(ts[0]))))
    register("softmax_rows", lambda: ([_t(rng, 2, 4), _t(rng, 2, 4)],
                                      lambda ts: ad.tsum(ad.mul(ad.softmax_rows(ts[0]), ts[1]))))
    register("log_softmax", lambda: ([_t(rng, 2, 4), _t(rng, 2, 4)],
                                     lambda ts: ad.tsum(ad.mul(ad.log_softmax(ts[0]), ts[1]))))
    register("masked_softmax", lambda: _masked_softmax_case(rng))
    register("layer_norm", lambda: ([_t(rng, 2, 3, 4), _t(rng, 4), _t(rng, 4)],
                                    scalar(lambda x, g, b: ad.layer_norm(x, g, b))))
    register("conv2d", lambda: ([_t(rng, 2, 8, 8), _t(rng, 3, 2, 3, 3)],
                                scalar(lambda x, k: ad.conv2d(x, k, stride=1))))
    register("conv2d_strided", lambda: ([_t(rng, 1, 4, 4, 4), _t(rng, 2, 4, 2, 2)],
                                        scalar(lambda x, k: ad.conv2d(x, k, stride=2))))
    register("conv2d_channels_last", lambda: _conv2d_channels_last_case(rng))
    register("transpose", lambda: ([_t(rng, 3, 4)],
                                   scalar(lambda a: ad.matmul(ad.transpose(a), a))))
    register("reshape", lambda: ([_t(rng, 2, 6)],
                                 scalar(lambda a: ad.square(ad.reshape(a, (3, 4))))))
    register("minimum", lambda: ([_t(rng, 2, 3), _t(rng, 2, 3)],
                                 scalar(ad.minimum)))
    register("clip", lambda: ([Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)],
                              scalar(lambda a: ad.clip(a, -0.9, 0.9))))
    register("gather_rows", lambda: ([_t(rng, 4, 5)],
                                     lambda ts: ad.tsum(ad.square(
                                         ad.gather_rows(ts[0], np.array([0, 2, 4, 1]))))))
    return cases


def _masked_softmax_case(rng):
    scores = _t(rng, 3, 4)
    mask = Tensor(rng.uniform(0.05, 0.95, (3, 4)), requires_grad=True)
    weights = rng.standard_normal((3, 4))

    def fn(ts):
        return ad.tsum(ad.mul(ad.masked_softmax(ts[0], ts[1]), Tensor(weights)))

    return [scores, mask], fn


def _conv2d_channels_last_case(rng):
    # conv2d's own output layout: an NCHW view of channels-last memory;
    # 3x3 kernels at stride 2 overlap
    x = Tensor(rng.standard_normal((2, 7, 7, 3)).transpose(0, 3, 1, 2), requires_grad=True)
    kernels = _t(rng, 2, 3, 3, 3)
    weights = rng.standard_normal((2, 2, 3, 3))

    def fn(ts):
        return ad.tsum(ad.mul(ad.conv2d(ts[0], ts[1], stride=2), Tensor(weights)))

    return [x, kernels], fn


def run_primitive_suite(instances: int = 100, seed: int = 0,
                        progress: Callable[[str], None] | None = None) -> list[CheckResult]:
    """Check each primitive over ``instances`` random draws at float64."""
    results = []
    with ad.precision(np.float64):
        rng = np.random.default_rng(seed)
        for name, make in primitive_cases(rng).items():
            worst = 0.0
            for _ in range(instances):
                tensors, fn = make()
                worst = max(worst, max_rel_error_coordinatewise(fn, tensors))
            results.append(CheckResult(name, worst, instances))
            if progress:
                progress(f"{name}: worst rel err {worst:.3e}")
    return results


def run_network_suite(instances: int = 100, seed: int = 0,
                      progress: Callable[[str], None] | None = None) -> list[CheckResult]:
    """Directional gradient checks through the full policies and the trunk."""
    from . import policies as pz
    from .attention import TrunkConfig

    results = []
    with ad.precision(np.float64):
        rng_master = np.random.default_rng(seed)
        cfg = TrunkConfig()

        specs = {
            "policy_cnn": "cnn",
            "policy_attention": "attention",
            "policy_input_masked": "input_masked",
            "policy_sparse_soft_path": "sparse_masked",
        }
        for label, kind in specs.items():
            worst = 0.0
            checked = 0
            attempts = 0
            while checked < instances and attempts < 4 * instances:
                attempts += 1
                seed_i = int(rng_master.integers(0, 2 ** 31))
                policy = pz.make_policy(kind, cfg, seed=seed_i, init_scale=0.5)
                obs = np.asarray(rng_master.standard_normal((2, cfg.obs_channels, 16, 16)))
                actions = rng_master.integers(0, cfg.n_actions, size=2)
                mode = "soft" if kind == "sparse_masked" else "eval"

                def loss_fn(ts, policy=policy, obs=obs, actions=actions, mode=mode,
                            seed_i=seed_i):
                    out = policy.evaluate_actions(obs, actions, mode=mode,
                                                  noise_seed=seed_i)
                    total = ad.add(ad.tsum(out.log_prob), ad.tsum(out.value))
                    total = ad.add(total, out.entropy)
                    if out.path_fraction is not None:
                        total = ad.add(total, ad.tsum(out.path_fraction))
                    return total

                tensors = list(policy.params.values())
                dir_rng = np.random.default_rng(seed_i ^ 0x5EED)
                err = max_rel_error_directional(loss_fn, tensors, dir_rng,
                                                n_directions=2)
                if err is None:
                    continue        # instance sits on a kink; draw another
                worst = max(worst, err)
                checked += 1
            if checked < instances:
                worst = float("inf")
            results.append(CheckResult(label, worst, checked))
            if progress:
                progress(f"{label}: worst rel err {worst:.3e} ({checked} instances)")
    return results


def run_all(instances: int = 100, seed: int = 0,
            progress: Callable[[str], None] | None = None) -> list[CheckResult]:
    return (run_primitive_suite(instances, seed, progress)
            + run_network_suite(instances, seed, progress))

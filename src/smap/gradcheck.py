"""Finite-difference verification of every differentiable operation.

Central differences with step 1e-5 at float64. Small primitives are checked
coordinate by coordinate; whole networks are checked along random directions
(which is the same central-difference estimate, projected). Every suite draws
from seed 0. Used by the ``gradcheck`` CLI subcommand and by the acceptance
suite.

Each check is a ``(name, passed, detail)`` record, as in ``oracles``: it
passes when its worst relative error is below ``REL_TOL``, its detail reads
``worst rel err <e> over <n> instances``, and it goes to ``progress(name,
passed, detail)`` as soon as it finishes.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor

FD_STEP = 1e-5
REL_TOL = 1e-4
N_DIRECTIONS = 2        # directions per network instance


def rel_error(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    if denom < 1e-7:
        return abs(a - b)
    return abs(a - b) / denom


def analytic_grads(loss_fn: Callable[[Sequence[Tensor]], Tensor],
                   tensors: Sequence[Tensor]) -> list[np.ndarray]:
    for t in tensors:
        t.requires_grad = True
    with Tape() as tape:
        loss = loss_fn(tensors)
    grads = ad.backward(tape, loss)
    return [grads[t] if t in grads else np.zeros_like(t.data) for t in tensors]


def fd_coordinate(loss_fn, tensors: Sequence[Tensor], which: int, index) -> float:
    t = tensors[which]
    orig = t.data[index]
    t.data[index] = orig + FD_STEP
    hi = loss_fn(tensors).item()
    t.data[index] = orig - FD_STEP
    lo = loss_fn(tensors).item()
    t.data[index] = orig
    return (hi - lo) / (2.0 * FD_STEP)


def max_rel_error_coordinatewise(loss_fn, tensors: Sequence[Tensor]) -> float:
    grads = analytic_grads(loss_fn, tensors)
    worst = 0.0
    for which, t in enumerate(tensors):
        for index in np.ndindex(t.shape if t.shape else (1,)):
            idx = index if t.shape else ()
            fd = fd_coordinate(loss_fn, tensors, which, idx)
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


def max_rel_error_directional(loss_fn, tensors: Sequence[Tensor], rng) -> Optional[float]:
    """Directional central differences, or None at a non-differentiable point.

    Estimates at steps h and h/2 must agree; a material disagreement means the
    probe window straddles a kink (relu or a threshold), where the function is
    not differentiable and finite differences say nothing about the gradient.
    A genuine backward bug is still caught: there the two estimates agree with
    each other but not with the analytic value.
    """
    grads = analytic_grads(loss_fn, tensors)
    worst = 0.0
    for _ in range(N_DIRECTIONS):
        dirs = [rng.standard_normal(t.shape) for t in tensors]
        fd_h = _directional_fd(loss_fn, tensors, dirs, FD_STEP)
        fd_h2 = _directional_fd(loss_fn, tensors, dirs, FD_STEP / 2.0)
        if fd_h is None or fd_h2 is None or rel_error(fd_h, fd_h2) > REL_TOL / 4.0:
            return None
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, dirs))
        worst = max(worst, rel_error(analytic, fd_h2))
    return worst


Check = tuple[str, bool, str]
Progress = Optional[Callable[[str, bool, str], None]]


def _check(name: str, worst: float, instances: int, progress: Progress) -> Check:
    check = (name, worst < REL_TOL, f"worst rel err {worst:.3e} over {instances} instances")
    if progress:
        progress(*check)
    return check


def _t(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def primitive_cases(rng) -> dict[str, Callable[[], tuple[list[Tensor], Callable]]]:
    """name -> factory of (input tensors, scalar loss through that op).

    Inputs take the default dtype when the factory is called.
    """
    def scalar(fn_inner):
        return lambda ts: ad.tsum(fn_inner(*ts))

    return {
        "matmul": lambda: ([_t(rng, 3, 4), _t(rng, 4, 2)],
                           scalar(lambda a, b: ad.matmul(a, ad.mul(b, b)))),
        "matmul_batched": lambda: ([_t(rng, 2, 3, 4), _t(rng, 4, 2)],
                                   scalar(lambda a, b: ad.matmul(a, b))),
        "bilinear": lambda: ([_t(rng, 2, 3, 4), _t(rng, 4, 5), _t(rng, 4, 5)],
                             scalar(lambda x, wa, wb: ad.square(ad.bilinear(x, wa, wb)))),
        "query_bilinear": lambda: ([_t(rng, 1, 5), _t(rng, 2, 3, 4), _t(rng, 4, 5)],
                                   scalar(lambda q, x, w: ad.square(ad.query_bilinear(q, x, w)))),
        "mix": lambda: ([_t(rng, 2, 1, 3), _t(rng, 2, 3, 4), _t(rng, 4, 5)],
                        scalar(lambda a, x, w: ad.square(ad.mix(a, x, w)))),
        "ffn": lambda: _ffn_case(rng),
        "linear": lambda: ([_t(rng, 2, 3, 4), _t(rng, 4, 2), _t(rng, 2)],
                           scalar(lambda x, w, b: ad.mul(ad.linear(x, w, b),
                                                         ad.linear(x, w, b)))),
        "add": lambda: ([_t(rng, 2, 3), _t(rng, 2, 3)],
                        scalar(lambda a, b: ad.add(ad.mul(a, a), b))),
        "add_broadcast": lambda: ([_t(rng, 2, 3), _t(rng, 3)],
                                  scalar(lambda a, b: ad.add(a, ad.mul(b, b)))),
        "sub": lambda: ([_t(rng, 2, 3), _t(rng, 2, 3)],
                        scalar(lambda a, b: ad.sub(ad.mul(a, b), b))),
        "mul": lambda: ([_t(rng, 2, 3), _t(rng, 2, 3)],
                        scalar(lambda a, b: ad.mul(a, b))),
        "exp": lambda: ([_t(rng, 2, 3)], scalar(ad.exp)),
        "square": lambda: ([_t(rng, 2, 3)], scalar(ad.square)),
        "sigmoid": lambda: ([_t(rng, 2, 3)], scalar(ad.sigmoid)),
        "relu": lambda: ([Tensor(rng.standard_normal((2, 3)) + np.where(rng.random((2, 3)) < 0.5, -0.5, 0.5),
                                 requires_grad=True)],
                         scalar(ad.relu)),
        "scale": lambda: ([_t(rng, 2, 3)], scalar(lambda a: ad.scale(a, 1.7))),
        "sum_all": lambda: ([_t(rng, 2, 3)], lambda ts: ad.tsum(ts[0])),
        "sum_axis": lambda: ([_t(rng, 2, 3)],
                             lambda ts: ad.tsum(ad.square(ad.tsum(ts[0], axis=1)))),
        "mean": lambda: ([_t(rng, 2, 3)],
                         lambda ts: ad.tmean(ad.square(ts[0]))),
        "softmax_rows": lambda: ([_t(rng, 2, 4), _t(rng, 2, 4)],
                                 lambda ts: ad.tsum(ad.mul(ad.softmax_rows(ts[0]), ts[1]))),
        "log_softmax": lambda: ([_t(rng, 2, 4), _t(rng, 2, 4)],
                                lambda ts: ad.tsum(ad.mul(ad.log_softmax(ts[0]), ts[1]))),
        "masked_softmax": lambda: _masked_softmax_case(rng),
        "layer_norm": lambda: ([_t(rng, 2, 3, 4), _t(rng, 4), _t(rng, 4)],
                               scalar(lambda x, g, b: ad.layer_norm(x, g, b))),
        "conv2d": lambda: ([_t(rng, 1, 2, 8, 8), _t(rng, 3, 2, 1, 1)],
                           scalar(lambda x, k: ad.conv2d(x, k, stride=1))),
        "conv2d_strided": lambda: ([_t(rng, 1, 4, 4, 4), _t(rng, 2, 4, 2, 2)],
                                   scalar(lambda x, k: ad.conv2d(x, k, stride=2))),
        "conv2d_channels_last": lambda: _conv2d_channels_last_case(rng),
        "transpose": lambda: ([_t(rng, 3, 4)],
                              scalar(lambda a: ad.matmul(ad.transpose(a), a))),
        "reshape": lambda: ([_t(rng, 2, 6)],
                            scalar(lambda a: ad.square(ad.reshape(a, (3, 4))))),
        "minimum": lambda: ([_t(rng, 2, 3), _t(rng, 2, 3)],
                            scalar(ad.minimum)),
        "clip": lambda: ([Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)],
                         scalar(lambda a: ad.clip(a, -0.9, 0.9))),
        "gather_rows": lambda: ([_t(rng, 4, 5)],
                                lambda ts: ad.tsum(ad.square(
                                    ad.gather_rows(ts[0], np.array([0, 2, 4, 1]))))),
    }


def _masked_softmax_case(rng):
    scores = _t(rng, 3, 4)
    mask = Tensor(rng.uniform(0.05, 0.95, (3, 4)), requires_grad=True)
    weights = rng.standard_normal((3, 4))

    def fn(ts):
        return ad.tsum(ad.mul(ad.masked_softmax(ts[0], ts[1]), Tensor(weights)))

    return [scores, mask], fn


def _ffn_case(rng):
    # redrawn until every hidden pre-activation is 0.1 or more from the relu's
    # kink, which no finite-difference probe then crosses
    while True:
        x, w1, b1 = _t(rng, 2, 3, 4), _t(rng, 4, 5), _t(rng, 5)
        if np.abs(x.data @ w1.data + b1.data).min() > 0.1:
            break
    w2, b2 = _t(rng, 5, 3), _t(rng, 3)
    return [x, w1, b1, w2, b2], lambda ts: ad.tsum(ad.square(ad.ffn(*ts)))


def _conv2d_channels_last_case(rng):
    # conv2d's own output layout: an NCHW view of channels-last memory
    x = Tensor(rng.standard_normal((2, 6, 6, 3)).transpose(0, 3, 1, 2), requires_grad=True)
    kernels = _t(rng, 2, 3, 2, 2)
    weights = rng.standard_normal((2, 2, 3, 3))

    def fn(ts):
        return ad.tsum(ad.mul(ad.conv2d(ts[0], ts[1], stride=2), Tensor(weights)))

    return [x, kernels], fn


def run_primitive_suite(instances: int = 100, progress: Progress = None) -> list[Check]:
    """Check each primitive over ``instances`` random draws at float64."""
    results = []
    with ad.precision(np.float64):
        rng = np.random.default_rng(0)
        for name, make in primitive_cases(rng).items():
            worst = 0.0
            for _ in range(instances):
                tensors, fn = make()
                worst = max(worst, max_rel_error_coordinatewise(fn, tensors))
            results.append(_check(name, worst, instances, progress))
    return results


def run_network_suite(instances: int = 100, progress: Progress = None) -> list[Check]:
    """Directional gradient checks through the full policies and the trunk."""
    from . import policies as pz
    from .attention import TrunkConfig, noise_rows
    from .envs import GRID, N_ACTIONS, OBS_CHANNELS
    from .rng import stream

    results = []
    with ad.precision(np.float64):
        rng_master = np.random.default_rng(0)
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
            # most draws sit on a relu kink, so a small run needs a floor
            while checked < instances and attempts < max(40, 4 * instances):
                attempts += 1
                seed_i = int(rng_master.integers(0, 2 ** 31))
                policy = pz.make_policy(kind, cfg, seed=seed_i)
                for t in policy.params.values():
                    if t.data.ndim >= 2:
                        t.data = t.data * 0.5
                obs = np.asarray(rng_master.standard_normal((2, OBS_CHANNELS, GRID, GRID)))
                actions = rng_master.integers(0, N_ACTIONS, size=2)
                mode = "soft" if kind == "sparse_masked" else "eval"
                noise = noise_rows(stream(seed_i, "eval_actions.noise"), 2, cfg)

                def loss_fn(ts, policy=policy, obs=obs, actions=actions, mode=mode,
                            noise=noise):
                    out = policy.evaluate_actions(obs, actions, mode=mode, noise=noise)
                    total = ad.add(ad.tsum(out.log_prob), ad.tsum(out.value))
                    total = ad.add(total, out.entropy)
                    if out.path_fraction is not None:
                        total = ad.add(total, ad.tsum(out.path_fraction))
                    return total

                tensors = list(policy.params.values())
                dir_rng = np.random.default_rng(seed_i ^ 0x5EED)
                err = max_rel_error_directional(loss_fn, tensors, dir_rng)
                if err is None:
                    continue        # instance sits on a kink; draw another
                worst = max(worst, err)
                checked += 1
            if checked < instances:
                worst = float("inf")
            results.append(_check(label, worst, checked, progress))
    return results


def run_all(instances: int = 100, progress: Progress = None) -> list[Check]:
    return run_primitive_suite(instances, progress) + run_network_suite(instances, progress)

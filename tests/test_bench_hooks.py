"""Guards of the benchmark's calls into ``smap``. Its traced run wraps public
names from outside: the tracer guard fails when a refactor removes or moves
one of them, or stops calling it through the name the tracer replaces. Its
check pass and op tier call ``smap`` directly: those guards fail when a call
they make no longer runs or the check pass finds a problem."""

from pathlib import Path

import numpy as np
import pytest

from smap import envs, ppo
from smap.attention import TrunkConfig
from smap.config import PPOConfig
from smap.optim import Adam
from smap.policies import make_policy
from smap.ppo import RolloutBatch, ppo_update
from smap.rng import stream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def test_tracer_installs_and_sees_every_trunk_stage(spans_module):
    """Evaluation is the only caller of ``envs.render_obs`` (rollouts keep
    codes), so it is the one source of the traced ``envs.render_obs_us``."""
    codes = np.stack([envs.obs_codes(envs.reset(envs.generate_level("DodgeGrid", s)))
                      for s in range(2)])
    obs = envs.decode_obs(codes)
    policy = make_policy("sparse_masked", TrunkConfig(), seed=0)
    tracer = spans_module.Tracer()
    tracer.install()
    try:
        sample = policy.act(obs, stream(0, "act"))
        policy.evaluate_actions(obs, sample.actions, mode="train")
        zeros = np.zeros((1, len(obs)))
        batch = RolloutBatch(codes[None], sample.actions[None], sample.log_probs[None],
                             sample.values[None], zeros, zeros, zeros[0], sample.noise[None])
        ppo_update(batch, policy, PPOConfig(epochs=1, minibatch_size=len(obs)),
                   Adam(list(policy.params.values())), stream(0, "shuffle"))
        ppo.evaluate_policy(policy, "DodgeGrid", [0, 1])
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"policies.act", "policies.evaluate_actions", "policies.output.sparse_masked",
            "policies.forward_trunk", "tokenizer.tokenize", "attention.run_attention_stack",
            "attention.masked_attention_layer", "attention.sample_mask_values",
            "attention.aggregate", "paths.path_matrix", "autodiff.backward",
            "optim.adam_step", "ppo.evaluate_policy", "envs.render_obs"} <= names


@pytest.mark.parametrize("env_kind", envs.KINDS)
def test_benchmark_check_pass_finds_no_problem(monkeypatch, tmp_path, env_kind):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import loops
    assert checks.check_pass(env_kind, 0, loops.QUICK, tmp_path)["problems"] == []


def test_benchmark_op_tier_runs_every_case(monkeypatch):
    """The op tier calls autodiff ops directly, at the shapes the trunk runs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ops
    results = ops.run_ops(1, batches=(8,))
    assert set(results) == {f"{name}.b8" for name in ops.op_cases(8)}
    for timings in results.values():
        assert np.isfinite(timings["fwd_us"]) and np.isfinite(timings["bwd_us"])

"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Each test states its tolerance inline and asserts at it.
"""

import time

import numpy as np
from o2olab import agents
from o2olab.analysis import aggregate_normalized_regret, interpolate_eval, plane_basis
from o2olab.cli import bundled_fixture_records, main as cli_main
from o2olab.diffusion import (
    calibrated_score_at_k1,
    cosine_schedule,
    diffusion_loss,
    init_score_model,
    train_score_model,
)
from o2olab.envs import Batch, ScriptedPolicy, generate_dataset, make_env_spec
from o2olab.networks import (
    CriticEnsemble,
    critic_input,
    make_critic_ensemble,
    make_policy,
    make_scale_net,
)
from o2olab.numkit import ParamStack, ParamVector, finite_diff_check
from o2olab.optim import newton_schulz_orthogonalize
from o2olab.pipeline import (
    config_from_dict,
    evaluate_policy,
    offline_pretrain,
    online_finetune,
)
from o2olab.seeding import stream


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# Published aggregate normalized-regret values, (offline, online) -> value.
PUBLISHED_TABLE = {
    ("iql", "awr"): 0.508, ("iql", "sac"): 0.471, ("iql", "td3"): 0.653, ("iql", "td3bc"): 0.494,
    ("smac", "awr"): 0.380, ("smac", "sac"): 0.031, ("smac", "td3"): 0.090, ("smac", "td3bc"): 0.226,
    ("td3bc", "awr"): 0.654, ("td3bc", "sac"): 0.962, ("td3bc", "td3"): 0.545, ("td3bc", "td3bc"): 0.562,
    ("calql", "awr"): 0.482, ("calql", "sac"): 0.448, ("calql", "td3"): 0.442, ("calql", "td3bc"): 0.614,
}


def test_criterion_1_aggregate_table_reproduction():
    t0 = time.time()
    table = aggregate_normalized_regret(bundled_fixture_records())
    errs = {key: abs(table.averaged[key] - want) for key, want in PUBLISHED_TABLE.items()}
    elapsed = time.time() - t0
    worst = max(errs.values())
    ok = worst <= 0.005 and elapsed < 1.0
    report(1, ok, f"16/16 aggregate values, max |err| {worst:.4f} (tol 0.005), {elapsed:.3f}s")


# ----------------------------------------------------------------------
# Criterion 2: every loss matches central finite differences.
# ----------------------------------------------------------------------


def _random_setup(rng):
    sd = int(rng.integers(2, 4))
    ad = int(rng.integers(1, 3))
    width = int(rng.integers(5, 9))
    b = int(rng.integers(2, 4)) * 2
    policy = make_policy(sd, -np.ones(ad), np.ones(ad), (width,), rng, activation="tanh")
    ens = make_critic_ensemble(sd, ad, (width,), 2, rng, activation="tanh")
    ens.target_stack.values += 0.05 * rng.standard_normal(ens.target_stack.values.shape)
    scale = make_scale_net(sd, (width,), rng, activation="tanh")
    value = make_scale_net(sd, (width,), rng, activation="tanh")
    rows = dict(
        s=rng.standard_normal((b, sd)),
        a=np.clip(rng.standard_normal((b, ad)), -0.9, 0.9),
        r=rng.standard_normal(b),
        s2=rng.standard_normal((b, sd)),
        done=(rng.random(b) < 0.25).astype(np.float64),
    )
    labels = rng.random(b)  # outcome labels of the noise-prediction case
    batch = Batch(**rows, mc=rng.standard_normal(b) + 1.0)
    sched = cosine_schedule(6)
    score = init_score_model(sd, ad, sched, rng, hidden=(width,), activation="tanh")
    return policy, ens, scale, value, batch, labels, score


def _swap_member(ens, pv):
    values = ens.member_stack.values.copy()
    values[0] = pv.values
    return CriticEnsemble(ParamStack(pv.spec, values), ens.target_stack)


def _loss_cases(setup, case_seed):
    policy, ens, scale, value, batch, labels, score = setup
    sd = batch.s.shape[1]
    member0 = ens.member_stack.vectors()[0]
    acts = agents.sample_action_mixture(
        policy, batch.s, batch.size, np.random.default_rng(case_seed)
    )

    def td3bc_frozen_norm():
        qmin, _ = agents._min_over(ens.member_stack, critic_input(batch.s, policy.mean_action(batch.s)))
        return float(np.mean(np.abs(qmin)))

    norm = td3bc_frozen_norm()
    awr_w = agents.awr_weights(ens, policy, batch, 0.7, np.random.default_rng(case_seed))

    return {
        "soft-td critic": (
            lambda pv: agents.sac_critic_loss(
                _swap_member(ens, pv), policy, batch, 0.2, 0.97, np.random.default_rng(case_seed)
            )[:2],
            member0,
            lambda out: out[0],
        ),
        "policy": (
            lambda pv: agents.sac_policy_loss(
                policy.with_params(pv), ens, batch, 0.2, np.random.default_rng(case_seed)
            ),
            policy.params,
            None,
        ),
        "score-match critic": (
            lambda pv: agents.score_match_loss(_swap_member(ens, pv), scale, score, batch.s, acts, 1.0),
            member0,
            None,
        ),
        "score-match scale": (
            lambda pv: agents.score_match_loss(ens, scale.with_params(pv), score, batch.s, acts, 1.0),
            scale.params,
            "scale",
        ),
        "regularized critic": (
            lambda pv: agents.smac_critic_loss(
                _swap_member(ens, pv), policy, scale, score, batch,
                score_match_weight=3.0, entropy_coef=0.2, discount=0.97,
                target_rng=np.random.default_rng(case_seed),
                action_rng=np.random.default_rng(case_seed + 1),
            ),
            member0,
            "smac",
        ),
        "regularized scale": (
            lambda pv: agents.smac_critic_loss(
                ens, policy, scale.with_params(pv), score, batch,
                score_match_weight=3.0, entropy_coef=0.2, discount=0.97,
                target_rng=np.random.default_rng(case_seed),
                action_rng=np.random.default_rng(case_seed + 1),
            ),
            scale.params,
            "smac-scale",
        ),
        "conservative penalty": (
            lambda pv: agents.cql_penalty(
                _swap_member(ens, pv), policy, batch, np.random.default_rng(case_seed)
            ),
            member0,
            lambda out: out[0],
        ),
        "capped penalty": (
            lambda pv: agents.calql_penalty(
                _swap_member(ens, pv), policy, batch, np.random.default_rng(case_seed)
            ),
            member0,
            lambda out: out[0],
        ),
        "expectile critic": (
            lambda pv: agents.iql_losses(_swap_member(ens, pv), value, policy, batch, 0.8, 0.7, 0.97),
            member0,
            "iql-critic",
        ),
        "expectile value": (
            lambda pv: agents.iql_losses(ens, value.with_params(pv), policy, batch, 0.8, 0.7, 0.97),
            value.params,
            "iql-value",
        ),
        "weighted-regression policy": (
            lambda pv: agents.iql_losses(ens, value, policy.with_params(pv), batch, 0.8, 0.7, 0.97),
            policy.params,
            "iql-policy",
        ),
        "deterministic critic": (
            lambda pv: agents.td3_losses(
                _swap_member(ens, pv), policy, batch, 0.97, np.random.default_rng(case_seed)
            ),
            member0,
            "td3-critic",
        ),
        "deterministic policy": (
            lambda pv: agents.td3_losses(
                ens, policy.with_params(pv), batch, 0.97, np.random.default_rng(case_seed)
            ),
            policy.params,
            "td3-policy",
        ),
        "bc-regularized policy": (
            lambda pv: agents.td3bc_policy_loss(ens, policy.with_params(pv), batch, 1.5, normalizer=norm),
            policy.params,
            None,
        ),
        "advantage-weighted policy": (
            lambda pv: agents.awr_policy_loss(
                ens, policy.with_params(pv), batch, 0.7, np.random.default_rng(case_seed), weights=awr_w
            ),
            policy.params,
            None,
        ),
        "noise prediction": (
            lambda pv: diffusion_loss(
                score.with_params(pv), batch.s, batch.a, labels, np.random.default_rng(case_seed)
            ),
            score.params,
            None,
        ),
    }


def _adapt(fn, mode):
    """Normalize the various loss return shapes to (value, flat grad)."""
    if mode is None:
        def f(pv):
            out = fn(pv)
            if isinstance(out, tuple) and len(out) >= 2:
                grad = out[1]
                if isinstance(grad, list):
                    grad = grad[0]
                return out[0], grad
            raise TypeError("unexpected loss output")
        return f
    if callable(mode):
        def f(pv):
            loss, grads = fn(pv)
            return loss, grads[0]
        return f
    if mode == "scale":
        def f(pv):
            loss, _, sgrad = fn(pv)
            return loss, sgrad
        return f
    if mode == "smac":
        def f(pv):
            out = fn(pv)
            return out.total, out.member_grads[0]
        return f
    if mode == "smac-scale":
        def f(pv):
            out = fn(pv)
            return out.total, out.scale_grad
        return f
    if mode == "iql-critic":
        def f(pv):
            out = fn(pv)
            return out.critic_loss, out.member_grads[0]
        return f
    if mode == "iql-value":
        def f(pv):
            out = fn(pv)
            return out.value_loss, out.value_grad
        return f
    if mode == "iql-policy":
        def f(pv):
            out = fn(pv)
            return out.policy_loss, out.policy_grad
        return f
    if mode == "td3-critic":
        def f(pv):
            out = fn(pv)
            return out.critic_loss, out.member_grads[0]
        return f
    if mode == "td3-policy":
        def f(pv):
            out = fn(pv)
            return out.policy_loss, out.policy_grad
        return f
    raise ValueError(mode)


def test_criterion_2_gradient_suite():
    t0 = time.time()
    n_configs = 0
    worst = 0.0
    worst_name = ""
    for rep in range(7):
        rng = np.random.default_rng(1000 + rep)
        setup = _random_setup(rng)
        cases = _loss_cases(setup, case_seed=2000 + rep)
        for name, (fn, at, mode) in cases.items():
            err = finite_diff_check(_adapt(fn, mode), at, 1e-5, rng=rng, max_coords=64)
            n_configs += 1
            if err > worst:
                worst, worst_name = err, name
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and n_configs >= 100 and elapsed < 120.0
    report(
        2,
        ok,
        f"{n_configs} random loss configurations, worst rel err {worst:.2e} "
        f"({worst_name}), tol 1e-5, {elapsed:.1f}s",
    )


def test_criterion_3_maxent_identity():
    t0 = time.time()
    grid = np.linspace(-4.0, 4.0, 2001)
    gap = agents.verify_maxent_identity(lambda a: -0.5 * (a - 0.25) ** 2, 1.0, grid)
    elapsed = time.time() - t0
    ok = gap <= 1e-6 and elapsed < 1.0
    report(3, ok, f"quadratic Q, alpha=1: sup-norm gap {gap:.2e} (tol 1e-6), {elapsed:.3f}s")


def test_criterion_4_newton_schulz_band():
    t0 = time.time()
    rng = np.random.default_rng(4)
    sv_lo, sv_hi = np.inf, -np.inf
    for _ in range(100):
        out = newton_schulz_orthogonalize(rng.standard_normal((16, 8)), 5)
        sv = np.linalg.svd(out, compute_uv=False)
        sv_lo, sv_hi = min(sv_lo, sv.min()), max(sv_hi, sv.max())
    fixed_dev = 0.0
    for n in (4, 8, 16):
        fixed_dev = max(fixed_dev, np.abs(newton_schulz_orthogonalize(np.eye(n), 5) - np.eye(n)).max())
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        fixed_dev = max(fixed_dev, np.abs(newton_schulz_orthogonalize(q, 5) - q).max())
    elapsed = time.time() - t0
    ok = sv_lo >= 0.7 and sv_hi <= 1.3 and fixed_dev <= 1e-2 and elapsed < 10.0
    report(
        4,
        ok,
        f"100x 16x8: singular values in [{sv_lo:.3f}, {sv_hi:.3f}] (band [0.7, 1.3]); "
        f"orthogonal fixed-point dev {fixed_dev:.1e} (tol 1e-2), {elapsed:.1f}s",
    )


class _ArrayDataset:
    def __init__(self, s, a, w):
        self.s, self.a, self.w_labels = s, a, w
        self.size = len(s)


def test_criterion_5_score_recovery():
    t0 = time.time()
    mu, sigma = 0.0, 0.2
    rng = stream(5, "gaussian-data")
    n = 8192
    a = (mu + sigma * rng.standard_normal(n)).reshape(-1, 1)
    ds = _ArrayDataset(np.zeros((n, 1)), a, np.ones(n))
    sched = cosine_schedule(32)
    model = init_score_model(1, 1, sched, stream(6, "init"), hidden=(96, 96), activation="tanh")
    for steps, lr, seed in ((8000, 1e-3, 7), (8000, 1e-4, 8)):
        model, _ = train_score_model(model, ds, steps, 512, lr, seed=seed)
    grid = np.linspace(mu - 2 * sigma, mu + 2 * sigma, 81).reshape(-1, 1)
    got = calibrated_score_at_k1(model, np.zeros_like(grid), grid, 1.0)[:, 0]
    # The k=1 estimator targets the score of the k=1 noised marginal,
    # N(sqrt(abar_1) mu, abar_1 sigma^2 + 1 - abar_1), not the clean
    # score (mu - a) / sigma^2: against the clean score even the exact
    # predictor is off by 0.46, most of the budget.  The clean-score
    # RMSE is reported for information only.
    ab1 = sched.at(1)
    want = (np.sqrt(ab1) * mu - grid[:, 0]) / (ab1 * sigma**2 + 1.0 - ab1)
    rmse = float(np.sqrt(np.mean((got - want) ** 2)))
    clean_rmse = float(np.sqrt(np.mean((got - (mu - grid[:, 0]) / sigma**2) ** 2)))
    budget = 0.1 / sigma

    # Two-component mixture: the calibrated score's sign must flip
    # between the modes, matching the closed-form mixture score.
    mrng = stream(9, "mixture-data")
    comp = mrng.random(n) < 0.5
    ma = (np.where(comp, 0.5, -0.5) + 0.12 * mrng.standard_normal(n)).reshape(-1, 1)
    mds = _ArrayDataset(np.zeros((n, 1)), ma, np.ones(n))
    mmodel = init_score_model(1, 1, cosine_schedule(16), stream(10, "init"), hidden=(48, 48), activation="tanh")
    mmodel, _ = train_score_model(mmodel, mds, 4000, 256, 1e-3, seed=11)
    probes = np.array([[-0.25], [0.25]])
    signs = np.sign(calibrated_score_at_k1(mmodel, np.zeros_like(probes), probes, 1.0)[:, 0])
    flip = signs[0] == -1.0 and signs[1] == 1.0

    elapsed = time.time() - t0
    ok = rmse <= budget and flip and elapsed < 300.0
    report(
        5,
        ok,
        f"gaussian score RMSE {rmse:.3f} vs k=1 marginal (budget {budget:.2f} over +-2 sigma), "
        f"{clean_rmse:.3f} vs clean score; "
        f"mixture sign flip {'yes' if flip else 'NO'}; {elapsed:.0f}s",
    )


def test_criterion_6_penalty_ordering():
    rng = np.random.default_rng(6)
    violations = 0
    for case in range(1000):
        sd, ad = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        policy = make_policy(sd, -np.ones(ad), np.ones(ad), (6,), rng)
        ens = make_critic_ensemble(sd, ad, (6,), 2, rng)
        b = 4
        batch = Batch(
            s=rng.standard_normal((b, sd)),
            a=np.clip(rng.standard_normal((b, ad)), -1, 1),
            r=rng.standard_normal(b),
            s2=rng.standard_normal((b, sd)),
            done=np.zeros(b),
            mc=rng.standard_normal(b),
        )
        plain, _ = agents.cql_penalty(ens, policy, batch, np.random.default_rng(case))
        capped, _ = agents.calql_penalty(ens, policy, batch, np.random.default_rng(case))
        if capped > plain:
            violations += 1
    report(6, violations == 0, f"capped <= plain penalty on 1000 random batches, {violations} violations")


def test_criterion_7_expectile_reduction():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        sd, ad = 2, 1
        policy = make_policy(sd, -np.ones(ad), np.ones(ad), (6,), rng)
        ens = make_critic_ensemble(sd, ad, (6,), 2, rng)
        value = make_scale_net(sd, (6,), rng)
        b = 5
        batch = Batch(
            s=rng.standard_normal((b, sd)),
            a=np.clip(rng.standard_normal((b, ad)), -1, 1),
            r=rng.standard_normal(b),
            s2=rng.standard_normal((b, sd)),
            done=np.zeros(b),
            mc=np.zeros(b),
        )
        out = agents.iql_losses(ens, value, policy, batch, 0.5, 1.0, 0.99)
        qt, _ = agents._min_over(ens.target_stack, critic_input(batch.s, batch.a))
        u = qt - value.values(batch.s)
        worst = max(worst, abs(out.value_loss - 0.5 * float(np.mean(u * u))))
    report(7, worst <= 1e-12, f"value loss at expectile 0.5 equals half MSE, max |diff| {worst:.2e} (tol 1e-12)")


def test_criterion_8_reduction_identity():
    t0 = time.time()
    env = make_env_spec("reach2d")
    data = generate_dataset(env, ScriptedPolicy(env, 0.5), 30, seed=80)
    sched = cosine_schedule(8)
    score = init_score_model(
        2, 2, sched, stream(81, "init-diff"), hidden=(16, 16),
        action_low=env.action_low, action_high=env.action_high,
    )
    score, _ = train_score_model(score, data, 100, 64, 1e-3, seed=82)
    base = {
        "env": "reach2d",
        "optimizer": "adam",
        "offline_steps": 1000,
        "offline_batch": 32,
        "eval_every": 250,
        "eval_episodes": 2,
        "networks": {"critic_hidden": [16, 16], "policy_hidden": [16, 16], "scale_hidden": [8]},
    }
    cfg_smac = config_from_dict({**base, "offline_alg": "smac", "loss": {"score_match_weight": 0.0}})
    cfg_sac = config_from_dict({**base, "offline_alg": "sac"})
    a, rows_a = offline_pretrain(cfg_smac, data, score, seed=83, run_id="run")
    b, rows_b = offline_pretrain(cfg_sac, data, None, seed=83, run_id="run")
    same = (
        np.array_equal(a.policy.params.values, b.policy.params.values)
        and np.array_equal(a.critics.member_stack.values, b.critics.member_stack.values)
        and np.array_equal(a.critics.target_stack.values, b.critics.target_stack.values)
        and a.log_entropy_coef == b.log_entropy_coef
        and rows_a == rows_b
    )
    elapsed = time.time() - t0
    report(
        8,
        same,
        f"1000 adam steps: zero-weight regularized trainer and plain trainer are "
        f"bit-identical (params, targets, entropy coef, metrics), {elapsed:.0f}s",
    )


def test_criterion_9_landscape_endpoints_and_orthogonality():
    env = make_env_spec("reach2d")
    policy = make_policy(2, env.action_low, env.action_high, (8,), stream(90, "p"))
    spec = policy.params.spec
    rng = stream(91, "x")
    theta_a = ParamVector(spec, rng.standard_normal(spec.param_count))
    theta_b = ParamVector(spec, rng.standard_normal(spec.param_count))
    curve = interpolate_eval(policy, theta_a, theta_b, [0.0, 1.0], env, 2, seed=92)
    ends_exact = (
        curve[0][1:] == evaluate_policy(policy.with_params(theta_a), env, 2, seed=92)
        and curve[1][1:] == evaluate_policy(policy.with_params(theta_b), env, 2, seed=92)
    )
    worst_cos = 0.0
    for _ in range(100):
        t1 = ParamVector(spec, rng.standard_normal(spec.param_count))
        t2 = ParamVector(spec, rng.standard_normal(spec.param_count))
        t3 = ParamVector(spec, rng.standard_normal(spec.param_count))
        basis = plane_basis(t1, t2, t3)
        worst_cos = max(worst_cos, abs(basis.u @ basis.v) / (basis.u_norm * basis.v_norm))
    ok = ends_exact and worst_cos <= 1e-10
    report(
        9,
        ok,
        f"interpolation endpoints exact: {ends_exact}; plane-basis worst |cos| "
        f"{worst_cos:.1e} over 100 triples (tol 1e-10)",
    )


def test_criterion_10_transfer_smoke():
    t0 = time.time()
    env = make_env_spec("reach2d")
    noise = 0.45
    seeds = [0, 1, 2, 3]
    cfg = config_from_dict({
        "env": "reach2d",
        "offline_alg": "smac",
        "online_alg": "sac",
        "optimizer": "adam",
        "offline_steps": 10000,
        "online_steps": 2000,
        "offline_batch": 64,
        "online_batch": 256,
        "warm_start_count": 1000,
        "mix": 0.5,
        "eval_every": 500,
        "eval_episodes": 20,
        "loss": {"score_match_weight": 1.0},
        "optim": {"critic_lr": 1e-3, "policy_lr": 3e-4, "scale_lr": 3e-4},
        "networks": {"critic_hidden": [64, 64], "policy_hidden": [64, 64], "scale_hidden": [32, 32]},
    })
    behavior = ScriptedPolicy(env, noise)
    j0s, j1s, jfs = [], [], []
    for seed in seeds:
        data = generate_dataset(env, ScriptedPolicy(env, noise), 150, seed=1000 + seed)
        sched = cosine_schedule(16)
        score = init_score_model(
            2, 2, sched, stream(seed, "init-diff"), hidden=(48, 48), activation="tanh",
            action_low=env.action_low, action_high=env.action_high,
        )
        score, _ = train_score_model(score, data, 3000, 256, 1e-3, seed=seed)
        agent, _ = offline_pretrain(cfg, data, score, seed=seed)
        agent, rows = online_finetune(agent, cfg, data, env, seed=seed)
        evals = [(r[2], r[4]) for r in rows if r[3] == "eval_return"]
        j0s.append(evals[0][1])
        j1s.append(evals[1][1])
        jfs.append(evals[-1][1])
    # behavior policy's return, by direct simulation
    from o2olab.envs import env_reset, env_step

    rng = np.random.default_rng(99)
    behavior_returns = []
    for _ in range(100):
        s = env_reset(env, rng)[None, :]
        total = 0.0
        for _ in range(env.horizon):
            s, r, d = env_step(env, s, behavior.control(s, rng.standard_normal((1, env.action_dim))))
            total += r[0]
            if d[0]:
                break
        behavior_returns.append(total)
    j_behavior = float(np.mean(behavior_returns))
    j0, j1, jf = float(np.mean(j0s)), float(np.mean(j1s)), float(np.mean(jfs))
    elapsed = time.time() - t0
    stable = j1 >= 0.9 * j0
    beats = jf > j_behavior
    ok = stable and beats and elapsed < 900.0
    report(
        10,
        ok,
        f"{len(seeds)} seeds: J0 {j0:.2f}, J1 {j1:.2f} (stable-transfer needs >= {0.9 * j0:.2f}: "
        f"{'yes' if stable else 'NO'}); final J {jf:.2f} vs behavior {j_behavior:.2f} "
        f"({'beats' if beats else 'DOES NOT BEAT'}); {elapsed:.0f}s",
    )


def test_criterion_11_byte_determinism(tmp_path, monkeypatch):
    import json

    monkeypatch.setenv("O2OLAB_OUT", str(tmp_path / "runs"))
    monkeypatch.chdir(tmp_path)
    config = {
        "env": "reach2d",
        "seeds": [0],
        "offline_alg": "sac",
        "online_alg": "sac",
        "optimizer": "adam",
        "offline_steps": 50,
        "online_steps": 30,
        "offline_batch": 16,
        "online_batch": 16,
        "warm_start_count": 25,
        "eval_every": 10,
        "eval_episodes": 2,
        "networks": {"critic_hidden": [8, 8], "policy_hidden": [8, 8]},
        "data": {"n_trajectories": 8, "behavior_noise": 0.5},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert cli_main(["gen-data", "--config", "cfg.json"]) == 0
    data = str(tmp_path / "runs/gen-data/dataset-s0.jsonl")
    pairs = []
    for tag in ("a", "b"):
        assert cli_main(["pretrain", "--config", "cfg.json", "--data", data, "--out", f"pre-{tag}"]) == 0
        assert cli_main([
            "finetune", "--config", "cfg.json", "--data", data,
            "--checkpoint", f"pre-{tag}", "--out", f"fin-{tag}",
        ]) == 0
        assert cli_main(["regret-table", "--fixture", "--out", f"tab-{tag}"]) == 0
        pairs.append(
            (
                (tmp_path / f"pre-{tag}/seed-0/metrics.csv").read_bytes(),
                (tmp_path / f"fin-{tag}/seed-0/metrics.csv").read_bytes(),
                (tmp_path / f"tab-{tag}/regret_table.csv").read_bytes(),
            )
        )
    same = pairs[0] == pairs[1]
    report(11, same, "pretrain/finetune/regret-table reruns produce byte-identical CSVs")

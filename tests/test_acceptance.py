"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines; the assertions themselves carry the stated tolerances.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import smoothmask as sm
from smoothmask.cli import main
from smoothmask.dataset import SpatialDataset, write_csv
from smoothmask.glm import ModelSpec, fit, log_or_gradient, population_odds_ratio
import smoothmask.glm as glm
from smoothmask.masking import build_operator, mask_dataset
from smoothmask.risk import IntruderScenario, expected_correct_rate, match_probabilities, u_components
from smoothmask.sim import (
    AGGREGATED,
    UNMASKED,
    BlockedExposure,
    DirectionalExposure,
    RadialExposure,
    SimConfig,
    run_study,
    sample_locations,
    simulate_outcomes,
)

from conftest import PolynomialDecayKernel, grid_locations

MASTER_SEED = 1
DESK_LAMBDAS = tuple(float(v) for v in np.geomspace(0.02, 1.0, 8))
DESK_SCENARIO = IntruderScenario(ap_columns=("x",), u_columns=("y",), mc_draws=100, seed=7)

ALL_KERNELS = {
    "euclidean": sm.EuclideanKernel(),
    "ring": sm.RingKernel(),
    "ring_angle": sm.RingAngleKernel(),
    "ring_block": sm.RingBlockKernel(),
    "bivariate_normal": sm.BivariateNormalKernel(var1=1.1, var2=0.8, rho=0.35),
}


def desk_config(field, informed_name, informed_kernel) -> SimConfig:
    return SimConfig(
        field=field,
        kernels=((informed_name, informed_kernel), ("euclidean", sm.EuclideanKernel())),
        mu={"radial": -25.0, "directional": -36.0, "blocked": -24.0}[_field_tag(field)],
        beta=4.0,
        n_locations=200,
        replicates=100,
        lambdas=DESK_LAMBDAS,
        seed=MASTER_SEED,
        scenario=DESK_SCENARIO,
    )


def _field_tag(field) -> str:
    return {RadialExposure: "radial", DirectionalExposure: "directional",
            BlockedExposure: "blocked"}[type(field)]


@pytest.fixture(scope="module")
def study_example1():
    start = time.perf_counter()
    result = run_study(desk_config(RadialExposure(), "ring", sm.RingKernel()))
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# scalar weight formulas reimplemented independently for the brute-force oracle

def _w_euclidean(a, b, lam, params):
    d = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
    return _decay(d, lam)


def _rsq(p):
    return p[0] * p[0] + p[1] * p[1]


def _w_ring(a, b, lam, params):
    return _decay(abs(_rsq(a) - _rsq(b)), lam)


def _cosx(p):
    r = math.hypot(p[0], p[1])
    return 1.0 if r == 0.0 else p[0] / r


def _w_ring_angle(a, b, lam, params):
    d = abs(_rsq(a) - _rsq(b)) + 2.0 * abs(_cosx(a) - _cosx(b))
    return _decay(d, lam)


def _w_ring_block(a, b, lam, params):
    ia = 1 if (a[0] <= 0.4 or _cosx(a) <= 0.625) else 0
    ib = 1 if (b[0] <= 0.4 or _cosx(b) <= 0.625) else 0
    if ia != ib:
        return 0.0
    return _decay(abs(_rsq(a) - _rsq(b)), lam)


def _w_bivnorm(a, b, lam, params):
    v1, v2, rho = params
    cov = rho * math.sqrt(v1 * v2)
    det = v1 * v2 - cov * cov
    d1, d2 = a[0] - b[0], a[1] - b[1]
    q = (v2 * d1 * d1 - 2 * cov * d1 * d2 + v1 * d2 * d2) / det
    return _decay(q / 2.0, lam)


def _decay(d, lam):
    if lam == 0.0:
        return 1.0 if d == 0.0 else 0.0
    return math.exp(-d / lam)


_ORACLES = {
    "euclidean": _w_euclidean,
    "ring": _w_ring,
    "ring_angle": _w_ring_angle,
    "ring_block": _w_ring_block,
    "bivariate_normal": _w_bivnorm,
}


def test_criterion_01_masking_algebra():
    """Operator rows sum to 1 (1e-12), zero smoothing is identity, apply equals
    the brute-force weighted-average double loop (1e-12), across 1000 cases."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    names = list(ALL_KERNELS)
    lambdas = (0.0, 0.1, 0.5, 2.0)
    for case in range(1000):
        name = names[case % 5]
        lam = lambdas[(case // 5) % 4]
        n = int(rng.integers(1, 51))
        locs = rng.uniform(-1.0, 1.0, (n, 2))
        if name == "bivariate_normal":
            params = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-0.8, 0.8))
            kernel = sm.BivariateNormalKernel(*params)
        else:
            params = None
            kernel = ALL_KERNELS[name]
        op = build_operator(locs, kernel, lam)
        assert np.abs(op.a.sum(axis=1) - 1.0).max() <= 1e-12
        if lam == 0.0:
            assert np.array_equal(op.a, np.eye(n)), f"case {case}: zero smoothing not identity"
        values = rng.normal(0.0, 1.0, n)
        if case % 25 == 0:
            # also push a full dataset through the public apply surface
            data = SpatialDataset(ids=tuple(f"r{i}" for i in range(n)), locs=locs,
                                  x=values[:, None], y=values, x_names=("v",))
            masked = op.apply(data)
            got = masked.y
            np.testing.assert_array_equal(masked.x[:, 0], masked.y)
        else:
            got = op.a @ values
        w = _ORACLES[name]
        for i in range(n):
            num = den = 0.0
            for k in range(n):
                wk = w(locs[i], locs[k], lam, params)
                num += values[k] * wk
                den += wk
            assert abs(got[i] - num / den) <= 1e-12, f"case {case} row {i}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"masking algebra sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS - masking algebra on 1000 cases in {elapsed:.1f}s")


def test_criterion_02_linear_link_exactness():
    """Noiseless affine outcome: the masked-data gaussian fit recovers the
    coefficients to 1e-8 for every kernel family and smoothness."""
    rng = np.random.default_rng(2002)
    n = 40
    locs = rng.uniform(-1, 1, (n, 2))
    x = rng.normal(0.0, 1.0, (n, 2))
    beta = np.array([0.7, 1.5, -2.0])  # intercept first
    y = beta[0] + x @ beta[1:]
    data = SpatialDataset(ids=tuple(f"r{i}" for i in range(n)), locs=locs,
                          x=x, y=y, x_names=("a", "b"))
    model = ModelSpec("gaussian-identity", ("a", "b"))
    for name, kernel in ALL_KERNELS.items():
        for lam in (0.1, 0.5, 2.0):
            masked = mask_dataset(data, kernel, lam)
            fr = fit(model, masked.x, masked.y)
            assert fr.converged
            np.testing.assert_allclose(fr.beta, beta, atol=1e-8, rtol=0,
                                       err_msg=f"{name} lam={lam}")
    print("\nACCEPTANCE 2: PASS - linear-link exactness to 1e-8 for all kernels")


def test_criterion_03_example1_orderings(study_example1):
    """Ring masking beats euclidean masking on bias and MSE at every
    smoothness on the radial field; MSE grows with smoothness."""
    result, elapsed = study_example1
    ring = [result.row("ring", lam) for lam in DESK_LAMBDAS]
    euc = [result.row("euclidean", lam) for lam in DESK_LAMBDAS]
    for r, e in zip(ring, euc):
        assert abs(r.bias) < abs(e.bias), f"bias ordering fails at lam={r.lam}"
        assert r.mse < e.mse, f"mse ordering fails at lam={r.lam}"
        assert r.valid and e.valid
    assert ring[-1].mse > ring[0].mse
    assert euc[-1].mse > euc[0].mse
    assert elapsed < 300.0, f"study took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3: PASS - example I orderings ({elapsed:.1f}s for the study)")


def test_criterion_04_examples2_and_3_orderings():
    """Ring-angle and ring-block masking beat euclidean masking on their
    matching nonisotropic fields, at the example-I scale and thresholds."""
    setups = (
        (DirectionalExposure(), "ring_angle", sm.RingAngleKernel()),
        (BlockedExposure(), "ring_block", sm.RingBlockKernel()),
    )
    for field, name, kernel in setups:
        result = run_study(desk_config(field, name, kernel))
        informed = [result.row(name, lam) for lam in DESK_LAMBDAS]
        euc = [result.row("euclidean", lam) for lam in DESK_LAMBDAS]
        for r, e in zip(informed, euc):
            assert abs(r.bias) < abs(e.bias), f"{name}: bias ordering at lam={r.lam}"
            assert r.mse < e.mse, f"{name}: mse ordering at lam={r.lam}"
        assert informed[-1].mse > informed[0].mse
        assert euc[-1].mse > euc[0].mse
    print("\nACCEPTANCE 4: PASS - examples II and III orderings")


def test_criterion_05_disclosure_risk_orderings(study_example1):
    """Euclidean masking is never more disclosive than ring masking; risk does
    not grow with smoothness (majority over 20 seeds); bounds and the exact
    identity-masking rate hold."""
    result, _ = study_example1
    for lam in DESK_LAMBDAS:
        r_ring = result.row("ring", lam).risk
        r_euc = result.row("euclidean", lam).risk
        assert 0.0 <= r_euc <= r_ring <= 1.0, f"risk ordering fails at lam={lam}"
    assert 0.0 <= result.row(UNMASKED).risk <= 1.0

    kernels = {"ring": sm.RingKernel(), "euclidean": sm.EuclideanKernel()}
    wins = {name: 0 for name in kernels}
    for seed in range(20):
        locs = sample_locations(200, seed=[seed, 0])
        x = RadialExposure().values(locs)
        y = simulate_outcomes(x, -25.0, 4.0, seed=[seed, 1])
        truth = SpatialDataset(ids=tuple(f"p{i}" for i in range(200)), locs=locs,
                               x=x[:, None], y=y, x_names=("x",))
        for name, kernel in kernels.items():
            lo = expected_correct_rate(mask_dataset(truth, kernel, DESK_LAMBDAS[0]),
                                       truth, DESK_SCENARIO)
            hi = expected_correct_rate(mask_dataset(truth, kernel, DESK_LAMBDAS[-1]),
                                       truth, DESK_SCENARIO)
            assert 0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0
            if hi <= lo:
                wins[name] += 1
    for name, count in wins.items():
        assert count > 10, f"risk not non-increasing for {name}: {count}/20 seeds"

    # identity masking, intruder knows every released column: exact matching
    rng = np.random.default_rng(55)
    distinct = SpatialDataset(
        ids=tuple(f"p{i}" for i in range(50)),
        locs=rng.uniform(-1, 1, (50, 2)),
        x=rng.permutation(50).astype(float)[:, None],
        y=rng.permutation(50).astype(float) + 1000.0,
        x_names=("x",),
    )
    rate = expected_correct_rate(distinct, distinct, IntruderScenario(ap_columns=("x", "y")))
    assert rate == 1.0
    print(f"\nACCEPTANCE 5: PASS - risk orderings (monotone majority {wins})")


def test_criterion_06_risk_oracle_equivalence():
    """Hand-evaluated three-record Bayes posterior to 1e-9, and the Monte
    Carlo sought-column integral against dense quadrature to 0.01."""
    rng = np.random.default_rng(606)
    masked = SpatialDataset(ids=("a", "b", "c"), locs=rng.uniform(-1, 1, (3, 2)),
                            x=np.array([[1.0], [2.0], [4.0]]),
                            y=np.array([3.5, 5.0, 8.0]), x_names=("x",))
    truth = SpatialDataset(ids=("a", "b", "c"), locs=masked.locs,
                           x=np.array([[1.1], [2.2], [3.6]]),
                           y=np.array([3.0, 5.0, 9.0]),  # exactly 1 + 2 * masked x
                           x_names=("x",))
    scenario = IntruderScenario(ap_columns=("x",), u_columns=("y",),
                                mc_draws=25, seed=0, standardize=False)
    p = match_probabilities(masked, truth, scenario)[0]  # target "a"
    ap = [1.0 - 0.1 / 2.9, 1.0 - 0.9 / 2.9, 0.0]
    u = [1.0 - 0.5 / 5.0, 1.0, 1.0 - 1.0 / 5.5]
    raw = [ap[j] * u[j] * (1.0 / 3.0) * 1.0 for j in range(3)]  # prior, cross-record term
    want = np.array(raw) / sum(raw)
    np.testing.assert_allclose(p, want, atol=1e-9, rtol=0)

    masked_u = np.array([[3.5], [5.0], [8.0]])
    preds = np.array([[3.2], [5.4], [7.9]])
    sd = np.array([0.8])
    comp = u_components(masked_u, preds, sd, mc_draws=100_000,
                        rng=np.random.default_rng(42))
    for j in range(3):
        grid = np.linspace(preds[j, 0] - 8 * sd[0], preds[j, 0] + 8 * sd[0], 40_001)
        density = np.exp(-0.5 * ((grid - preds[j, 0]) / sd[0]) ** 2) / (
            sd[0] * math.sqrt(2 * math.pi))
        dmax = np.maximum.reduce([np.abs(grid - v) for v in masked_u[:, 0]])
        want_j = np.trapezoid((1.0 - np.abs(grid - masked_u[j, 0]) / dmax) * density, grid)
        assert abs(comp[j] - want_j) <= 0.01
    print("\nACCEPTANCE 6: PASS - risk oracle equivalence (Bayes 1e-9, quadrature 0.01)")


def test_criterion_07_first_order_bias():
    """Exact zero derivative for constant exposure, identity link, and every
    built-in kernel; agreement with the expected-score oracle on the
    polynomial-decay kernel to 1e-3 relative."""
    start = time.perf_counter()
    locs = grid_locations(10, 5)
    x = RadialExposure().values(locs)
    data = SpatialDataset(ids=tuple(f"r{i}" for i in range(50)), locs=locs,
                          x=x[:, None], y=np.zeros(50), x_names=("x",))
    poly = PolynomialDecayKernel(scale=0.01)
    beta_true = np.array([-2.0, 0.5])

    const = SpatialDataset(ids=data.ids, locs=locs, x=np.full((50, 1), 3.3),
                           y=np.zeros(50), x_names=("x",))
    assert np.all(sm.first_order_bias(const, beta_true, poly, "poisson-log").beta_prime0 == 0.0)
    assert np.all(sm.first_order_bias(data, beta_true, poly, "gaussian-identity").beta_prime0 == 0.0)
    for name, kernel in ALL_KERNELS.items():
        rep = sm.first_order_bias(data, beta_true, kernel, "poisson-log")
        assert np.all(rep.beta_prime0 == 0.0), name
        assert rep.r0_max_abs == 0.0

    rep = sm.first_order_bias(data, beta_true, poly, "poisson-log")
    model = ModelSpec("poisson-log", ("x",))
    mu_true = np.exp(np.hstack([np.ones((50, 1)), data.x]) @ beta_true)

    def solve_at(lam):
        a = build_operator(locs, poly, lam).a
        fr = fit(model, a @ x, a @ mu_true)
        assert fr.converged
        return fr.beta

    slope = (solve_at(2e-4) - solve_at(1e-4)) / 1e-4
    rel = np.abs(rep.beta_prime0 - slope) / np.abs(slope)
    assert rel.max() < 1e-3, f"relative error {rel}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 7: PASS - first-order bias (oracle rel err {rel.max():.2e}, {elapsed:.1f}s)")


def test_criterion_08_glm_correctness():
    """Closed-form and oracle checks for the fitting and odds-ratio machinery."""
    fr = fit(ModelSpec("poisson-log", ()), None, np.array([1.0, 2.0, 3.0]))
    assert abs(fr.beta[0] - math.log(2.0)) <= 1e-10

    rng = np.random.default_rng(808)
    xg = rng.normal(0, 1, (80, 2))
    yg = 1.0 + xg @ np.array([0.5, -1.0]) + rng.normal(0, 0.4, 80)
    fr_g = fit(ModelSpec("gaussian-identity", ("a", "b")), xg, yg)
    Xd = np.hstack([np.ones((80, 1)), xg])
    want = np.linalg.solve(Xd.T @ Xd, Xd.T @ yg)
    np.testing.assert_allclose(fr_g.beta, want, atol=1e-10, rtol=0)

    from scipy.special import expit

    n = rng.integers(80, 400, 50).astype(float)
    frac = rng.uniform(0, 1, 50)
    other = rng.normal(0, 1, 50)
    p = expit(-1.8 + 0.9 * frac + 0.4 * other)
    yb = rng.binomial(n.astype(int), p).astype(float)
    xb = np.column_stack([frac, other])
    model_b = ModelSpec("binomial-logit", ("frac", "other"))
    fr_b = fit(model_b, xb, yb, trials=n)
    assert fr_b.converged

    grad = log_or_gradient(fr_b, xb, n, "frac")
    h = 1e-6
    fd = np.empty_like(grad)
    for k in range(len(grad)):
        up, dn = fr_b.beta.copy(), fr_b.beta.copy()
        up[k] += h
        dn[k] -= h
        fd[k] = (glm._log_odds_ratio(model_b, up, xb, n, "frac")[0]
                 - glm._log_odds_ratio(model_b, dn, xb, n, "frac")[0]) / (2 * h)
    np.testing.assert_allclose(grad, fd, atol=1e-5, rtol=0)

    base = population_odds_ratio(fr_b, xb, n, "frac")
    xb2 = xb.copy()
    xb2[:, 1] = (xb2[:, 1] + 2.2) * 0.4
    fr_b2 = fit(model_b, xb2, yb, trials=n)
    moved = population_odds_ratio(fr_b2, xb2, n, "frac")
    assert abs(moved.or_value - base.or_value) <= 1e-8 * base.or_value

    ys = rng.binomial(n.astype(int), expit(-1.2 + 0.7 * frac)).astype(float)
    model_s = ModelSpec("binomial-logit", ("frac",))
    fr_s = fit(model_s, frac, ys, trials=n)
    single = population_odds_ratio(fr_s, frac[:, None], n, "frac")
    assert abs(single.or_value - math.exp(fr_s.beta[1])) <= 1e-10 * single.or_value
    print("\nACCEPTANCE 8: PASS - GLM correctness batch")


def test_criterion_09_width_ratio_machinery(study_example1):
    """Width ratios exist for every cell; the zero-smoothness value comes from
    the unmasked fits. The direction of naive-vs-percentile width is reported
    but not asserted: it is not the same in every setting."""
    result, _ = study_example1
    cells = [r for r in result.rows if r.kernel not in (UNMASKED, AGGREGATED)]
    assert len(cells) == 2 * len(DESK_LAMBDAS)
    for r in cells:
        assert math.isfinite(r.width_ratio) and r.width_ratio > 0
    base = result.row(UNMASKED)
    assert base.lam == 0.0
    assert math.isfinite(base.width_ratio) and base.width_ratio > 0
    over = sum(1 for r in cells if r.width_ratio > 1.0)
    print(f"\nACCEPTANCE 9: PASS - width ratios computed for all cells; "
          f"naive CI wider than percentile CI in {over}/{len(cells)} cells "
          f"(direction reported, not asserted), unmasked ratio {base.width_ratio:.3f}")


def test_criterion_10_cli_determinism(tmp_path):
    """Every subcommand, rerun with identical flags and seeds, produces
    byte-identical output files."""
    n = 30
    locs = sample_locations(n, seed=41)
    x = RadialExposure().values(locs)
    y = simulate_outcomes(x, -25.0, 4.0, seed=42)
    data = SpatialDataset(ids=tuple(f"p{i}" for i in range(n)), locs=locs,
                          x=x[:, None], y=y, x_names=("x1",))
    data_csv = tmp_path / "data.csv"
    write_csv(data, data_csv)
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"family": "ring", "params": {}}))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"family": "poisson-log", "regressors": ["x1"]}))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"ap_columns": ["x1"], "u_columns": ["y"],
                                    "mc_draws": 25, "seed": 3}))
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "field": {"type": "radial"},
        "kernels": {"ring": {"family": "ring"}, "euclidean": {"family": "euclidean"}},
        "mu": -25.0, "beta": 4.0, "n_locations": 40, "replicates": 5,
        "lambdas": [0.1, 0.5], "seed": 6,
        "scenario": {"ap_columns": ["x"], "u_columns": ["y"], "mc_draws": 10, "seed": 2},
    }))

    outputs = []
    for run in ("r1", "r2"):
        d = tmp_path / run
        d.mkdir()
        cmds = [
            ["mask", "--in", str(data_csv), "--kernel", str(kernel), "--lambda", "0.3",
             "--out", str(d / "masked.csv"), "--export-operator", str(d / "op.csv")],
            ["fit", "--in", str(data_csv), "--model", str(model), "--out", str(d / "fit.json")],
            ["bias", "--in", str(data_csv), "--kernel", str(kernel),
             "--family", "poisson-log", "--beta=-25,4", "--out", str(d / "bias.json")],
            ["simulate", "--config", str(sim_cfg), "--out", str(d / "results")],
        ]
        for cmd in cmds:
            assert main(cmd) == 0, cmd
        assert main(["risk", "--masked", str(d / "masked.csv"), "--truth", str(data_csv),
                     "--scenario", str(scenario), "--out", str(d / "risk.json")]) == 0
        assert main(["profile", "--study", str(d / "results" / "study.csv"),
                     "--out", str(d / "profile.csv")]) == 0
        assert main(["plot", "--in", str(d / "results" / "study.csv"), "--kind", "estimates",
                     "--out", str(d / "estimates.svg")]) == 0
        files = ["masked.csv", "op.csv", "fit.json", "bias.json", "risk.json",
                 "profile.csv", "estimates.svg",
                 "results/study.csv", "results/profile.csv", "results/metadata.json"]
        outputs.append({f: (d / f).read_bytes() for f in files})
    assert outputs[0] == outputs[1]
    print("\nACCEPTANCE 10: PASS - every subcommand byte-identical on rerun")


ORACLE_LAMBDAS = tuple(float(v) for v in np.geomspace(0.01, 1.0, 8))


@pytest.mark.parametrize("field, kernel_names, mu, seed", [
    (RadialExposure(), ("ring", "euclidean"), -25.0, 0),
    (BlockedExposure(), ("ring_block", "bivariate_normal"), -24.0, 3),
    (DirectionalExposure(), ("ring_angle", "euclidean"), -36.0, 4),
], ids=["radial", "blocked", "directional"])
def test_criterion_11_masked_data_estimand(field, kernel_names, mu, seed):
    """Each valid study row estimates beta*(lambda), the slope of the Poisson
    fit to the expected masked outcome A mu on the masked regressor A x (the
    score equations are linear in y), within 4 Monte Carlo standard errors;
    its mean naive variance is the inverse information at beta* within 10%."""
    cfg = SimConfig(field=field, kernels=tuple((k, ALL_KERNELS[k]) for k in kernel_names),
                    mu=mu, beta=4.0, n_locations=200, replicates=100,
                    lambdas=ORACLE_LAMBDAS, seed=seed)
    result = run_study(cfg)
    locs = sample_locations(cfg.n_locations, [cfg.seed, 0], cfg.bounds)
    x = field.values(locs)
    mean = np.exp(cfg.mu + cfg.beta * x)
    model = ModelSpec("poisson-log", ("x",))
    cells = [(UNMASKED, 0.0, None)] + [(name, lam, kernel) for name, kernel in cfg.kernels
                                       for lam in ORACLE_LAMBDAS]
    checked, worst_se, ratios = set(), 0.0, []
    for name, lam, kernel in cells:
        row = result.row(name, lam)
        if not row.valid:
            continue
        a = np.eye(cfg.n_locations) if kernel is None else build_operator(locs, kernel, lam).a
        oracle = fit(model, a @ x, a @ mean)
        assert oracle.converged
        mc_se = row.empirical_sd / math.sqrt(cfg.replicates - row.n_failed)
        distance = abs(row.mean_estimate - oracle.beta[1]) / mc_se
        ratio = row.mean_naive_var / oracle.cov[1, 1]
        assert distance <= 4.0, f"{name} at lam={lam}: {distance:.2f} MC SEs from beta*"
        assert 0.9 <= ratio <= 1.1, f"{name} at lam={lam}: naive variance ratio {ratio:.4f}"
        checked.add(name)
        worst_se, ratios = max(worst_se, distance), ratios + [ratio]
    assert checked == {UNMASKED, *kernel_names}
    print(f"\nACCEPTANCE 11: PASS - {len(ratios)} rows within {worst_se:.2f} MC SEs of "
          f"beta*, naive variance ratios {min(ratios):.3f}-{max(ratios):.3f}")


def test_bivariate_normal_pipeline_end_to_end():
    """The flexible-kernel application pipeline on a synthetic 100-zip dataset:
    rate smoothing at three correlation settings, group-disparity odds ratios
    with delta-method and bootstrap intervals, and the matching risk."""
    from scipy.special import expit

    rng = np.random.default_rng(404)
    n_zip = 100
    locs = rng.uniform(-1.0, 1.0, (n_zip, 2))
    person_years = rng.integers(200, 2000, n_zip).astype(float)
    group_frac = expit(1.5 * locs[:, 0] + rng.normal(0, 0.6, n_zip))
    male_frac = rng.uniform(0.35, 0.65, n_zip)
    true_beta = np.array([-3.0, 0.8, 0.5])
    p = expit(true_beta[0] + true_beta[1] * group_frac + true_beta[2] * male_frac)
    deaths = rng.binomial(person_years.astype(int), p).astype(float)
    rate = deaths / person_years

    zips = SpatialDataset(
        ids=tuple(f"z{i:03d}" for i in range(n_zip)), locs=locs,
        x=np.column_stack([group_frac, male_frac]), y=rate,
        x_names=("group_frac", "male_frac"), n=person_years,
    )
    var1, var2 = locs[:, 0].var(), locs[:, 1].var()
    model = ModelSpec("binomial-logit", ("group_frac", "male_frac"))

    base = fit(model, zips.x, rate * person_years, trials=person_years)
    or_base = population_odds_ratio(base, zips.x, person_years, "group_frac")

    for rho in (0.0, 0.5, -0.5):
        kernel = sm.BivariateNormalKernel(var1=var1, var2=var2, rho=rho)
        for lam in (0.05, 0.3):
            masked = mask_dataset(zips, kernel, lam)
            smoothed_deaths = masked.y * person_years  # y is a rate; counts rescale
            fr = fit(model, masked.x, smoothed_deaths, trials=person_years)
            assert fr.converged
            res = population_odds_ratio(fr, masked.x, person_years, "group_frac")
            assert res.ci[0] < res.or_value < res.ci[1]
            boot = sm.bootstrap_ci(model, masked.x, smoothed_deaths,
                                   statistic="log_or", b=120, seed=17,
                                   trials=person_years, group="group_frac")
            assert boot.lower < res.log_or + 1e-9 and res.log_or - 1e-9 < boot.upper + 2 * boot.se
            risk = expected_correct_rate(
                masked, zips,
                IntruderScenario(ap_columns=("group_frac", "male_frac"),
                                 u_columns=("y",), mc_draws=50, seed=5))
            assert 0.0 <= risk <= 1.0
            if lam == 0.05 and rho == 0.0:
                # light masking: the disparity estimate stays in the vicinity
                assert abs(res.log_or - or_base.log_or) < 0.5
    print("\nACCEPTANCE note: PASS - bivariate-normal pipeline end-to-end on 100 synthetic zips")

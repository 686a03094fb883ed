"""Shipping checklist: eight numbered criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each prints ``[criterion N] PASS/FAIL`` with the measured numbers next to
their limits. Criterion 7 needs the real credit card CSV and is skipped
unless QMOE_DATASET points at it.
"""

import json
import os
import time

import numpy as np
import pytest

from qmoe.bench import (
    RunConfig,
    fit_pipeline,
    latency_estimate,
    pipeline_predict,
    report_to_dict,
    run_cv,
)
from qmoe.calibration import TemperatureScaler, apply_temperature
from qmoe.data import synthesize
from qmoe.gbdt import GBDTParams
from qmoe.hybrid import HybridConfig, _batch_gradients, _init_training
from qmoe.metrics import auprc_trapezoid, average_precision, pr_curve
from qmoe.moe import GAMMA_GRID, CombinedModel, combined_predict, router_targets
from qmoe.neural import MLPSpec, bce_loss, init_mlp_params, mlp_backward, mlp_forward, mse_loss
from qmoe.qsim import AnsatzSpec, batch_expectations, batch_parameter_shift
from test_hybrid import evaluate_loss
from test_moe import Unscaled


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _rel(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


# --- 1: simulator against a dense matrix oracle -----------------------------


def _kron_vecs(vecs):
    out = np.array([1.0 + 0.0j])
    for v in vecs:
        out = np.kron(out, v)
    return out


def _kron_mats(mats):
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def _ry_mat(a):
    c, s = np.cos(a / 2.0), np.sin(a / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz_mat(a):
    return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])


def _cnot_mat(n, control, target):
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        j = i ^ (1 << (n - 1 - target)) if (i >> (n - 1 - control)) & 1 else i
        m[j, i] = 1.0
    return m


def _circuit_value(spec: AnsatzSpec, params, features) -> float:
    """<Z_0> for one feature row, the qubit the hybrid head reads."""
    return float(batch_expectations(spec, params, [features], (0,))[0, 0])


def _matrix_oracle(spec: AnsatzSpec, params, features) -> float:
    n = spec.n_qubits
    psi = _kron_vecs([np.array([np.cos(x / 2.0), np.sin(x / 2.0)]) for x in features])
    k = 0
    for _ in range(spec.n_layers):
        psi = _kron_mats([_ry_mat(params[k + q]) for q in range(n)]) @ psi
        k += n
        psi = _kron_mats([_rz_mat(params[k + q]) for q in range(n)]) @ psi
        k += n
        if n > 1:
            for q in range(n):
                psi = _cnot_mat(n, q, (q + 1) % n) @ psi
    z = _kron_mats(
        [np.diag([1.0, -1.0]) if q == 0 else np.eye(2) for q in range(n)]
    )
    return float(np.real(np.vdot(psi, z @ psi)))


def test_01_simulator_matches_matrix_oracle():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n in (1, 2, 3, 4):
        for _ in range(100):
            spec = AnsatzSpec(n_qubits=n, n_layers=int(rng.integers(1, 4)))
            params = rng.uniform(-np.pi, np.pi, spec.n_params)
            feats = rng.uniform(-np.pi, np.pi, n)
            worst = max(worst, abs(_circuit_value(spec, params, feats)
                                   - _matrix_oracle(spec, params, feats)))
            count += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst < 1e-10 and elapsed < 10.0,
        f"max |simulator - matrix oracle| = {worst:.2e} over {count} instances "
        f"in {elapsed:.1f} s (limits 1e-10, 10 s)",
    )


# --- 2: every gradient against central finite differences -------------------


def _fd(f, x0: float, h: float) -> float:
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def _circuit_grad_errors(rng, instances=50, h=1e-5):
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(1, 4))
        spec = AnsatzSpec(n_qubits=n, n_layers=int(rng.integers(1, 3)))
        params = rng.uniform(-np.pi, np.pi, spec.n_params)
        feats = rng.uniform(-np.pi, np.pi, n)
        d_theta, d_feat = (g[0, :, 0] for g in batch_parameter_shift(spec, params, [feats], (0,))[1:])
        for i in range(spec.n_params):
            def at(v, i=i):
                p = params.copy()
                p[i] = v
                return _circuit_value(spec, p, feats)
            worst = max(worst, _rel(d_theta[i], _fd(at, params[i], h)))
        for j in range(n):
            def at(v, j=j):
                f = feats.copy()
                f[j] = v
                return _circuit_value(spec, params, f)
            worst = max(worst, _rel(d_feat[j], _fd(at, feats[j], h)))
    return worst


def _relu_margin(spec, params, x):
    """Smallest |pre-activation| feeding a ReLU; FD near a kink is garbage."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    margin = np.inf
    for i, (w, b) in enumerate(params):
        pre = h @ w.T + b
        act = spec.output_activation if i == len(params) - 1 else "relu"
        if act == "relu":
            margin = min(margin, float(np.min(np.abs(pre))))
            h = np.maximum(pre, 0.0)
        elif act == "sigmoid":
            h = 1.0 / (1.0 + np.exp(-pre))
        else:
            h = pre
    return margin


def _mlp_instance(rng, output):
    sizes = (int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(1, 3)))
    spec = MLPSpec(layer_sizes=sizes, output_activation=output)
    for _ in range(40):
        params = init_mlp_params(spec, rng)
        x = rng.normal(size=(4, sizes[0]))
        if _relu_margin(spec, params, x) < 1e-3:
            continue
        out, _ = mlp_forward(spec, params, x)
        if output == "sigmoid" and not np.all((out > 0.01) & (out < 0.99)):
            continue
        return spec, params, x
    raise AssertionError("could not draw a finite-difference-safe network")


def _mlp_grad_errors(rng, instances=50, h=1e-5):
    worst = 0.0
    for trial in range(instances):
        output = "sigmoid" if trial % 2 else "linear"
        spec, params, x = _mlp_instance(rng, output)
        if output == "sigmoid":
            labels = rng.integers(0, 2, size=(4, spec.layer_sizes[-1])).astype(float)

            def scalar_loss(p, xx):
                out, _ = mlp_forward(spec, p, xx)
                return bce_loss(labels, out)[0]

            out, cache = mlp_forward(spec, params, x)
            grad_out = bce_loss(labels, out)[1]
        else:
            target = rng.normal(size=(4, spec.layer_sizes[-1]))

            def scalar_loss(p, xx):
                out, _ = mlp_forward(spec, p, xx)
                return mse_loss(target, out)[0]

            out, cache = mlp_forward(spec, params, x)
            grad_out = mse_loss(target, out)[1]

        param_grads, grad_input = mlp_backward(spec, params, cache, grad_out)
        for li, (w, b) in enumerate(params):
            for arr, grads in ((w, param_grads[li][0]), (b, param_grads[li][1])):
                for idx in np.ndindex(arr.shape):
                    def at(v, arr=arr, idx=idx):
                        old = arr[idx]
                        arr[idx] = v
                        val = scalar_loss(params, x)
                        arr[idx] = old
                        return val
                    worst = max(worst, _rel(grads[idx], _fd(at, arr[idx], h), floor=1e-4))
        for idx in np.ndindex(x.shape):
            def at(v, idx=idx):
                old = x[idx]
                x[idx] = v
                val = scalar_loss(params, x)
                x[idx] = old
                return val
            worst = max(worst, _rel(grad_input[idx], _fd(at, x[idx], h), floor=1e-4))
    return worst


def _loss_grad_errors(rng, instances=50, h=1e-5):
    worst = 0.0
    for _ in range(instances):
        y = rng.normal(size=12)
        x = rng.normal(size=12)
        _, grad = mse_loss(x, y)
        for i in range(12):
            def at(v, i=i):
                yy = y.copy()
                yy[i] = v
                return mse_loss(x, yy)[0]
            worst = max(worst, _rel(grad[i], _fd(at, y[i], h), floor=1e-4))
        probs = rng.uniform(0.05, 0.95, size=12)
        labels = rng.integers(0, 2, size=12).astype(float)
        _, grad = bce_loss(labels, probs)
        for i in range(12):
            def at(v, i=i):
                pp = probs.copy()
                pp[i] = v
                return bce_loss(labels, pp)[0]
            worst = max(worst, _rel(grad[i], _fd(at, probs[i], h), floor=1e-4))
    return worst


def _chain_grad_error(h=1e-6):
    cfg = HybridConfig(
        n_features=4, encoder_hidden=(5,), n_qubits=2, n_layers=1,
        head_hidden=3, recon_weight=0.4, batch_size=8, epochs=1, seed=0,
    )
    rng = np.random.default_rng(99)
    model = _init_training(cfg, rng)
    x = rng.normal(size=(6, 4))
    y = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    _, _, _, grads = _batch_gradients(model, x, y)
    flat = model.params  # every parameter array is a view of this buffer
    # The loop below reaches every decoder parameter: the training buffer
    # holds them after the model's cfg.n_params (decoder 2->5->4: 2*5+5 + 5*4+4).
    assert flat.size == cfg.n_params + 39
    assert all(np.shares_memory(a, flat) for pair in model.decoder for a in pair)
    worst = 0.0
    for i in range(flat.size):
        def at(v, i=i):
            old = flat[i]
            flat[i] = v
            val = evaluate_loss(model, x, y)[0]
            flat[i] = old
            return val
        worst = max(worst, _rel(grads[i], _fd(at, flat[i], h), floor=1e-4))
    return worst


def test_02_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    t0 = time.perf_counter()
    circuit_err = _circuit_grad_errors(rng)
    mlp_err = _mlp_grad_errors(rng)
    loss_err = _loss_grad_errors(rng)
    chain_err = _chain_grad_error()
    elapsed = time.perf_counter() - t0
    ok = (circuit_err < 1e-4 and mlp_err < 1e-4 and loss_err < 1e-4
          and chain_err < 1e-3 and elapsed < 60.0)
    _verdict(
        2,
        ok,
        f"worst relative error: circuit {circuit_err:.2e}, mlp {mlp_err:.2e}, "
        f"losses {loss_err:.2e} (limit 1e-4); full chain {chain_err:.2e} "
        f"(limit 1e-3); {elapsed:.1f} s (limit 60 s)",
    )


# --- 3: ranking metric oracles and temperature invariance -------------------


def test_03_metric_hand_values_and_calibration_invariance():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    ap = average_precision(pr_curve(scores, labels))
    aucpr = auprc_trapezoid(pr_curve(scores, labels))
    ap_err = abs(ap - 5.0 / 6.0)
    aucpr_err = abs(aucpr - 11.0 / 12.0)

    rng = np.random.default_rng(5)
    # scores away from 0 and 1 so even t = 0.05 cannot collapse distinct values
    probe = rng.uniform(0.32, 0.68, size=64)
    probe_labels = (rng.random(64) < 0.3).astype(float)
    probe_labels[:2] = (1.0, 0.0)
    base_ap = average_precision(pr_curve(probe, probe_labels))
    drift = max(
        abs(average_precision(pr_curve(
            apply_temperature(TemperatureScaler(t, 0.0, 0), probe), probe_labels
        )) - base_ap)
        for t in (0.05, 0.45, 2.3, 20.0)
    )
    _verdict(
        3,
        ap_err < 1e-12 and aucpr_err < 1e-12 and drift < 1e-12,
        f"|AP - 5/6| = {ap_err:.1e}, |AUCPR - 11/12| = {aucpr_err:.1e}, "
        f"max AP drift under temperature = {drift:.1e} (limits 1e-12)",
    )


# --- 4: routing correctness ---------------------------------------------------


def test_04_router_targets_cloned_expert_and_monotone_routing():
    targets = router_targets(
        labels=np.array([1.0, 1.0, 0.0, 0.0]),
        primary_probs=np.array([0.8, 0.3, 0.2, 0.9]),
        secondary_probs=np.array([0.2, 0.7, 0.1, 0.8]),
        tau_primary=0.5,
        tau_secondary=0.5,
    )
    hand_ok = np.array_equal(targets, np.array([0.0, 1.0, 0.0, 0.0]))

    x, y, _ = synthesize(3000, 0.02, seed=11)
    cfg = RunConfig(
        hybrid=HybridConfig(
            n_features=29, encoder_hidden=(12, 6), n_qubits=2, n_layers=2,
            head_hidden=4, batch_size=16, epochs=2, learning_rate=0.005,
            patience=2, seed=0,
        ),
        expert=GBDTParams(n_estimators=40, max_depth=3),
        router=GBDTParams(n_estimators=20, max_depth=3),
        n_splits=3, n_repeats=1, seed=11,
    )
    _, base = fit_pipeline(x, y, cfg)

    fractions = [pipeline_predict(base, x, g).routed_fraction
                 for g in (*GAMMA_GRID, 1.0)]
    monotone_ok = all(a >= b for a, b in zip(fractions, fractions[1:]))

    # The stand-in scaler hands the routed rows over as they are, so the
    # cloned secondary reads the raw rows the primary reads.
    cloned = CombinedModel(
        scaler=Unscaled(base.primary.n_features),
        primary=base.primary, primary_scaler=base.primary_scaler,
        secondary=base.primary, secondary_scaler=base.primary_scaler,
        router=base.router, tau_primary=base.tau_primary,
        tau_secondary=base.tau_primary,
    )
    base_probs = apply_temperature(base.primary_scaler, base.primary.predict_proba(x))
    base_hard = (base_probs > base.tau_primary).astype(np.float64)
    clone_ok = True
    for gamma in GAMMA_GRID:
        out = combined_predict(cloned, x, gamma)
        clone_ok = clone_ok and np.array_equal(out.probs, base_probs)
        clone_ok = clone_ok and np.array_equal(out.labels, base_hard)
        clone_ok = clone_ok and (
            average_precision(pr_curve(out.probs, y))
            == average_precision(pr_curve(base_probs, y))
        )
    _verdict(
        4,
        hand_ok and clone_ok and monotone_ok,
        f"hand targets {'match' if hand_ok else 'differ'}; cloned secondary "
        f"{'reproduces baseline exactly' if clone_ok else 'diverges'}; routed "
        f"fraction {fractions[0]:.4f} -> {fractions[-1]:.4f} "
        f"{'monotone' if monotone_ok else 'NOT monotone'} over the gate grid",
    )


# --- 5: routing latency arithmetic -------------------------------------------


def test_05_latency_reproduction():
    # serial no-batching cost targets for a 14k-point holdout:
    # route everything ~ 12 h, 3% ~ 21 min, 1% ~ 7 min
    cases = (
        (1.0, 12 * 3600.0, 10.7, 1 / 3600.0),
        (0.03, 21 * 60.0, 19.2, 1 / 60.0),
        (0.01, 7 * 60.0, 6.4, 1 / 60.0),
    )
    details = []
    ok = True
    for fraction, target_s, display, unit in cases:
        est = latency_estimate(14000, fraction)
        rel = abs(est - target_s) / target_s
        shown = round(est * unit, 1)
        ok = ok and rel <= 0.15 and shown == display
        details.append(f"{fraction:g} -> {shown:g} (target {target_s * unit:g}, off {rel:.1%})")
    _verdict(5, ok, "14000 points at fractions " + "; ".join(details) + " (limit 15%)")


# --- 6: desk-scale end to end -------------------------------------------------

DESK_CONFIG = RunConfig(
    hybrid=HybridConfig(
        n_features=29, encoder_hidden=(64, 32), n_qubits=3, n_layers=2,
        head_hidden=8, recon_weight=0.5, batch_size=8, epochs=5,
        learning_rate=0.01, patience=5, seed=0,
    ),
    seed=3,
)


def test_06_desk_scale_end_to_end():
    t0 = time.perf_counter()
    report = run_cv(DESK_CONFIG)
    elapsed = time.perf_counter() - t0

    folds_ok = len(report.folds) == 15
    arms = {str(g) for g in DESK_CONFIG.gamma_grid} | {"1.0"}
    finite_ok = all(
        set(f.combined) == arms
        and np.isfinite(f.baseline["ap"])
        and all(np.isfinite(f.combined[a]["ap"]) for a in arms)
        for f in report.folds
    )
    sentinel_ok = all(f.sentinel_equals_baseline for f in report.folds)

    base_median = float(np.median([f.baseline["ap"] for f in report.folds]))
    margins = {
        g: float(np.median([f.combined[str(g)]["ap"] for f in report.folds])) - base_median
        for g in DESK_CONFIG.gamma_grid
    }
    best_gamma, best_margin = max(margins.items(), key=lambda kv: kv[1])
    routed_ok = best_margin >= 0.0

    _verdict(
        6,
        folds_ok and finite_ok and sentinel_ok and routed_ok and elapsed < 1200.0,
        f"15 folds: {folds_ok}; finite metrics: {finite_ok}; no-routing arm exact: "
        f"{sentinel_ok}; median AP margin {best_margin:+.4f} at gamma {best_gamma} "
        f"(baseline median {base_median:.4f}); {elapsed:.0f} s (limit 1200 s)",
    )


# --- 7: real-dataset operating ranges (optional) ------------------------------


@pytest.mark.skipif(
    not os.environ.get("QMOE_DATASET"),
    reason="set QMOE_DATASET to the credit card fraud CSV to run the full reproduction",
)
def test_07_real_dataset_operating_ranges():
    cfg = RunConfig(csv_path=os.environ["QMOE_DATASET"], seed=0)
    report = run_cv(cfg)
    base_ap = float(np.nanmean([f.baseline["ap"] for f in report.folds]))
    comb_ap = float(np.nanmean([f.combined["0.6"]["ap"] for f in report.folds]))
    base_prec = float(np.nanmean([f.baseline["precision"] for f in report.folds]))
    comb_prec = float(np.nanmean([f.combined["0.6"]["precision"] for f in report.folds]))
    base_rec = float(np.nanmean([f.baseline["recall"] for f in report.folds]))
    comb_rec = float(np.nanmean([f.combined["0.6"]["recall"] for f in report.folds]))
    ok = (
        abs(base_ap - 0.770) <= 0.10
        and abs(comb_ap - 0.793) <= 0.10
        and comb_prec > base_prec
        and comb_rec < base_rec
    )
    _verdict(
        7,
        ok,
        f"baseline AP {base_ap:.3f} (expect 0.770 +- 0.10), combined AP at gamma 0.6 "
        f"{comb_ap:.3f} (expect 0.793 +- 0.10); precision {base_prec:.3f} -> "
        f"{comb_prec:.3f} (must rise), recall {base_rec:.3f} -> {comb_rec:.3f} (must fall)",
    )


# --- 8: bit-identical reports --------------------------------------------------


def test_08_reports_are_bit_identical():
    cfg = RunConfig(
        synth_rows=2000, synth_fraud_rate=0.02,
        hybrid=HybridConfig(
            n_features=29, encoder_hidden=(12, 6), n_qubits=2, n_layers=2,
            head_hidden=4, batch_size=16, epochs=2, learning_rate=0.005,
            patience=2, seed=0,
        ),
        expert=GBDTParams(n_estimators=25, max_depth=3),
        router=GBDTParams(n_estimators=15, max_depth=3),
        n_splits=3, n_repeats=2, seed=13,
    )
    first = json.dumps(report_to_dict(run_cv(cfg)), sort_keys=True)
    second = json.dumps(report_to_dict(run_cv(cfg)), sort_keys=True)
    _verdict(
        8,
        first == second,
        f"two runs serialized to {len(first)} identical bytes"
        if first == second
        else "two runs with one seed serialized differently",
    )

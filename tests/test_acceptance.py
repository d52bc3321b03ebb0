"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Tolerances are pinned here, not configurable.  Shared long runs live in
module-scoped fixtures so each is computed once.
"""

import json
import math

import numpy as np
import pytest

from altproj.cli import main as cli_main
from altproj.constructions import (BlockBudgetExceeded,
                                   build_ell2_construction, ell2_aw_certificate,
                                   ell2_checkpoints, ell2_limit_graph,
                                   ell2_relative_gap, ell2_run,
                                   ell2_verify_engine,
                                   run_example_unbounded_lines,
                                   run_example_unstable, stable_scenario)
from altproj.engine import RunConfig, run_classical
from altproj.sets import Ball, DiagonalAffineGraph, OrthoSubspace, Polygon2D
from altproj.variational import (aw_distance, check_cos_separation,
                                 check_fact_norms, epsilon_alpha, omega_angle,
                                 strongly_exposes_probe, wset_contains)

from _oracles import (omega_bruteforce, polygon_containing_ball,
                      polyhedron_projection_bruteforce, random_set)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. projection contract suite


def test_criterion_1_projection_contracts():
    rng = np.random.default_rng(101)
    counts = {"halfspace": 1600, "hyperplane": 1300, "ball": 1600,
              "polygon2d": 1100, "ortho_subspace": 1100, "affine_subspace": 1100,
              "nonneg_orthant": 1100, "diagonal_affine_graph": 850,
              "polyhedron": 250}
    assert sum(counts.values()) == 10_000
    worst_vi, worst_nonexp, worst_idem, worst_brute = -np.inf, -np.inf, -np.inf, 0.0
    for kind, n_pairs in counts.items():
        for _ in range(n_pairs):
            S = random_set(kind, rng)
            x = rng.standard_normal(S.dim) * 2.5
            z = rng.standard_normal(S.dim) * 2.5
            proj = S.project
            px, pz = proj(x), proj(z)
            worst_nonexp = max(worst_nonexp,
                               np.linalg.norm(px - pz) - np.linalg.norm(x - z))
            worst_idem = max(worst_idem, float(np.linalg.norm(proj(px) - px)))
            for _ in range(8):
                y = proj(rng.standard_normal(S.dim) * rng.uniform(0.3, 3.0))
                worst_vi = max(worst_vi, float((x - px) @ (y - px)))
            if kind == "polyhedron":
                worst_brute = max(worst_brute, float(np.linalg.norm(
                    px - polyhedron_projection_bruteforce(S, x))))
    ok = (worst_vi <= 1e-8 and worst_nonexp <= 1e-9 and worst_idem <= 1e-10
          and worst_brute <= 1e-8)
    report(1, ok,
           f"10^4 pairs: VI residual {worst_vi:.2e} (<=1e-8), nonexpansive slack "
           f"{worst_nonexp:.2e} (<=1e-9), idempotence {worst_idem:.2e} (<=1e-10), "
           f"face-enumeration gap {worst_brute:.2e} (<=1e-8)")


# ---------------------------------------------------------------------------
# 2. two-line contraction rate


def test_criterion_2_two_line_rate():
    worst = 0.0
    for phi in (math.pi / 6, math.pi / 4, math.pi / 3):
        A = OrthoSubspace(np.array([[1.0, 0.0]]))
        B = OrthoSubspace(np.array([[math.cos(phi), math.sin(phi)]]))
        trace = run_classical(A, B, RunConfig(start=np.array([1.0, 0.0]), max_iter=50))
        norms = [r.norm_a for r in trace.records]
        target = math.cos(phi) ** 2
        for a, b in zip(norms, norms[1:]):
            worst = max(worst, abs(b / a - target))
    report(2, worst <= 1e-9,
           f"per-cycle contraction within {worst:.2e} of cos^2(phi) (<=1e-9)")


# ---------------------------------------------------------------------------
# 3. oscillating squares: certified non-Cauchy run


def test_criterion_3_oscillation_non_cauchy():
    trace = run_example_unstable(6, max_block_len=10_000, start=(0.0, 0.0))
    blocks = trace.blocks
    lengths = [bl.end_n - bl.start_n + 1 for bl in blocks]
    recs = {r.n: r for r in trace.records}
    right, left = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    right_visits = sum(1 for bl in blocks
                       if np.linalg.norm(recs[bl.end_n].a - right) < 0.5)
    left_visits = sum(1 for bl in blocks
                      if np.linalg.norm(recs[bl.end_n].a - left) < 0.5)
    ends = [recs[bl.end_n].a for bl in blocks]
    max_gap = max(np.linalg.norm(e1 - e2) for e1 in ends for e2 in ends)
    ok = (len(blocks) == 6 and all(l <= 10_000 for l in lengths)
          and all(bl.advance == "predicate" for bl in blocks)
          and right_visits >= 3 and left_visits >= 3 and max_gap >= 1.0)
    report(3, ok,
           f"6 blocks (lengths {lengths}), visits R/L = {right_visits}/{left_visits}"
           f" (each >=3), iterate gap {max_gap:.3f} (>=1): non-Cauchy certified")


# ---------------------------------------------------------------------------
# 4. escaping lines: unbounded block-end norms


def test_criterion_4_unbounded_thresholds():
    trace = run_example_unbounded_lines(6, max_block_len=10_000, start=(0.0, 0.0))
    recs = {r.n: r for r in trace.records}
    end_norms = [recs[bl.end_n].norm_a for bl in trace.blocks]
    ok = all(nrm > k / 2.0 for k, nrm in enumerate(end_norms, start=1))
    report(4, ok,
           "block-end norms " + str([round(v, 4) for v in end_norms])
           + " strictly exceed k/2 for k = 1..6")


# ---------------------------------------------------------------------------
# 5. product-space growth construction


@pytest.fixture(scope="module")
def desk_ell2():
    return build_ell2_construction(8, 4, ratio=0.5)


def _certificate_checks(c, n_samples, seed):
    rows = ell2_aw_certificate(c, [1, 2, 4])
    by_n = {}
    for h, N, bound in rows:
        by_n.setdefault(N, []).append((h, bound))
    decreasing = all(
        all(b1 > b2 for (_, b1), (_, b2) in zip(sorted(items), sorted(items)[1:]))
        for items in by_n.values())
    B = ell2_limit_graph(c)
    bound_of = {(h, N): b for h, N, b in rows}
    sampled_ok = True
    for blk in c.blocks:
        Ch = DiagonalAffineGraph(blk.theta, blk.b)
        sampled = aw_distance(Ch, B, 2, mode="sampled",
                              n_samples=n_samples, rng_seed=seed + blk.h).h_N
        sampled_ok &= sampled <= bound_of[(blk.h, 2)] + 1e-6
    return decreasing, sampled_ok


def test_criterion_5_growth_construction_half_ratio(desk_ell2):
    c = desk_ell2
    cond_rows = c.verify_conditions()
    conds_ok = all(ok for _, ok, _ in cond_rows)
    mult_ok = all((1 + blk.M) ** 2 > 2.0 ** blk.h / (2.0 ** (blk.h - 1) + blk.h - 1)
                  for blk in c.blocks)

    cps = ell2_checkpoints(c, 100, rng_seed=11)
    bounds = [0] + c.block_boundaries()
    indices = [bounds[h - 1] + t for h, t in cps]
    trace = ell2_run(c, record_indices=indices)
    recs = {r.n: r for r in trace.records}
    worst_rel = max(ell2_relative_gap(recs[n].a[:c.d], c.closed_alphas(h, t))
                    for (h, t), n in zip(cps, indices))

    boundary_set = set(c.block_boundaries())
    end_sq = [recs[n].norm_a ** 2 for n in sorted(boundary_set)]
    growth_ok = all(sq > 2.0 ** h for h, sq in enumerate(end_sq, start=1))

    decreasing, sampled_ok = _certificate_checks(c, n_samples=600, seed=23)
    ok = (conds_ok and mult_ok and growth_ok and worst_rel <= 1e-8
          and decreasing and sampled_ok)
    report(5, ok,
           f"ratio 1/2 d=8 H=4: N_h={[b.N for b in c.blocks]}, conditions ok="
           f"{conds_ok}, multiplier bound ok={mult_ok}, engine block-end "
           f"||a||^2={[round(v, 4) for v in end_sq]} each > 2^h, 100-checkpoint "
           f"rel gap {worst_rel:.2e} (<=1e-8), certificate decreasing={decreasing}, "
           f"sampled h_N under bounds={sampled_ok}")


def test_criterion_5_growth_construction_quarter_ratio():
    try:
        c = build_ell2_construction(6, 3, ratio=0.25, max_block_n=10 ** 8)
    except BlockBudgetExceeded as exc:
        report(5, True,
               f"ratio 1/4 d=6 H=3 skipped: block {exc.h} needs more than 10^8 "
               f"steps ({exc.needed}); logged and skipped per the budget rule")
        return
    conds_ok = all(ok for _, ok, _ in c.verify_conditions())
    mult_ok = all((1 + blk.M) ** 2 > 2.0 ** blk.h / (2.0 ** (blk.h - 1) + blk.h - 1)
                  for blk in c.blocks)
    growth_ok = all(float(np.sum(blk.end_alphas ** 2)) > 2.0 ** blk.h
                    for blk in c.blocks)
    # full engine replay of ~5*10^7 steps is out of budget; the engine
    # recursion is spot-checked on 64-step windows warm-started from the
    # closed forms at 100 random checkpoints instead
    worst_rel = ell2_verify_engine(c, ell2_checkpoints(c, 100, rng_seed=29),
                                   window=64)
    decreasing, sampled_ok = _certificate_checks(c, n_samples=400, seed=31)
    ok = (conds_ok and mult_ok and growth_ok and worst_rel <= 1e-8
          and decreasing and sampled_ok)
    report(5, ok,
           f"ratio 1/4 d=6 H=3: N_h={[b.N for b in c.blocks]} (budget 10^8 admits), "
           f"conditions ok={conds_ok}, block-end sums > 2^h: {growth_ok}, windowed "
           f"engine rel gap {worst_rel:.2e} (<=1e-8), certificate ok="
           f"{decreasing and sampled_ok}")


# ---------------------------------------------------------------------------
# 6. stability positives


def test_criterion_6a_exposed_tangency():
    scen = stable_scenario("tangent_disc")  # delta_n = 1/n
    worst = 0.0
    for start in ([3.0, -2.0], [-2.0, 7.0], [0.5, -4.0]):
        trace = scen.run(start=start, max_iter=100_000, record_stride=10_000)
        worst = max(worst, trace.final.dist_target)
    report("6a", worst <= 1e-3,
           f"3 starts, 10^5 steps, delta_n = 1/n: dist to touching point "
           f"{worst:.2e} (<1e-3)")


@pytest.fixture(scope="module")
def overlap_trace():
    scen = stable_scenario("overlapping_balls")
    return scen, scen.run(max_iter=5000, record_stride=1)


def test_criterion_6b_interior_intersection(overlap_trace):
    scen, trace = overlap_trace
    # telescoping bound: with eps*B inside every pair and iterates in K*B,
    # sum ||a_n - b_n|| + ||b_n - a_{n-1}|| <= (K/eps)(||a_0|| - ||a_N||)
    prev = scen.default_start
    path_sum = 0.0
    for r in trace.records:
        path_sum += float(np.linalg.norm(r.a - r.b)) + float(np.linalg.norm(r.b - prev))
        prev = r.a
    K = max(max(r.norm_a, r.norm_b) for r in trace.records)
    K = max(K, float(np.linalg.norm(scen.default_start)))
    mu = K / 1.0  # unit ball sits inside every perturbed pair
    bound = mu * (float(np.linalg.norm(scen.default_start)) - trace.final.norm_a)
    ok = path_sum <= bound + 1e-9 and trace.final.res_a < 1e-6
    report("6b", ok,
           f"path sum {path_sum:.4f} <= telescoped bound {bound:.4f}, final "
           f"residual {trace.final.res_a:.2e} (<1e-6)")


def test_criterion_6c_transversal_planes():
    scen = stable_scenario("transversal_planes", delta_law="inv_n_sq")
    trace = scen.run(max_iter=3000, record_stride=100)
    report("6c", trace.final.norm_a < 1e-6,
           f"transversal planes in R^4: ||a_n|| = {trace.final.norm_a:.2e} (<1e-6)")


# ---------------------------------------------------------------------------
# 7. standalone fact suite + Fejer monotonicity


def test_criterion_7_fact_suite(overlap_trace):
    worst_norms = check_fact_norms(Ball(np.zeros(2), 1.0), 1.0, 2.0,
                                   n_trials=3000, rng_seed=41)
    for seed in range(7):
        poly = polygon_containing_ball(np.random.default_rng(seed))
        worst_norms = max(worst_norms,
                          check_fact_norms(poly, 0.3, 5.0, n_trials=1000,
                                           rng_seed=seed))
    worst_cos = check_cos_separation(math.pi / 6, math.pi / 3,
                                     n_trials=100_000, rng_seed=43)

    # Fejer chains on runs whose sets all contain 0
    def fejer_violation(trace, start):
        prev = float(np.linalg.norm(start))
        worst = -np.inf
        for r in trace.records:
            worst = max(worst, r.norm_b - prev, r.norm_a - r.norm_b)
            prev = r.norm_a
        return worst

    scen, trace = overlap_trace
    v1 = fejer_violation(trace, scen.default_start)
    scen2 = stable_scenario("orthant_bounds")
    tr2 = scen2.run(max_iter=400, record_stride=1)
    v2 = fejer_violation(tr2, scen2.default_start)
    A = Ball(np.array([0.5, 0.0]), 1.0)
    B = Ball(np.array([0.0, 0.4]), 1.0)
    start = np.array([4.0, -3.0])
    tr3 = run_classical(A, B, RunConfig(start=start, max_iter=60))
    v3 = fejer_violation(tr3, start)
    fejer_worst = max(v1, v2, v3)

    ok = worst_norms <= 1e-9 and worst_cos <= 1e-9 and fejer_worst <= 1e-12
    report(7, ok,
           f"norm-gap bound violation {worst_norms:.2e} (<=1e-9, 10^4 trials), "
           f"cone-cosine violation {worst_cos:.2e} (<=1e-9, 10^5 trials), "
           f"Fejer violation {fejer_worst:.2e}")


# ---------------------------------------------------------------------------
# 8. variational probes


def test_criterion_8_probes():
    alphas = [0.2, 0.1, 0.05, 0.025]
    disc = Ball(np.array([0.0, 1.0]), 1.0)
    f_up = np.array([0.0, 1.0])
    disc_ratios = [epsilon_alpha(disc, f_up, f_up, a, n_boundary=1500,
                                 rng_seed=47) / a for a in alphas]
    disc_decreasing = all(r1 > r2 for r1, r2 in zip(disc_ratios, disc_ratios[1:]))

    flat = strongly_exposes_probe(
        Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, 0)]),
        np.array([0.0, -1.0]), alphas, n_samples=600, rng_seed=53)
    flat_ok = all(r >= 0.4 for r in flat.ratios)

    disc_probe = strongly_exposes_probe(disc, np.array([0.0, -1.0]), alphas,
                                        n_samples=600, rng_seed=59)
    diam_ok = all(d <= 2.0 * math.sqrt(2.0 * a) + 0.05
                  for a, d in zip(alphas, disc_probe.slice_diams))

    rng = np.random.default_rng(61)
    omega_gap = 0.0
    for d, k in ((4, 2), (6, 2), (8, 3)):
        qu, _ = np.linalg.qr(rng.standard_normal((d, k)))
        qv, _ = np.linalg.qr(rng.standard_normal((d, k)))
        rep = omega_angle(qu.T, qv.T)
        brute = omega_bruteforce(qu.T, qv.T, n_samples=120_000,
                                 rng=np.random.default_rng(d))
        omega_gap = max(omega_gap, abs(rep.omega - brute))

    # membership in the subspace neighborhood vs definition-based search
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    U = q.T
    mismatches = skipped = 0
    for _ in range(200):
        w = rng.standard_normal(5) * rng.uniform(0.2, 3.0)
        eps = rng.uniform(0.05, 0.8)
        nw = float(np.linalg.norm(w))
        closed = wset_contains(w, U, eps)
        coeffs = rng.standard_normal((1000, 2))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        us = nw * (coeffs @ U)
        found = nw <= eps or bool(
            np.any(np.sum((us - w) ** 2, axis=1) <= 2 * eps * nw ** 2))
        best_cos = float(np.linalg.norm(U @ w)) / nw
        if abs(best_cos - (1 - eps)) < 5e-3 or abs(nw - eps) < 1e-3:
            skipped += 1  # inside the search's resolution band
            continue
        mismatches += int(found != closed)

    ok = (disc_decreasing and flat_ok and diam_ok and omega_gap <= 1e-6
          and mismatches == 0)
    report(8, ok,
           f"disc shift ratios {[round(r, 4) for r in disc_ratios]} strictly "
           f"decreasing; flat-edge ratios >= 0.4: {flat_ok}; slice diameters "
           f"under 2*sqrt(2a)+0.05: {diam_ok}; angle vs search gap "
           f"{omega_gap:.2e} (<=1e-6); neighborhood membership mismatches "
           f"{mismatches} (skipped {skipped} boundary cases)")


# ---------------------------------------------------------------------------
# 9. determinism of the CLI output


def test_criterion_9_determinism(tmp_path):
    cfg = {"kind": "example44", "seed": 13, "record_stride": 1,
           "params": {"n_blocks": 6}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(path), "--out",
                     str(tmp_path / "r1"), "--quiet"]) == 0
    assert cli_main(["run", "--config", str(path), "--out",
                     str(tmp_path / "r2"), "--quiet"]) == 0
    b1 = (tmp_path / "r1" / "trace.csv").read_bytes()
    b2 = (tmp_path / "r2" / "trace.csv").read_bytes()
    report(9, b1 == b2,
           f"identical config + seed give byte-identical CSV ({len(b1)} bytes)")

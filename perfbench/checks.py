"""Output checks: one function per op type, each reading what the op wrote.

Every check returns a list of problems (empty when the op's output is
right).  The thresholds are those of the acceptance gate in
``tests/test_acceptance.py`` where one applies; the probe checks compare
against closed forms computed here, not by altproj.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from audit import polygon_halfplanes, project_polyhedron


def _records(out_dir):
    return json.loads((out_dir / "trace.json").read_text())["records"]


def _csv_rows(out_dir):
    lines = [l for l in (out_dir / "trace.csv").read_text().splitlines()
             if not l.startswith("#")]
    return list(csv.DictReader(lines))


def check_growth(cfg, out_dir):
    report = json.loads((out_dir / "report.json").read_text())
    blocks = json.loads((out_dir / "construction.json").read_text())["blocks"]
    ends = report["block_end_norm_sq"]
    problems = []
    if not report["engine_run"] or len(ends) != len(blocks):
        return [f"engine ran={report['engine_run']}, {len(ends)} block ends for "
                f"{len(blocks)} blocks"]
    for blk, sq in zip(blocks, ends):
        h = blk["h"]
        closed = math.fsum(v * v for v in blk["end_alphas"])
        if not 2.0 ** h < sq < 2.0 ** h + h:
            problems.append(f"block {h}: end ||a||^2 = {sq!r} outside (2^h, 2^h+h)")
        if abs(sq - closed) > 1e-8 * closed:
            problems.append(f"block {h}: engine {sq!r} vs closed form {closed!r}")
    return problems


def check_scenario_6a(cfg, out_dir):
    dist = float(_csv_rows(out_dir)[-1]["dist_target"])
    return [] if dist <= 1e-3 else [f"dist to touching point {dist!r} > 1e-3"]


def check_scenario_6b(cfg, out_dir):
    recs = _records(out_dir)
    start = np.asarray(cfg["params"]["start"])
    prev, path_sum = start, 0.0
    for r in recs:
        a, b = np.asarray(r["a"]), np.asarray(r["b"])
        path_sum += float(np.linalg.norm(a - b)) + float(np.linalg.norm(b - prev))
        prev = a
    K = max(max(r["norm_a"], r["norm_b"]) for r in recs)
    K = max(K, float(np.linalg.norm(start)))
    bound = K * (float(np.linalg.norm(start)) - recs[-1]["norm_a"])  # unit ball inside
    problems = []
    if path_sum > bound + 1e-9:
        problems.append(f"path sum {path_sum!r} > telescoped bound {bound!r}")
    if recs[-1]["res_a"] >= 1e-6:
        problems.append(f"final residual {recs[-1]['res_a']!r} >= 1e-6")
    return problems


def check_scenario_6c(cfg, out_dir):
    norm = float(_csv_rows(out_dir)[-1]["norm_a"])
    return [] if norm < 1e-6 else [f"||a_n|| = {norm!r} >= 1e-6"]


def check_fejer(cfg, out_dir):
    """Every set of these scenarios contains 0, so norms never grow."""
    prev = float(np.linalg.norm(cfg["params"]["start"]))
    worst = -math.inf
    for r in _records(out_dir):
        worst = max(worst, r["norm_b"] - prev, r["norm_a"] - r["norm_b"])
        prev = r["norm_a"]
    return [] if worst <= 1e-12 else [f"Fejer violation {worst!r} > 1e-12"]


def check_blocks(cfg, out_dir):
    recs = _records(out_dir)
    total = sum(b["len"] for b in cfg["params"]["blocks"])
    if [r["n"] for r in recs] != list(range(1, total + 1)):
        return [f"expected every step 1..{total} logged, got {len(recs)} records"]
    if not all(np.all(np.isfinite(r["a"] + r["b"])) for r in recs):
        return ["non-finite iterate"]
    return []


def _block_ends(out_dir):
    doc = json.loads((out_dir / "trace.json").read_text())
    recs = {r["n"]: r for r in doc["records"]}
    return doc["blocks"], [np.asarray(recs[bl["end_n"]]["a"]) for bl in doc["blocks"]]


def check_example44(cfg, out_dir):
    """Acceptance criterion 3: a certified non-Cauchy run."""
    blocks, ends = _block_ends(out_dir)
    right = sum(float(np.linalg.norm(e - [1.0, 0.0])) < 0.5 for e in ends)
    left = sum(float(np.linalg.norm(e - [-1.0, 0.0])) < 0.5 for e in ends)
    gap = max(float(np.linalg.norm(e1 - e2)) for e1 in ends for e2 in ends)
    lengths = [bl["end_n"] - bl["start_n"] + 1 for bl in blocks]
    ok = (len(blocks) == 6 and all(l <= 10_000 for l in lengths)
          and all(bl["advance"] == "predicate" for bl in blocks)
          and right >= 3 and left >= 3 and gap >= 1.0)
    return [] if ok else [f"blocks {lengths}, visits R/L {right}/{left}, gap {gap!r}"]


def check_example51(cfg, out_dir):
    """Acceptance criterion 4: block-end norms exceed k/2."""
    _, ends = _block_ends(out_dir)
    norms = [float(np.linalg.norm(e)) for e in ends]
    ok = len(norms) == 6 and all(n > k / 2.0 for k, n in enumerate(norms, start=1))
    return [] if ok else [f"block-end norms {norms}"]


def _square_pair(h):
    """The oscillation family's body A and its h-th perturbation C_h."""
    lift = 1.0 / ((h + 1) // 2)
    A = [(1.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (-1.0, 0.0)]
    C = [(1.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (-1.0, lift)] if h % 2 else \
        [(1.0, 1.0), (-1.0, 1.0), (1.0, lift), (-1.0, 0.0)]
    return np.array(A), np.array(C)


def _hausdorff_excess(P, Q):
    """sup over polygon P of dist(., Q): attained at a vertex of P."""
    normals, offsets = polygon_halfplanes(Q)
    return max(float(np.linalg.norm(v - project_polyhedron(normals, offsets, v)))
               for v in P)


def check_aw_bodies(cfg, out_dir):
    """Sampled excesses are lower bounds that reach 90% of the exact value."""
    p = cfg["params"]
    rows = json.loads((out_dir / "report.json").read_text())["result"]
    problems = [] if len(rows) == p["count"] else [f"{len(rows)} rows"]
    for row in rows:
        A, C = _square_pair(row["index"])
        for got, exact in ((row["e_A_to_C"], _hausdorff_excess(C, A)),
                           (row["e_C_to_A"], _hausdorff_excess(A, C))):
            if not (0.9 * exact - 1e-12 <= got <= exact + 1e-9):
                problems.append(f"row {row['index']}: excess {got!r}, exact {exact!r}")
        if row["mode"] != "sampled" or row["n_samples"] != p["n_samples"]:
            problems.append(f"row {row['index']}: mode {row['mode']}, n {row['n_samples']}")
    return problems


def _line_excesses(k, N):
    """Exact excesses between the line through (0, 1/k), (k, 0) and the x-axis."""
    q = np.array([0.0, 1.0 / k])
    v = np.array([float(k), -1.0 / k])
    v /= np.linalg.norm(v)
    # chord of the line inside the N-ball: |q + t v| = N
    qv, qq = float(q @ v), float(q @ q)
    disc = math.sqrt(qv * qv - qq + N * N)
    chord = [q + t * v for t in (-qv - disc, -qv + disc)]
    line_to_axis = max(abs(float(x[1])) for x in chord)
    normal = np.array([-v[1], v[0]])
    axis_to_line = max(abs(float(normal @ (np.array([s * N, 0.0]) - q))) for s in (-1, 1))
    return line_to_axis, axis_to_line


def check_aw_lines(cfg, out_dir):
    p = cfg["params"]
    rows = json.loads((out_dir / "report.json").read_text())["result"]
    problems = [] if len(rows) == p["count"] else [f"{len(rows)} rows"]
    for row in rows:
        e1, e2 = _line_excesses(row["index"], p["N"])
        if abs(row["e_A_to_C"] - e1) > 1e-9 or abs(row["e_C_to_A"] - e2) > 1e-9:
            problems.append(f"line {row['index']}: ({row['e_A_to_C']!r}, "
                            f"{row['e_C_to_A']!r}) vs exact ({e1!r}, {e2!r})")
    return problems


def check_exposure_disc(cfg, out_dir):
    """Acceptance criterion 8 for the disc, plus the exact minimal shift."""
    res = json.loads((out_dir / "report.json").read_text())["result"]
    problems = []
    if not all(r1 > r2 for r1, r2 in zip(res["ratios"], res["ratios"][1:])):
        problems.append(f"ratios not strictly decreasing: {res['ratios']}")
    for a, d, eps in zip(res["alphas"], res["slice_diams"], res["eps_of_alpha"]):
        if d > 2.0 * math.sqrt(2.0 * a) + 0.05:
            problems.append(f"slice diameter {d!r} at alpha {a}")
        if eps > 1.0 / math.sqrt(1.0 - a * a) - 1.0 + 1e-9:
            problems.append(f"shift {eps!r} above the exact value at alpha {a}")
    return problems


def check_exposure_flat(cfg, out_dir):
    """A flat face: ratios stay >= 0.4 and every slice holds the whole edge."""
    res = json.loads((out_dir / "report.json").read_text())["result"]
    problems = []
    if not all(r >= 0.4 for r in res["ratios"]):
        problems.append(f"ratios {res['ratios']} not all >= 0.4")
    if not all(d >= 2.0 - 1e-9 for d in res["slice_diams"]):
        problems.append(f"slice diameters {res['slice_diams']} shorter than the edge")
    return problems


def check_omega(cfg, out_dir):
    p = cfg["params"]
    omega = json.loads((out_dir / "report.json").read_text())["result"]["omega"]
    G = np.asarray(p["U"]) @ np.asarray(p["V"]).T
    exact = math.sqrt(max(0.0, float(np.linalg.eigvalsh(G @ G.T)[-1])))
    return [] if abs(omega - exact) <= 1e-9 else [f"omega {omega!r} vs {exact!r}"]


CHECKS = {
    "growth": check_growth,
    "scenario_6a": check_scenario_6a,
    "scenario_6b": check_scenario_6b,
    "scenario_6c": check_scenario_6c,
    "fejer": check_fejer,
    "blocks": check_blocks,
    "example44": check_example44,
    "example51": check_example51,
    "aw_bodies": check_aw_bodies,
    "aw_lines": check_aw_lines,
    "exposure_disc": check_exposure_disc,
    "exposure_flat": check_exposure_flat,
    "omega": check_omega,
}


def check_output(op, out_dir) -> list:
    try:
        return CHECKS[op.check](op.config, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]

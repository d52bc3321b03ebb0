"""Projection audit: re-check every logged projection against an oracle.

For each full-rate ``trace.json`` the run wrote, step n claims
``b_n = P_{B_n}(a_{n-1})`` and ``a_n = P_{A_n}(b_n)``.  The audit rebuilds
(A_n, B_n) for every step, serialises them with ``set_to_dict`` and
projects with code that shares nothing with ``altproj.sets``: face
enumeration for polyhedra, orthants, halfspaces and polygons (as in
``tests/_oracles.py``), least squares for flats and graphs, and the
radial formula for balls.  It runs after the timed region.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

import numpy as np

TOL = 1e-8          # a projection off by more than TOL * max(1, ||x||) is a mismatch
FEAS_TOL = 1e-9     # feasibility slack of the face-enumeration candidates


@lru_cache(maxsize=None)
def _faces(m: int, r: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(m), r)), dtype=int)


def project_polyhedron(A, b, x) -> np.ndarray:
    """Nearest point of {y : A y <= b} by enumerating active sets (d <= 4)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.linalg.norm(A, axis=1)
    A, b = A / scale[:, None], b / scale
    if np.all(A @ x <= b + FEAS_TOL):
        return x.copy()
    m, d = A.shape
    best, best_dist = None, np.inf
    for r in range(1, min(m, d) + 1):
        idx = _faces(m, r)
        S = A[idx]                                  # (K, r, d)
        G = S @ S.transpose(0, 2, 1)                # (K, r, r)
        ok = np.abs(np.linalg.det(G)) > 1e-12
        if not np.any(ok):
            continue
        S, G, idx = S[ok], G[ok], idx[ok]
        rhs = S @ x - b[idx]                        # (K, r)
        lam = np.linalg.solve(G, rhs[..., None])[..., 0]
        cand = x - np.einsum("krd,kr->kd", S, lam)
        feasible = np.all(cand @ A.T <= b + FEAS_TOL, axis=1)
        if not np.any(feasible):
            continue
        cand = cand[feasible]
        dist = np.linalg.norm(cand - x, axis=1)
        i = int(np.argmin(dist))
        if dist[i] < best_dist:
            best, best_dist = cand[i], dist[i]
    if best is None:
        raise ValueError("no feasible face candidate: polyhedron empty?")
    return best


def polygon_halfplanes(vertices):
    """(normals, offsets) of the convex hull of the vertices, outward normals."""
    from scipy.spatial import ConvexHull
    hull = ConvexHull(np.asarray(vertices, dtype=float))
    eq = hull.equations                             # n . x + c <= 0 inside
    return eq[:, :2], -eq[:, 2]


def project_flat(anchor, directions, x) -> np.ndarray:
    """Nearest point of anchor + span(columns of directions), by least squares."""
    coef, *_ = np.linalg.lstsq(directions, x - anchor, rcond=None)
    return anchor + directions @ coef


def oracle_project(desc: dict, x) -> np.ndarray:
    """Projection of x onto the set a ``set_to_dict`` descriptor names."""
    x = np.asarray(x, dtype=float)
    kind = desc["kind"]
    if kind == "halfspace":
        return project_polyhedron([desc["a"]], [desc["b"]], x)
    if kind == "polyhedron":
        return project_polyhedron(desc["normals"], desc["b"], x)
    if kind == "nonneg_orthant":
        return project_polyhedron(-np.eye(desc["d"]), np.zeros(desc["d"]), x)
    if kind == "polygon2d":
        return project_polyhedron(*polygon_halfplanes(desc["vertices"]), x)
    if kind == "hyperplane":
        a = np.asarray(desc["a"], dtype=float)
        # any point of the plane plus the null space of a
        anchor = a * desc["b"] / float(a @ a)
        null = np.linalg.svd(a[None, :])[2][1:].T
        return project_flat(anchor, null, x)
    if kind == "ortho_subspace":
        return project_flat(np.zeros(x.size), np.asarray(desc["basis"]).T, x)
    if kind == "affine_subspace":
        return project_flat(np.asarray(desc["anchor"]), np.asarray(desc["basis"]).T, x)
    if kind == "diagonal_affine_graph":
        theta = np.asarray(desc["theta"])
        h = theta.size
        anchor = np.concatenate([np.zeros(h), np.asarray(desc["offset"])])
        return project_flat(anchor, np.vstack([np.eye(h), np.diag(theta)]), x)
    if kind == "ball":
        c = np.asarray(desc["center"], dtype=float)
        v = x - c
        n = float(np.sqrt(v @ v))
        return x.copy() if n <= desc["radius"] else c + v * (desc["radius"] / n)
    raise ValueError(f"no oracle for set kind {kind!r}")


class Audit:
    """Counts of checked and mismatched projections, with the worst error."""

    def __init__(self):
        self.checked = 0
        self.mismatch = 0
        self.worst = 0.0

    def check(self, desc: dict, x, claimed) -> bool:
        x = np.asarray(x, dtype=float)
        err = float(np.linalg.norm(np.asarray(claimed) - oracle_project(desc, x)))
        self.checked += 1
        self.worst = max(self.worst, err)
        bad = err > TOL * max(1.0, float(np.linalg.norm(x)))
        self.mismatch += bad
        return not bad


def pair_function(config: dict):
    """block id -> (A, B) as altproj sets, for the run kinds that log every step."""
    from altproj import constructions as cons
    from altproj.sets import OrthoSubspace, set_from_dict

    kind, p = config["kind"], config["params"]
    if kind == "perturbed":
        blocks = [(set_from_dict(b["A"]), set_from_dict(b["B"])) for b in p["blocks"]]
        return lambda k: blocks[k - 1]
    if kind == "stable-scenario":
        scen = cons.stable_scenario(p["scenario"], delta_law=p.get("delta_law", "inv_n"),
                                    delta_scale=p.get("delta_scale", 1.0),
                                    **p.get("scenario_params", {}))
        return lambda k: (scen.a_family(k), scen.b_family(k))
    if kind == "example44":
        return lambda k: cons.example_unstable_bodies(k)[2:]
    if kind == "example51":
        axis = OrthoSubspace(np.array([[1.0, 0.0]]))
        return lambda k: (axis, cons.tilted_line(k))
    raise ValueError(f"cannot audit kind {kind!r}")


def start_point(config: dict):
    p = config["params"]
    if p.get("start") is not None:
        return np.asarray(p["start"], dtype=float)
    from altproj import constructions as cons
    return cons.stable_scenario(p["scenario"]).default_start


def audit_trace(config: dict, trace_path, audit: Audit) -> int:
    """Audit every consecutive step of one trace; returns the mismatches found."""
    from altproj.sets import set_to_dict

    doc = json.loads(trace_path.read_text())
    pair_of = pair_function(config)
    before = audit.mismatch
    prev_n, prev_a = 0, start_point(config)
    cache = {}
    for rec in doc["records"]:
        if rec["n"] == prev_n + 1:
            k = rec["block"]
            if k not in cache:      # scenarios change the pair every step
                cache.clear()
                cache[k] = tuple(set_to_dict(S) for S in pair_of(k))
            dA, dB = cache[k]
            audit.check(dB, prev_a, rec["b"])
            audit.check(dA, rec["b"], rec["a"])
        prev_n, prev_a = rec["n"], np.asarray(rec["a"], dtype=float)
    return audit.mismatch - before

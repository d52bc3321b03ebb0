"""Seeded workload generators: each workload is a list of ops, one config each.

An op is one ``altproj.cli.main`` call.  The program only ever sees the
config files written here; everything else (seeds, jitter, redraws) stays
on the benchmark side.  The same (workload, seed) pair always yields
byte-identical config files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("growth_half", "perturbed_mix", "probe_sweep")

# Run kinds whose throughput unit is the engine step; probe_sweep counts samples.
UNIT = {"growth_half": "steps", "perturbed_mix": "steps", "probe_sweep": "samples"}

GROWTH_CONFIGS = 1
RANDOM_BLOCK_CONFIGS = 64
BLOCKS_PER_CONFIG = 4
BLOCK_LEN = 12

KINDS_2D = ("halfspace", "hyperplane", "ball", "polygon2d", "ortho_subspace",
            "affine_subspace", "nonneg_orthant", "polyhedron", "diagonal_affine_graph")
KINDS_3D = ("halfspace", "hyperplane", "ball", "ortho_subspace", "affine_subspace",
            "nonneg_orthant", "polyhedron")

ALPHAS = [0.2, 0.1, 0.05, 0.025]
FLAT_SQUARE = [[1.0, 1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]]


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``altproj <command> --config <config>``."""

    name: str
    command: str      # "run" | "probe"
    check: str        # which output check applies (see checks.py)
    config: dict
    ticks: bool = False   # time the engine run in chunks between trace records

    def as_dict(self) -> dict:
        return {"name": self.name, "command": self.command, "check": self.check,
                "ticks": self.ticks}


def _floats(arr) -> list:
    return [float(v) for v in np.asarray(arr, dtype=float).ravel()]


def _matrix(arr) -> list:
    return [_floats(row) for row in np.asarray(arr, dtype=float)]


# ---------------------------------------------------------------------------
# growth_half


def _growth_ops(rng) -> list:
    from altproj.constructions import (InfeasibleParams, build_ell2_construction,
                                       default_start_alphas)
    base = default_start_alphas(8)
    ops = []
    while len(ops) < GROWTH_CONFIGS:
        start = base * (1.0 + rng.uniform(-0.05, 0.05, size=8))
        try:
            build_ell2_construction(8, 4, ratio=0.5, start=start)
        except InfeasibleParams:
            continue  # an invalid input, not a program failure: draw again
        ops.append(Op(f"ell2_{len(ops)}", "run", "growth", {
            "kind": "ell2", "seed": int(rng.integers(2 ** 31)),
            "output": {"trace_csv": "trace.csv", "construction_json": "construction.json",
                       "report_json": "report.json"},
            "params": {"d": 8, "H": 4, "ratio": 0.5, "slack": 0.5, "start": _floats(start)},
        }, ticks=True))
    return ops


# ---------------------------------------------------------------------------
# perturbed_mix


def _jitter(rng, v, rel) -> list:
    v = np.asarray(v, dtype=float)
    return _floats(v * (1.0 + rng.uniform(-rel, rel, size=v.size)))


def _scenario_ops(rng) -> list:
    full = {"trace_csv": "trace.csv", "trace_json": "trace.json"}
    # The orthant scenarios keep their default start: their per-step cost is
    # Dykstra's, which depends on the path, and a jittered start would move
    # it by a factor of two between seeds.
    specs = [
        # name, delta_law, default start, start jitter, max_iter, record_stride,
        # outputs, check
        ("tangent_disc", "inv_n", [3.0, -2.0], 0.2, 2000, 100,
         {"trace_csv": "trace.csv"}, "scenario_6a"),
        ("overlapping_balls", "inv_n", [4.0, 3.0], 0.2, 2000, 1, full, "scenario_6b"),
        ("transversal_planes", "inv_n_sq", [2.0, -1.0, 1.5, 0.5], 0.2, 2000, 1, full,
         "scenario_6c"),
        ("orthant_bounds", "inv_n", [2.0, 2.0, 2.0], 0.0, 500, 1, full, "fejer"),
        ("orthant_halfspace", "inv_n", [3.0, 3.0], 0.0, 500, 1, full, "fejer"),
        ("orthant_polar", "inv_n", [2.0, 2.0, 2.0], 0.0, 500, 1, full, "fejer"),
    ]
    ops = []
    for name, law, start, jitter, max_iter, stride, output, check in specs:
        ops.append(Op(f"scenario_{name}", "run", check, {
            "kind": "stable-scenario", "seed": int(rng.integers(2 ** 31)),
            "max_iter": max_iter, "record_stride": stride, "output": dict(output),
            "params": {"scenario": name, "delta_law": law,
                       "start": _jitter(rng, start, jitter)},
        }))
    return ops


def random_set(kind: str, d: int, rng) -> dict:
    """Set descriptor of one projectable kind in R^d, drawn from rng."""
    if kind in ("halfspace", "hyperplane"):
        return {"kind": kind, "a": _floats(rng.standard_normal(d)),
                "b": float(rng.uniform(-1.0, 1.0))}
    if kind == "ball":
        return {"kind": "ball", "center": _floats(rng.standard_normal(d) * 0.5),
                "radius": float(rng.uniform(0.3, 2.0))}
    if kind == "polygon2d":
        m = int(rng.integers(3, 9))
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=m))
        rad = rng.uniform(0.5, 2.0, size=m)
        pts = np.c_[rad * np.cos(ang), rad * np.sin(ang)] + rng.uniform(-1.0, 1.0, size=2)
        return {"kind": "polygon2d", "vertices": _matrix(pts)}
    if kind in ("ortho_subspace", "affine_subspace"):
        k = int(rng.integers(1, d))
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        desc = {"kind": kind, "basis": _matrix(q.T)}
        if kind == "affine_subspace":
            desc["anchor"] = _floats(rng.standard_normal(d) * 0.5)
        return desc
    if kind == "nonneg_orthant":
        return {"kind": "nonneg_orthant", "d": d}
    if kind == "polyhedron":
        # The distribution on which cyclic Dykstra is known to stop early.
        m = int(rng.integers(4, 12))
        center = rng.standard_normal(d) * 0.5
        A = rng.standard_normal((m, d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        b = A @ center + rng.uniform(0.3, 2.0, size=m)
        return {"kind": "polyhedron", "normals": _matrix(A), "b": _floats(b),
                "witness": _floats(center)}
    if kind == "diagonal_affine_graph":
        return {"kind": kind, "theta": _floats(rng.uniform(-2.0, 2.0, size=d // 2)),
                "offset": _floats(rng.uniform(-1.0, 1.0, size=d // 2))}
    raise ValueError(f"unknown kind {kind!r}")


def _block_ops(rng) -> list:
    ops = []
    for i in range(RANDOM_BLOCK_CONFIGS):
        d = 2 if i % 2 == 0 else 3
        kinds = KINDS_2D if d == 2 else KINDS_3D
        blocks = []
        for j in range(BLOCKS_PER_CONFIG):
            # every other block pits a random kind against a polyhedron; the
            # 2-d configs walk through all nine kinds across the workload
            a_kind = kinds[(i * BLOCKS_PER_CONFIG + j) % len(kinds)]
            b_kind = "polyhedron" if j % 2 == 0 else kinds[int(rng.integers(len(kinds)))]
            blocks.append({"A": random_set(a_kind, d, rng), "B": random_set(b_kind, d, rng),
                           "len": BLOCK_LEN})
        ops.append(Op(f"blocks_{i}", "run", "blocks", {
            "kind": "perturbed", "seed": int(rng.integers(2 ** 31)), "record_stride": 1,
            "output": {"trace_csv": "trace.csv", "trace_json": "trace.json"},
            "params": {"blocks": blocks, "start": _floats(rng.standard_normal(d) * 2.0)},
        }))
    return ops


def _counterexample_ops(rng) -> list:
    out = {"trace_csv": "trace.csv", "trace_json": "trace.json"}
    return [Op(f"{kind}", "run", kind, {
        "kind": kind, "seed": int(rng.integers(2 ** 31)), "record_stride": 1,
        "output": dict(out),
        "params": {"n_blocks": 6, "max_block_len": 10_000, "start": [0.0, 0.0]},
    }) for kind in ("example44", "example51")]


# ---------------------------------------------------------------------------
# probe_sweep


def _probe_ops(rng) -> list:
    def seed():
        return int(rng.integers(2 ** 20))

    # the sampled family as four short ops rather than one long one, so
    # that each op's time spans less of the machine's speed swings
    ops = [
        Op(f"aw_unstable_bodies_{i}", "probe", "aw_bodies", {
            "kind": "probe", "seed": seed(), "output": {"report_json": "report.json"},
            "params": {"probe": "aw", "family": "unstable_bodies", "count": 8, "N": 2,
                       "n_samples": 300}})
        for i in range(4)
    ] + [
        Op("aw_tilted_lines", "probe", "aw_lines", {
            "kind": "probe", "seed": seed(), "output": {"report_json": "report.json"},
            "params": {"probe": "aw", "family": "tilted_lines", "count": 8, "N": 2,
                       "n_samples": 1200}}),
        Op("exposure_disc", "probe", "exposure_disc", {
            "kind": "probe", "seed": seed(), "output": {"report_json": "report.json"},
            "params": {"probe": "exposure",
                       "set": {"kind": "ball", "center": [0.0, 1.0], "radius": 1.0},
                       "f": [0.0, -1.0], "alphas": ALPHAS, "n_samples": 600}}),
        Op("exposure_flat_square", "probe", "exposure_flat", {
            "kind": "probe", "seed": seed(), "output": {"report_json": "report.json"},
            "params": {"probe": "exposure",
                       "set": {"kind": "polygon2d", "vertices": FLAT_SQUARE},
                       "f": [0.0, -1.0], "alphas": ALPHAS, "n_samples": 600}}),
    ]
    for i, (d, k) in enumerate(((4, 2), (6, 2), (8, 3))):
        U, _ = np.linalg.qr(rng.standard_normal((d, k)))
        V, _ = np.linalg.qr(rng.standard_normal((d, k)))
        ops.append(Op(f"omega_{i}", "probe", "omega", {
            "kind": "probe", "seed": seed(), "output": {"report_json": "report.json"},
            "params": {"probe": "omega", "U": _matrix(U.T), "V": _matrix(V.T)}}))
    return ops


def generate(workload: str, seed: int) -> list:
    """The ops of one workload instance, drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "growth_half":
        return _growth_ops(rng)
    if workload == "perturbed_mix":
        return _scenario_ops(rng) + _counterexample_ops(rng) + _block_ops(rng)
    if workload == "probe_sweep":
        return _probe_ops(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def config_bytes(op: Op) -> bytes:
    return (json.dumps(op.config, sort_keys=True, indent=1) + "\n").encode()


def write_configs(ops, directory: Path) -> list:
    """Write one config file per op; returns the paths in op order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in ops:
        path = directory / f"{op.name}.json"
        path.write_bytes(config_bytes(op))
        paths.append(path)
    return paths

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from altproj import cli
from altproj.cli import ConfigError, load_config, main
import altproj.sets


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv_rows(path):
    lines = [l for l in path.read_text().strip().split("\n") if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_run_example44(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kind": "example44", "seed": 5, "record_stride": 1,
        "params": {"n_blocks": 6, "max_block_len": 10000, "start": [0.0, 0.0]},
    })
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    header, rows = read_csv_rows(tmp_path / "out" / "trace.csv")
    assert header == ["n", "block", "res_a", "norm_a", "norm_b", "gap_ab", "dist_target"]
    assert len({r["block"] for r in rows}) >= 6
    out = capsys.readouterr().out
    assert "blocks_completed=6" in out


def test_run_example51(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "example51", "seed": 0, "record_stride": 1,
        "params": {"n_blocks": 4},
    })
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    _, rows = read_csv_rows(tmp_path / "out" / "trace.csv")
    assert float(rows[-1]["norm_a"]) > 2.0


def test_run_classical_from_set_descriptors(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "classical", "seed": 0, "max_iter": 30,
        "params": {
            "A": {"kind": "ortho_subspace", "basis": [[1.0, 0.0]]},
            "B": {"kind": "ortho_subspace",
                  "basis": [[0.7071067811865476, 0.7071067811865476]]},
            "start": [1.0, 0.0],
            "target": [0.0, 0.0],
        },
    })
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    _, rows = read_csv_rows(tmp_path / "out" / "trace.csv")
    assert float(rows[-1]["norm_a"]) < 1e-8
    assert rows[-1]["dist_target"] != ""


def test_run_perturbed_blocks(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "perturbed", "seed": 0,
        "params": {
            "blocks": [
                {"A": {"kind": "ortho_subspace", "basis": [[1.0, 0.0]]},
                 "B": {"kind": "halfspace", "a": [0.0, 1.0], "b": 0.5},
                 "len": 3},
                {"A": {"kind": "ortho_subspace", "basis": [[1.0, 0.0]]},
                 "B": {"kind": "halfspace", "a": [0.0, 1.0], "b": 0.1},
                 "len": 2},
            ],
            "start": [2.0, 3.0],
        },
    })
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    _, rows = read_csv_rows(tmp_path / "out" / "trace.csv")
    assert rows[-1]["block"] == "2"


def test_run_stable_scenario(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "stable-scenario", "seed": 0, "max_iter": 2000,
        "record_stride": 100,
        "params": {"scenario": "transversal_planes", "delta_law": "inv_n_sq"},
    })
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    _, rows = read_csv_rows(tmp_path / "out" / "trace.csv")
    assert float(rows[-1]["norm_a"]) < 1e-4


def test_run_ell2_small(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kind": "ell2", "seed": 0,
        "params": {"d": 5, "H": 2, "ratio": 0.5},
    })
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "block 1:" in out and "block 2:" in out
    doc = json.loads((tmp_path / "out" / "construction.json").read_text())
    assert doc["d"] == 5 and len(doc["blocks"]) == 2


def test_run_ell2_budget_skips_engine(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kind": "ell2", "seed": 0,
        "params": {"d": 5, "H": 2, "ratio": 0.5, "engine_step_budget": 10},
    })
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "engine run skipped" in capsys.readouterr().out
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["engine_run"] is False
    assert all(sq > 2.0 ** (h + 1) for h, sq in enumerate(doc["block_end_norm_sq"]))


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_field_named_in_diagnostic(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "example44",
                                  "params": {"n_blocks": 4, "bogus": 1}})
    assert main(["run", "--config", str(cfg)]) == 1
    assert "bogus" in capsys.readouterr().err


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_budget_exhaustion_exits_two(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "example44", "seed": 0,
        "params": {"n_blocks": 4, "max_block_len": 1},
    })
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_seed_override_changes_header(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "example44", "seed": 5, "record_stride": 1,
        "params": {"n_blocks": 2},
    })
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--quiet"])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"),
          "--seed", "9", "--quiet"])
    a = (tmp_path / "a" / "trace.csv").read_text()
    b = (tmp_path / "b" / "trace.csv").read_text()
    assert "# seed=5" in a and "# seed=9" in b


def test_parser_built_once_and_overrides_do_not_carry_over(tmp_path, capsys):
    """One parser serves every call in a process; one call's overrides never
    reach the next, and a missing --config still exits 2 with the usage."""
    cfg = write_config(tmp_path, {
        "kind": "classical", "seed": 4, "max_iter": 7,
        "params": {"A": {"kind": "ortho_subspace", "basis": [[1.0, 0.0]]},
                   "B": {"kind": "ortho_subspace", "basis": [[0.6, 0.8]]},
                   "start": [1.0, 0.5]},
    })
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"),
                 "--seed", "9", "--max-iter", "3"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert "steps=3 " in first and "steps=7 " in second
    assert "# seed=9" in (tmp_path / "a" / "trace.csv").read_text()
    assert "# seed=4" in (tmp_path / "b" / "trace.csv").read_text()
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: altproj run ")
    assert "error: the following arguments are required: --config" in err


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "example44", "seed": 3, "record_stride": 1,
        "params": {"n_blocks": 5},
    })
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "r1"), "--quiet"])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "r2"), "--quiet"])
    b1 = (tmp_path / "r1" / "trace.csv").read_bytes()
    b2 = (tmp_path / "r2" / "trace.csv").read_bytes()
    assert b1 == b2


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED_RUNS = sorted(p.stem for p in CONFIGS.glob("*.json")
                      if json.loads(p.read_text())["kind"] != "probe")


@pytest.mark.parametrize("name", SHIPPED_RUNS)
def test_rerun_into_a_used_out_is_byte_identical(tmp_path, name):
    """Each shipped run config, rerun into its used --out whose files have
    grown a stale tail, leaves the bytes of its fresh run."""
    config = CONFIGS / f"{name}.json"
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    fresh = {p.name: p.read_bytes() for p in out.iterdir()}
    for p in out.iterdir():
        with open(p, "a") as fh:
            fh.write("\nstale tail\n" * 4)
    assert main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == fresh


def test_ell2_outputs_rewritten_shorter_equal_a_fresh_run(tmp_path):
    """construction.json and report.json of a smaller ell2 run, written over
    a larger one's, equal those of a fresh directory."""
    big = write_config(tmp_path, {"kind": "ell2", "params": {"d": 5, "H": 3}}, "big.json")
    small = write_config(tmp_path, {"kind": "ell2", "params": {"d": 5, "H": 2}}, "small.json")
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    for cfg, out in ((big, used), (small, used), (small, fresh)):
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    files = {p.name: p.read_bytes() for p in fresh.iterdir()}
    assert {"construction.json", "report.json"} <= files.keys()
    assert {p.name: p.read_bytes() for p in used.iterdir()} == files


def test_probe_omega(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "probe", "seed": 1,
        "params": {"probe": "omega",
                   "U": [[1.0, 0.0, 0.0]], "V": [[0.0, 1.0, 0.0]]},
    })
    assert main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["result"]["omega"] == pytest.approx(0.0, abs=1e-12)
    assert "principal_cosines" in doc["result"]


def test_probe_exposure_disc(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "probe", "seed": 2,
        "params": {"probe": "exposure",
                   "set": {"kind": "ball", "center": [0.0, 1.0], "radius": 1.0},
                   "f": [0.0, -1.0], "alphas": [0.2, 0.1, 0.05],
                   "n_samples": 200},
    })
    assert main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    ratios = doc["result"]["ratios"]
    assert ratios == sorted(ratios, reverse=True)


def test_probe_aw_family(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "probe", "seed": 0,
        "params": {"probe": "aw", "family": "unstable_bodies", "count": 5,
                   "N": 2, "n_samples": 500},
    })
    assert main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    hs = [row["h_N"] for row in doc["result"]]
    # within each parity class the distances shrink
    assert hs[2] < hs[0] + 1e-9 and hs[4] < hs[2] + 1e-9
    assert hs[3] < hs[1] + 1e-9


def test_probe_separation(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "probe", "seed": 0,
        "params": {"probe": "separation", "M": 0.5, "omega": 0.3},
    })
    assert main(["probe", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert 0 < doc["result"]["eps"] < 0.5
    assert doc["result"]["eta"] == pytest.approx(0.65, abs=1e-12)


def test_validate_example44(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "example44",
                                  "params": {"n_blocks": 4}})
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "validated" in out


def test_validate_ell2_prints_inequalities(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "ell2",
                                  "params": {"d": 5, "H": 2, "ratio": 0.5}})
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "growth window" in out
    assert "block lengths" in out


def test_validate_infeasible_scenario_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "kind": "stable-scenario",
        "params": {"scenario": "orthant_polar",
                   "scenario_params": {"d": 2, "a": [1.0, -1.0]}},
    })
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "error" in capsys.readouterr().err


def test_load_config_rejects_bad_kind(tmp_path):
    cfg = write_config(tmp_path, {"kind": "nope", "params": {}})
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_load_config_rejects_unknown_root_key(tmp_path):
    cfg = write_config(tmp_path, {"kind": "example44", "params": {"n_blocks": 2},
                                  "extra": 1})
    with pytest.raises(ConfigError):
        load_config(cfg)


BALL = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}


def _classical(A, B=BALL, start=(1.0, 1.0)):
    return {"kind": "classical", "params": {"A": A, "B": B, "start": list(start)}}


def _exposure(f, alphas, S=BALL):
    return {"kind": "probe", "params": {"probe": "exposure", "set": S, "f": f, "alphas": alphas}}


@pytest.mark.parametrize("command, doc, field", [
    ("probe", {"kind": "probe", "params": {"probe": "aw", "family": "bogus"}},
     "params.family"),
    ("probe", {"kind": "probe", "params": {"probe": "exposure", "f": [0.0, 1.0],
                                           "alphas": [0.1]}}, "params.set"),
    ("probe", {"kind": "probe", "params": {"probe": "omega", "U": [[1.0, 0.0]]}},
     "params.V"),
    ("run", {"kind": "ell2", "params": {"d": 5}}, "params.H"),
    ("run", {"kind": "example44", "params": {}}, "params.n_blocks"),
    ("run", {"kind": "stable-scenario",
             "params": {"scenario": "tangent_disc", "target_tol": 1e-3}}, "target_tol"),
    ("run", {"kind": "stable-scenario",
             "params": {"scenario": "tangent_disc", "scenario_params": {"kappa": 1}}},
     "kappa"),
    ("run", _classical({**BALL, "bogus": 3}), "bogus"),
    ("run", _classical({"kind": "ball", "center": [0.0, 0.0]}), "missing field(s) ['radius']"),
    ("run", _classical({**BALL, "center": [0.0, 0.0, 0.0]}), "params.B"),
    ("run", _classical({"kind": "shifted_convex_cone", "riesz": [0.0, 1.0], "alpha": 0.5,
                        "shift": 0.0, "direction": [0.0, 1.0], "cone_kind": "C"}),
     "unknown set kind tag"),
    ("run", {"kind": "stable-scenario",
             "params": {"scenario": "overlapping_balls", "delta_scale": -10}},
     "params.delta_scale"),
    ("run", {"kind": "stable-scenario",
             "params": {"scenario": "orthant_bounds", "delta_scale": -10}},
     "params.delta_scale"),
    ("probe", _exposure([0.0, 0.0], [0.1]), "params.f"),
    ("probe", _exposure([0.0, 1.0], [0.1, 0.2]), "params.alphas"),
    ("probe", _exposure([0.0, 1.0], [1.5, 0.1]), "params.alphas[0]"),
    ("probe", _exposure([1.0, 1.0], [0.1], {"kind": "halfspace", "a": [0.0, 1.0], "b": 0.0}),
     "params.f"),
    ("probe", {"kind": "probe", "params": {"probe": "omega", "U": [[1.0, 0.0, 0.0]],
                                           "V": [[0.0, 1.0, 0.0, 0.0]]}}, "params.V[0]"),
    ("probe", {"kind": "probe", "params": {"probe": "omega", "U": [[1.0, 0.0], [0.0]],
                                           "V": [[0.0, 1.0]]}}, "params.U[1]"),
])
def test_run_and_validate_reject_the_same_configs(tmp_path, capsys, command, doc, field):
    cfg = write_config(tmp_path, doc)
    for cmd in (command, "validate"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert field in capsys.readouterr().err
    assert not (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("f, message", [
    ([0.0, 0.0], "support direction must be nonzero"),
    ([1e-200, 0.0], "support direction is nonzero but its norm underflows to 0"),
    ([1e-150, 0.0], None),
])
def test_exposure_direction_checked_for_underflow(tmp_path, capsys, f, message):
    """A zero f and a nonzero f whose norm underflows are rejected, each with
    its own message naming params.f; f = [1e-150, 0] probes."""
    doc = _exposure(f, [0.1])
    doc["params"]["n_samples"] = 20
    cfg = write_config(tmp_path, doc)
    for cmd in ("probe", "validate"):
        code = main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
        err = capsys.readouterr().err
        if message is None:
            assert (code, err) == (0, "")
        else:
            assert code == 1 and f"config field 'params.f': {message}" in err


def test_huge_normal_run_leaves_stderr_empty(tmp_path):
    """A normal whose plain norm overflows is valid, and the run prints no
    numpy warning."""
    cfg = write_config(tmp_path, _classical({"kind": "halfspace", "a": [1e200, 0.0], "b": 0.0}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "altproj", "run", "--config", str(cfg),
                           "--out", str(tmp_path / "o"), "--quiet"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("scenario, cause", [("overlapping_balls", "radius must be positive"),
                                             ("orthant_bounds", "witness point is not feasible")])
def test_unbuildable_step_one_fails_before_any_output(tmp_path, capsys, scenario, cause):
    """A delta_scale that breaks step 1 fails at build time, naming field and cause."""
    cfg = write_config(tmp_path, {"kind": "stable-scenario",
                                  "params": {"scenario": scenario, "delta_scale": -10}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "'params.delta_scale'" in err and cause in err
    assert not (tmp_path / "o").exists()


def test_negative_delta_scale_runs_and_validates(tmp_path, capsys):
    """A negative delta_scale that step 1 survives passes both run and validate."""
    cfg = write_config(tmp_path, {"kind": "stable-scenario", "max_iter": 200,
                                  "params": {"scenario": "tangent_disc", "delta_scale": -0.5}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert main(["validate", "--config", str(cfg)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_infinite_json_number_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"kind": "classical", "params": {"A": {"kind": "halfspace", '
                    '"a": [1.0, 0.0], "b": 1e400}, "B": {"kind": "ball", '
                    '"center": [0.0, 0.0], "radius": 1.0}, "start": [1.0, 1.0]}}')
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "b must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, message", [
    ("run", _classical({"kind": "halfspace", "a": [1.0], "b": 0.0},
                       {"kind": "halfspace", "a": [1.0], "b": -1e308}, (1e308,)),
     "projection failed at step 1"),
    ("probe", {"kind": "probe", "params": {
        "probe": "aw", "n_samples": 100, "A": {"kind": "halfspace", "a": [0.0, 1.0], "b": 0.0},
        "C": {"kind": "ball", "center": [50.0, 0.0], "radius": 1.0}}},
     "does not meet the N-ball"),
    ("run", {"kind": "ell2", "params": {"d": 5, "H": 2, "max_block_n": 1}},
     "needs more than 1 steps"),
], ids=["ProjectionStepError", "SamplerFailure", "BlockBudgetExceeded"])
def test_runtime_errors_exit_one_with_message(tmp_path, capsys, command, doc, message):
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


def test_projection_certificate_failure_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(altproj.sets, "_KKT_TOL", -1.0)
    cfg = write_config(tmp_path, _classical(
        {"kind": "polyhedron", "normals": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0],
         "witness": [-1.0, -1.0]}, start=(2.0, 3.0)))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "projection failed at step 1" in err and "KKT certificate" in err


def test_non_finite_record_exits_one_with_step(tmp_path, capsys):
    doc = _classical({"kind": "halfspace", "a": [1.0, 1.0], "b": 0.0},
                     {"kind": "halfspace", "a": [-1.0, -1.0], "b": 0.0}, (1e308, 1e308))
    doc["max_iter"] = 3
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "projection failed at step 1: non-finite record" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trace.csv").exists()


def test_orthant_with_fractional_dimension_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, _classical({"kind": "nonneg_orthant", "d": 2.7}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "'d' must be an integer" in capsys.readouterr().err


_SEPARATION = {"probe": "separation", "M": 0.5, "omega": 0.2}


@pytest.mark.parametrize("command, kind, params, key", [
    ("run", "ell2", {"d": 5, "H": 2}, "ratio"),
    ("run", "ell2", {"d": 5, "H": 2}, "slack"),
    ("run", "ell2", {"d": 5, "H": 2}, "aw_windows"),
    ("run", "stable-scenario", {"scenario": "overlapping_balls"}, "delta_scale"),
    ("run", "perturbed", {"blocks": [{"A": BALL, "B": BALL, "len": 2}], "start": [1.0, 1.0]},
     "stop_residual"),
    ("run", "classical", _classical(BALL)["params"], "stop_residual"),
    ("probe", "probe", _SEPARATION, "M"),
    ("probe", "probe", _SEPARATION, "omega"),
])
@pytest.mark.parametrize("bad", ["0.5", True], ids=["str", "bool"])
def test_numeric_params_reject_strings_and_bools(tmp_path, capsys, command, kind, params, key,
                                                 bad):
    value = [1, bad] if key == "aw_windows" else bad
    cfg = write_config(tmp_path, {"kind": kind, "params": {**params, key: value}})
    for cmd in (command, "validate"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"params.{key}" in capsys.readouterr().err


_PROBE = {"kind": "probe", "params": {"probe": "separation", "M": 0.5, "omega": 0.3}}


@pytest.mark.parametrize("command, doc, field", [
    ("run", {"kind": "example51", "max_iter": 3, "params": {"n_blocks": 4}}, "max_iter"),
    ("run", {"kind": "example44", "max_iter": 3, "params": {"n_blocks": 4}}, "max_iter"),
    ("run", {"kind": "ell2", "max_iter": 3, "params": {"d": 5, "H": 2}}, "max_iter"),
    ("probe", {**_PROBE, "max_iter": 3}, "max_iter"),
    ("probe", {**_PROBE, "record_stride": 3}, "record_stride"),
    ("probe", {**_PROBE, "output": {"trace_csv": "t.csv"}}, "output.trace_csv"),
    ("run", {**_classical(BALL), "output": {"report_json": "r.json"}}, "output.report_json"),
])
def test_fields_a_kind_ignores_are_rejected(tmp_path, capsys, command, doc, field):
    cfg = write_config(tmp_path, doc)
    for cmd in (command, "validate"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"config field {field!r}: is not used" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, doc", [
    ("run", {"kind": "example51", "params": {"n_blocks": 4}}),
    ("run", {"kind": "ell2", "params": {"d": 5, "H": 2}}),
    ("probe", _PROBE),
])
def test_max_iter_flag_is_checked_like_the_field(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    for cmd in (command, "validate"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--max-iter", "3"]) == 1
        assert "config field 'max_iter'" in capsys.readouterr().err


def test_max_iter_flag_overrides_before_the_check(tmp_path, capsys):
    cfg = write_config(tmp_path, {**_classical(BALL), "max_iter": 50})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--max-iter", "3"]) == 0
    assert "steps=3" in capsys.readouterr().out
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--max-iter", "0"]) == 1
    assert "config field 'max_iter': must be >= 1" in capsys.readouterr().err


_HALFSPACES = {"kind": "classical", "max_iter": 20, "params": {
    "A": {"kind": "halfspace", "a": [1.0, 0.0], "b": 0.0},
    "B": {"kind": "halfspace", "a": [0.0, 1.0], "b": 0.0}, "start": [1.0, 1.0]}}


def _with(doc, path, value):
    """A copy of doc with the field at path (a tuple of keys) set to value."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("command, doc, field", [
    ("run", _with(_HALFSPACES, ("output", "trace_csv"), 5), "output.trace_csv"),
    ("probe", _with(_PROBE, ("output", "report_json"), ["x"]), "output.report_json"),
    ("run", _with(_HALFSPACES, ("max_iter",), True), "max_iter"),
    ("run", _with(_HALFSPACES, ("seed",), True), "seed"),
    ("run", {"kind": "example51", "params": {"n_blocks": True}}, "params.n_blocks"),
    ("run", {"kind": "perturbed", "params": {"blocks": [{"A": BALL, "B": BALL, "len": True}],
                                             "start": [1.0, 1.0]}}, "params.blocks[0].len"),
    ("run", _with(_HALFSPACES, ("params", "stop_residual"), "NaN"), "params.stop_residual"),
    ("run", _with(_HALFSPACES, ("params", "stop_residual"), "1e400"), "params.stop_residual"),
    ("run", {"kind": "stable-scenario", "params": {"scenario": "tangent_disc",
                                                   "delta_scale": "1e400"}},
     "params.delta_scale"),
], ids=["trace_csv_int", "report_json_list", "max_iter_true", "seed_true", "n_blocks_true",
        "len_true", "stop_residual_nan", "stop_residual_1e400", "delta_scale_1e400"])
def test_schema_rejects_what_was_ignored_or_crashed(tmp_path, capsys, command, doc, field):
    path = tmp_path / "cfg.json"
    # NaN and 1e400 are written as bare JSON tokens, which json.loads reads as floats
    path.write_text(json.dumps(doc).replace('"NaN"', "NaN").replace('"1e400"', "1e400"))
    for cmd in (command, "validate"):
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert f"config field {field!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, params, name", [
    ("orthant_bounds", {"d": 2.7}, "d"),
    ("orthant_polar", {"d": "x"}, "d"),
    ("transversal_planes", {"kappa": "0.5"}, "kappa"),
    ("orthant_halfspace", {"a": ["1", "-1"]}, "a"),
])
def test_scenario_params_named_on_run_and_validate(tmp_path, capsys, scenario, params, name):
    cfg = write_config(tmp_path, {"kind": "stable-scenario", "max_iter": 5, "params": {
        "scenario": scenario, "scenario_params": params}})
    for cmd in ("run", "validate"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"scenario parameter {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("delta_law", "inv_n"), ("delta_scale", 2.0),
                                        ("kind", "tangent_disc")])
def test_scenario_params_reject_the_keywords_params_sets(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, {"kind": "stable-scenario", "max_iter": 5, "params": {
        "scenario": "tangent_disc", "scenario_params": {key: value}}})
    for cmd in ("run", "validate"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"config field 'params.scenario_params.{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("A, field", [
    ({"kind": "halfspace", "a": ["1", "0"], "b": 0.5}, "'a'"),
    ({"kind": "halfspace", "a": [1.0, 0.0], "b": "0.5"}, "'b'"),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": True}, "'radius'"),
    ({"kind": "ball", "center": [0.0, False], "radius": 1.0}, "'center'"),
    ({"kind": "polygon2d", "vertices": [[0.0, 0.0], [1.0, "1"], [0.0, 1.0]]}, "'vertices'"),
    ({"kind": "polyhedron", "normals": [[1.0, 0.0]], "b": [1.0], "witness": None},
     "'witness'"),
    ({"kind": "nonneg_orthant", "d": True}, "'d'"),
], ids=["str_array", "str_scalar", "bool_scalar", "bool_in_array", "str_in_matrix",
        "null", "bool_dimension"])
def test_set_descriptors_reject_strings_and_bools(tmp_path, capsys, A, field):
    cfg = write_config(tmp_path, _classical(A))
    for cmd in ("run", "validate"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"set kind {A['kind']!r}: field {field}" in err and "params.A" in err
    assert not (tmp_path / "o").exists()


_OMEGA = {"probe": "omega", "U": [[1.0, 0.0]], "V": [[0.0, 1.0]]}
_EXPOSURE = {"probe": "exposure", "set": BALL, "f": [0.0, 1.0], "alphas": [0.1]}
_AW_FAMILY = {"probe": "aw", "family": "tilted_lines"}
_AW_SETS = {"probe": "aw", "A": BALL, "C": BALL}


@pytest.mark.parametrize("params, key", [
    ({**_OMEGA, "n_samples": 5}, "n_samples"),
    ({**_OMEGA, "family": "tilted_lines"}, "family"),
    ({**_EXPOSURE, "N": 2}, "N"),
    ({**_EXPOSURE, "U": [[1.0, 0.0]]}, "U"),
    ({"probe": "separation", "M": 0.5, "omega": 0.1, "alphas": [0.1]}, "alphas"),
    ({"probe": "separation", "M": 0.5, "omega": 0.1, "n_samples": 5}, "n_samples"),
    ({**_AW_FAMILY, "A": BALL}, "A"),
    ({**_AW_FAMILY, "C": BALL}, "C"),
    ({**_AW_FAMILY, "f": [0.0, 1.0]}, "f"),
    ({**_AW_SETS, "count": 3}, "count"),
    ({**_AW_SETS, "omega": 0.1}, "omega"),
])
def test_probe_params_the_probe_never_reads_are_rejected(tmp_path, capsys, params, key):
    cfg = write_config(tmp_path, {"kind": "probe", "params": params})
    for cmd in ("probe", "validate"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"config field 'params.{key}': is not used" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("params", [
    {**_OMEGA}, {**_EXPOSURE, "n_samples": 20},
    {"probe": "separation", "M": 0.5, "omega": 0.1},
    {**_AW_FAMILY, "count": 2, "N": 2, "n_samples": 20},
    {**_AW_SETS, "N": 2, "n_samples": 20},
])
def test_probe_params_each_probe_reads_are_accepted(tmp_path, params):
    cfg = write_config(tmp_path, {"kind": "probe", "params": params})
    assert main(["validate", "--config", str(cfg), "--quiet"]) == 0

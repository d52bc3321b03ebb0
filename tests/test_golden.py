"""Byte-for-byte outputs of the fast shipped configs.

Every file these configs write is pinned by its SHA-256, so a refactor
that changes any trace, report or construction digit fails here.  The
hashes were recorded with numpy 2.4 and scipy 1.17 on x86-64; other
versions may round the last digit differently.  ``graph_growth_half``
(about 3.7e5 engine steps, several seconds) pins the engine's per-step
path, and ``tangent_disc_scenario`` (1e5 steps, a record every 1000) the
per-step scenario sets and ``record_stride`` under a ``PerStep`` schedule.
The standard output and exit code of ``altproj validate`` are pinned the
same way for all ten shipped configs.
"""

import hashlib
from pathlib import Path

import pytest

from altproj.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    ("run", "escaping_lines"): {
        "escaping_lines.csv":
            "a249980f17354a12b664b544cc20b19432ae5c655c1edf0bec8b38496ac4abf2"},
    ("run", "oscillating_squares"): {
        "oscillating_squares.csv":
            "e64bdbebf0ffe0a882091ba5e5393d76ea29a3e840f4fbe75c3241d029b7ca8d",
        "oscillating_squares.json":
            "019fa0c686a3e7aecf385a403ff582b0adf2917a3941085ac64e9f50e88c1f2b"},
    ("run", "two_lines_classical"): {
        "trace.csv": "863fb48559f0551332311056d5df940dc35d087baf5c09be0190db8a250ecb1b"},
    ("run", "graph_growth_half"): {
        "graph_growth_half.csv":
            "9012012f7c33838e4adeaf81355196b9c43a63eef31280b3153d8e0c9a9504ac",
        "graph_growth_half_construction.json":
            "24110917691cf837a1cdd3859237e704abaf69060a61bf5617831c66e30d18c4",
        "report.json": "aa9025a0c836e6a1f315cb58cbc2a42374bfe7b7adf8c2f6e5304bdcd2769d93"},
    ("run", "graph_growth_quarter"): {
        "graph_growth_quarter_construction.json":
            "b8770ac8c91cda4ba5f9db68316f4a0297dbc6ad5b85cac5369c2759a35b3c5e",
        "graph_growth_quarter_report.json":
            "91ca87e00a38fd8ee86eeecb10ec70bef777b8bda8f0f9be5b3bc52a2986edf4"},
    ("run", "tangent_disc_scenario"): {
        "tangent_disc.csv": "aada120ecb3ad7b9eed284c0a621c38e25758096553a3d4c6c9832777d60c2a0"},
    ("probe", "probe_aw_squares"): {
        "aw_squares.json": "c1a8a4995d74f2a434bfd46d1c8f08b9e5a3b88c364e12f4b3fd644148e0bf9b"},
    ("probe", "probe_exposure_disc"): {
        "exposure_disc.json": "6f8348c87b8de6dde6bd3c574ae09e3bc323fb0912385b5f8d3286be2f564a28"},
    ("probe", "probe_omega_planes"): {
        "omega_planes.json": "98b5ef5dae8b446cbe62ce4c6aed73568d2db60e43bf683f368b7caf4f443fa9"},
    ("probe", "probe_separation"): {
        "separation.json": "6580949d3346b26f37ed9730be9f1596c845a03aeee2c3b78b1130e01c1877b2"},
}


@pytest.mark.parametrize("command, name", sorted(GOLDEN), ids=[n for _, n in sorted(GOLDEN)])
def test_shipped_config_outputs_byte_identical(tmp_path, command, name):
    out = tmp_path / name
    assert main([command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(out),
                 "--quiet"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == GOLDEN[(command, name)]


# (exit code, SHA-256 of stdout) of `altproj validate`, run without --quiet
VALIDATE_GOLDEN = {
    "escaping_lines":
        (0, "44b3e107df37e82f557e6d54968cee92f8ebb51499dae4d0cd2f1c32a8332fac"),
    "graph_growth_half":
        (0, "a8fb854f736960474c73fbb2e31ad269240077660aa5dbca77f7cf2e85a91d06"),
    "graph_growth_quarter":
        (0, "ec8b258adf326a3654cc2883806072ce414a41314639be7274e858c6b899d09e"),
    "oscillating_squares":
        (0, "b2b7379178b849d9c08853803eff1017421ec6a03b0a6a02fd5a61b2b9f4db07"),
    "probe_aw_squares":
        (0, "a405ec0330538511fce00f395ff2f321600ef27add0ae4c8f72148e0ea8b8304"),
    "probe_exposure_disc":
        (0, "5cd618ecbc8ba52f2b53e7bf5063f9d064b1fab04901be3b8f8ec8ed3a049183"),
    "probe_omega_planes":
        (0, "d698b5ab6a495211cc3306425f435df42509734d97db8558d87a427c2ee61e47"),
    "probe_separation":
        (0, "4a3a79e65a448e3510b4cea45839c612bdc05b5f5b772aeeb9f583d5b59b95b2"),
    "tangent_disc_scenario":
        (0, "ae8e2ff69297c2fd18506782b4abc6b3fea5f8d91576cd1ede5756615e8317dc"),
    "two_lines_classical":
        (0, "c4170fc7d59f034110834d68cd0d45b1de2ddcd76b7306c6309cca6831591ab7"),
}


@pytest.mark.parametrize("name", sorted(VALIDATE_GOLDEN))
def test_shipped_config_validate_stdout_byte_identical(tmp_path, capsys, name):
    """validate prints the same ledger and exits with the same code on every shipped config."""
    code = main(["validate", "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path)])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == VALIDATE_GOLDEN[name]

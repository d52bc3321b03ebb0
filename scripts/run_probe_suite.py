#!/usr/bin/env python3
"""Run the shipped probe configs through the CLI and show their reports.

Usage:
    python scripts/run_probe_suite.py [--out OUTDIR]
"""

import argparse
import json
from pathlib import Path

from altproj.cli import main as cli_main

CONFIGS = [
    "configs/probe_omega_planes.json",
    "configs/probe_exposure_disc.json",
    "configs/probe_aw_squares.json",
    "configs/probe_separation.json",
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/probes")
    args = ap.parse_args()
    out = Path(args.out)

    for cfg_path in CONFIGS:
        cfg = json.loads(Path(cfg_path).read_text())
        code = cli_main(["probe", "--config", cfg_path, "--out", str(out), "--quiet"])
        if code != 0:
            raise SystemExit(f"probe failed: {cfg_path}")
        report = json.loads((out / cfg["output"]["report_json"]).read_text())
        print(f"--- {cfg_path}")
        print(json.dumps(report["result"], indent=1)[:800])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Regenerate the figure datasets from the built-in sweep presets.

Writes one CSV per preset into the output directory and prints a short
summary for each: row count, error-row count, path and the first 8 hex
digits of the written file's sha256.
"""

import argparse
import hashlib
import pathlib
import sys

from pmcs import sweeps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="figure_data", help="directory for the CSV files")
    parser.add_argument(
        "--preset", action="append", choices=sweeps.PRESET_NAMES,
        help="run only the given preset(s); default: all",
    )
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = args.preset or list(sweeps.PRESET_NAMES)
    for name in names:
        cfg = sweeps.preset_config(name)
        rows = sweeps.run_sweep(cfg)
        path = outdir / f"{name}.csv"
        path.write_text(sweeps.render(rows, cfg.family, cfg.format), encoding="utf-8", newline="")
        n_err = sum(1 for row in rows if row.error)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:8]
        print(f"{name}: {len(rows)} rows ({n_err} with an error column) -> {path} sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

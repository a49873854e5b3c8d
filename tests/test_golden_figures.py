"""Every figure preset against the committed figure data in ``golden/``.

``python scripts/run_figures.py --outdir tests/golden`` writes that data, one
CSV per preset (engine ``both``); a deliberate change of the output
regenerates it and is reviewed as a diff of those files.  Each preset is run
again and compared cell by cell: text, integer and empty cells exactly, a
float cell within 1e-12 max(|want|, s), s = 1 in the ``rel_gap`` column and
0 elsewhere, and every float cell of an a3 row within 1e-9 max(|want|, s).

Elementwise ``math.exp``/``cmath.exp`` in place of ``np.exp`` in ``fock``
moves A3's oracle value and gap by up to 1.9e-11 relative, I1, I2 and the
uncertainty product by up to 4.2e-14, every other float cell by at most
6.3e-16, and an exact-regime ``rel_gap`` of 0 to about 4e-16.  Each
tolerance is at least ten times that drift, and scaling any one float
column by 1 + 1e-6 fails.
"""

import csv
import io
import pathlib

import pytest

from pmcs import sweeps

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXACT_COLUMNS = {"N", "truncation_dim", "quantity", "error"}


def cell_matches(column: str, want: str, got: str, rtol: float) -> bool:
    if got == want:
        return True
    if column in EXACT_COLUMNS or not want or not got:
        return False
    scale = max(abs(float(want)), 1.0 if column == "rel_gap" else 0.0)
    return abs(float(got) - float(want)) <= rtol * scale


@pytest.mark.parametrize("name", sweeps.PRESET_NAMES)
def test_preset_reproduces_its_golden_data(name):
    cfg = sweeps.preset_config(name)
    got = list(csv.reader(io.StringIO(sweeps.render(sweeps.run_sweep(cfg), cfg.family, cfg.format), newline="")))
    with open(GOLDEN / f"{name}.csv", newline="", encoding="utf-8") as handle:
        want = list(csv.reader(handle))
    header = want[0]
    assert got[0] == header
    assert len(got) == len(want)
    quantity = header.index("quantity")
    bad = []
    for i, (want_row, got_row) in enumerate(zip(want[1:], got[1:]), 2):
        assert len(got_row) == len(want_row), f"line {i}"
        rtol = 1e-9 if want_row[quantity] == "a3" else 1e-12
        bad += [
            f"line {i} {column}: want {w!r}, got {g!r}"
            for column, w, g in zip(header, want_row, got_row)
            if not cell_matches(column, w, g, rtol)
        ]
    assert not bad, f"{len(bad)} cells differ from golden/{name}.csv: " + "; ".join(bad[:10])

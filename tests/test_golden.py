"""Output bytes pinned across changes.

`tests/data` holds three instance files and the SHA-256 of every file
`platoon-coord solve` wrote for them when they were made: each method as
JSON, as CSV, and as `--timing` JSON with its `solve_ms` line removed (wall
clock), and `fixed-interval --interval 0.1` as JSON and CSV, whose slot
ends fall an ulp before some trucks are ready. The writer tests elsewhere compare against reference builders that
change with the code; these digests do not. `dense-ties-300` is a 300-truck
fleet at 14 arrivals a minute with exact ties, nbar 16 and ETs that can
follow but never lead; `integer-arrivals-200` has integer arrival times,
which every method writes back as floats: times are float64 once a fleet
is prepared; `integer-battery-200` (seed 7) has integer `soc0`, `safe` and
`max` fields, and every method writes each SoC as a float, a battery
charged to its integer `max` included. A change that alters these outputs on purpose rewrites
`golden-digests.json` from what it writes, and says which outputs moved and
why.

Under `generate`, the same file pins the instance files `platoon-coord
generate` writes: the reference fleet of seed 3, a dense one (2000 trucks,
70 % low-SoC ETs) and a tight-horizon one whose ETs are often redrawn.
"""

import hashlib
import json
from pathlib import Path

import pytest

from platoon_coord.cli import METHODS, main

DATA = Path(__file__).parent / "data"
DIGESTS = json.loads((DATA / "golden-digests.json").read_text(encoding="utf-8"))
GENERATED = DIGESTS.pop("generate")
FORMATS = {"json": [], "csv": ["--format", "csv"], "timing": ["--timing"]}
# What follows `--method` on each pinned command line.
RUNS = (*METHODS, "fixed-interval --interval 0.1")
GENERATE_FLAGS = {
    "seed-3": [],
    "dense": ["--n", "2000", "--et-share", "0.7", "--soc-lo", "10", "--soc-hi", "60",
              "--arrival-hi", "144", "--horizon", "204", "--nbar", "16"],
    "tight": ["--n", "1000", "--et-share", "0.5", "--soc-lo", "10", "--soc-hi", "20",
              "--arrival-hi", "100", "--horizon", "120"],
}


def digest(path, fmt):
    data = path.read_bytes()
    if fmt == "timing":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if b'"solve_ms"' not in line)
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("method", RUNS)
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_solve_outputs_keep_their_bytes(name, method, tmp_path, capsys):
    for fmt, expected in DIGESTS[name][method].items():
        out = tmp_path / f"solution.{fmt}"
        assert main(["solve", str(DATA / f"{name}.json"), "--method", *method.split(),
                     "--out", str(out), *FORMATS[fmt]]) == 0
        assert digest(out, fmt) == expected, fmt
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_instances_keep_their_bytes(name, tmp_path, capsys):
    out = tmp_path / "instance.json"
    assert main(["generate", "--seed", "3", "--out", str(out), *GENERATE_FLAGS[name]]) == 0
    assert digest(out, "json") == GENERATED[name]
    capsys.readouterr()

"""Golden digests of the bound tables, the lemma reports and the stage CSVs.

Each digest is the SHA-256 of bytes the CLI wrote before the bound
calculators took the charge as an argument (the 0.5-step tables and the
default verify grid), or before the lemma3 grid was built once per check
and each CSV row was written with one join (the rest); any later drift in
those bytes fails here instead of in a manual diff.
"""

import hashlib
import json

import pytest

from ionbound.cli import main

BOUNDS_CSV_SHA256 = {
    "nonrel": "809d2281d07ad30a51660b0f5f6dbb50dec52639ae0e644abe77ed71465e4f15",
    "magnetic --B 10": "f80f58b288895b5feddab8b0273341ed0a7a943d76af799b70f01768e6db5cd2",
    "relativistic": "d301145ba6e075a7d463ca239a9b7ed354988ea306d703f5e39800c0b63c1e3a",
    "bosonic --B 10": "23efe3334af3c54a79fa7e1514ea332aaa325fdc7b4e73088d4fe3fb8b994ec1",
    "magnetic": "676fc6c395992e657f8372a17d64425aa53e710fe9951c32969bb5bfdf100601",
    "bosonic": "c2c2f679f06ffc2237aff83bf7173dc801405d2e8ad447e0f1eb71ff5557566c",
}

# json.dumps(payload["results"], indent=2) of the verify run below
VERIFY_RESULTS_SHA256 = "5be230b8efb931f72df8a49ed41dbbed9191541d12ff68fc1154f5b33d0fb9f6"


# the four 11,701-row tables of the benchmark's `tables` workload
FINE_BOUNDS_CSV_SHA256 = {
    "nonrel": "02de442ef7db9f069b416fd35bea83de0a2fa2c086a8b02c211c59c679717976",
    "magnetic --B 10": "23061e3e2d029be570d012c0267070c6b92add175b9fe254a46664223af9fa0a",
    "relativistic": "8fb553e56933fb64d3e6c5664ee8c262b3820ece36b59eb6e52eb65b663d9151",
    "bosonic --B 10": "d5c4ba0ca66f671c0226698681a08f78b128167626b504bb5b76b55f1810cbdc",
}

# json.dumps(payload["results"], indent=2) of the workload's enlarged verify grid
LARGE_VERIFY_RESULTS_SHA256 = "905faa27c60040f84b12073f132e7533a31d8faf3ce8cc8ea3d874b1738f6f37"

# the other writers of the shared CSV formatter
STAGE_CSV_SHA256 = {
    "alpha --n 2:4 --restarts 4 --seed 7": "ed9bf6cc366f1a198973558418dbc5a68042e9fcc8951df3622497c6f920dab9",
    "beta --nodes 30": "0ec9e52792af9496a9cbfab99b41e7b92d8b6dc08acba72dc7ff50c2617533d3",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model", list(BOUNDS_CSV_SHA256))
def test_bounds_csv_bytes(tmp_path, model):
    out = tmp_path / "bounds.csv"
    args = ["bounds", "--z", "1:118:0.5", "--model", *model.split(), "--format", "csv"]
    assert main(args + ["--out", str(out)]) == 0
    assert _digest(out) == BOUNDS_CSV_SHA256[model]


def test_verify_results_bytes(tmp_path):
    out = tmp_path / "verify.json"
    # exit 2: lemma4, read as printed, has integer counterexamples
    assert main(["verify", "--lemma", "all", "--real-n", "--grid-beta", "4", "--out", str(out)]) == 2
    results = json.loads(out.read_text())["results"]
    assert hashlib.sha256(json.dumps(results, indent=2).encode()).hexdigest() == VERIFY_RESULTS_SHA256


@pytest.mark.parametrize("model", list(FINE_BOUNDS_CSV_SHA256))
def test_fine_bounds_csv_bytes(tmp_path, model):
    out = tmp_path / "bounds.csv"
    args = ["bounds", "--z", "1:118:0.01", "--model", *model.split(), "--format", "csv"]
    assert main(args + ["--out", str(out)]) == 0
    assert _digest(out) == FINE_BOUNDS_CSV_SHA256[model]


def test_large_verify_results_bytes(tmp_path):
    out = tmp_path / "verify.json"
    args = ["verify", "--lemma", "all", "--real-n", "--grid-z", "1000", "--grid-ratio", "1000",
            "--grid-beta", "4", "--out", str(out)]
    assert main(args) == 2
    results = json.loads(out.read_text())["results"]
    assert hashlib.sha256(json.dumps(results, indent=2).encode()).hexdigest() == LARGE_VERIFY_RESULTS_SHA256


@pytest.mark.parametrize("command", list(STAGE_CSV_SHA256))
def test_stage_csv_bytes(tmp_path, command):
    out = tmp_path / "stage.csv"
    assert main([*command.split(), "--format", "csv", "--out", str(out)]) == 0
    assert _digest(out) == STAGE_CSV_SHA256[command]

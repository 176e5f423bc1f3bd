"""Golden digests of the bound tables and the lemma reports.

Each digest is the SHA-256 of bytes the CLI wrote before the bound
calculators took the charge as an argument; any later drift in a table's
bytes fails here instead of in a manual diff.
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


@pytest.mark.parametrize("model", list(BOUNDS_CSV_SHA256))
def test_bounds_csv_bytes(tmp_path, model):
    out = tmp_path / "bounds.csv"
    args = ["bounds", "--z", "1:118:0.5", "--model", *model.split(), "--format", "csv"]
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BOUNDS_CSV_SHA256[model]


def test_verify_results_bytes(tmp_path):
    out = tmp_path / "verify.json"
    # exit 2: lemma4, read as printed, has integer counterexamples
    assert main(["verify", "--lemma", "all", "--real-n", "--grid-beta", "4", "--out", str(out)]) == 2
    results = json.loads(out.read_text())["results"]
    assert hashlib.sha256(json.dumps(results, indent=2).encode()).hexdigest() == VERIFY_RESULTS_SHA256

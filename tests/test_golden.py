"""Golden digests of the bound tables, the lemma reports and the stage CSVs.

The verify and stage CSV digests are the SHA-256 of bytes the CLI wrote
before the bound calculators took the charge as an argument (the default
verify grid), or before the lemma3 grid was built once per check and each CSV
row was written with one join (the rest).  The bounds-table digests were
regenerated when ``implicit_N`` moved from a bisection to 1e-9 relative to a
Newton root good to a few ulps; the other four columns of those tables stay
pinned to the bytes from before that change.  Any later drift in these bytes
fails here instead of in a manual diff.
"""

import hashlib
import json

import pytest

from ionbound.cli import main

BOUNDS_CSV_SHA256 = {
    "nonrel": "123a39aebb8366556257e9fd5259fa0217d2718c323bf4c7cf4f879e6c7a97ea",
    "magnetic --B 10": "82951f7918cdf4ef036361e3f9757d0fd8d0d36eb86dd975ad5a13ce7c6bdcc3",
    "relativistic": "184c71e7f653829b79d8a4be1a58629f81e8d38f0ba8cd77c831c7a60b112bb9",
    "bosonic --B 10": "89c6574c203a02cef0f9453e038269dc0a2a8cb37417463b387a1232b112e07c",
    "magnetic": "10a2f43e30f8ba14e0c69fea70f84895e352163410fdfd4051a38132d9fdcffe",
    "bosonic": "e6cb2bc1e1b5108857a85fb6baa8e7a84bed02bf942786f5fb8ca74a1e8e44d0",
}

# json.dumps(payload["results"], indent=2) of the verify run below
VERIFY_RESULTS_SHA256 = "5be230b8efb931f72df8a49ed41dbbed9191541d12ff68fc1154f5b33d0fb9f6"


# the four 11,701-row tables of the benchmark's `tables` workload
FINE_BOUNDS_CSV_SHA256 = {
    "nonrel": "4a7d4195c3374d3bed42a855c89b55307e97bb6946ff90dfe46b07276791eaa8",
    "magnetic --B 10": "aef53164359d38106e3fe42f7a111a8fd5df9d3f715542e3d67b105056f5ee71",
    "relativistic": "69fc62365e71e9b17c9450aef76ea97321ba7e1823831f1004deca814cb56666",
    "bosonic --B 10": "0c6c0dee092f04aad4a14e7ddfca16233e1e93683ef6ca6c9236af09301a342b",
}

# the Z, lieb, main and model_extra columns of the tables above, from the bytes
# the bisection wrote: every line with the implicit_N cell (the 4th) cut out
BOUNDS_FIXED_COLUMNS_SHA256 = {
    ("1:118:0.5", "nonrel"): "fb5fe4f9c328dc15cdf010c66a1c150c0699845e5fa4bccdbdd0d5819c509b64",
    ("1:118:0.5", "magnetic --B 10"): "e851fd0d1685e1fe30c14183ede4208e754c43cc394741a0cb352e755ee2b4b3",
    ("1:118:0.5", "relativistic"): "873efa8595084c7e29f84aa7fb441e698ad292a6b2c54ee4f3f445ddd8d7f350",
    ("1:118:0.5", "bosonic --B 10"): "45915e2e82e09a6dfc52f384c5a75b6fe9151cda6925647d4a87dbd4ae1885d4",
    ("1:118:0.5", "magnetic"): "2a004641aa96af2c138085e9693fc42d9248b08e069c1a8dc8f0b03ccce637f0",
    ("1:118:0.5", "bosonic"): "2a9b4157179074bd63c5c160eff38965b33a3bce8daff6240f1758a22d99a481",
    ("1:118:0.01", "nonrel"): "d8ab68d5bb3f073f1adb3774c5ac367e8fb89de0be20044f5770dde1fadbec96",
    ("1:118:0.01", "magnetic --B 10"): "6019102e715035f2b7e64ba72b1e43f638e3273ab137af63dbdb20a922a5bc25",
    ("1:118:0.01", "relativistic"): "11bc1c2437f3e9869aa4ab8fc960cd0c2b2e42578efaa10f887cead38a203abf",
    ("1:118:0.01", "bosonic --B 10"): "78971a32e9e83d144465dd9cb70bb1a1fd1787b5bd89387ce0af43e5f96b4a2d",
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


@pytest.mark.parametrize("z, model", list(BOUNDS_FIXED_COLUMNS_SHA256))
def test_bounds_columns_besides_implicit_n_are_unchanged(tmp_path, z, model):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--z", z, "--model", *model.split(), "--out", str(out)]) == 0
    lines = [line if line.startswith("#") else ",".join(line.split(",")[:3] + line.split(",")[4:])
             for line in out.read_text().split("\n")]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == BOUNDS_FIXED_COLUMNS_SHA256[(z, model)]


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

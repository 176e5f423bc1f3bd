"""Golden digests of the bound tables, the lemma reports and the stage CSVs.

The verify and stage CSV digests are the SHA-256 of bytes the CLI wrote
before the bound calculators took the charge as an argument (the default
verify grid), or before the lemma3 grid was built once per check and each CSV
row was written with one join (the rest).  The bounds-table digests were
regenerated when ``implicit_N`` moved from a bisection to 1e-9 relative to a
Newton root good to a few ulps; the other four columns of those tables stay
pinned to the bytes from before that change.  The bounds SVG and JSON results
and the extreme-charge roots were pinned before the bounds and plot types
became named tuples.  Every ``alpha`` digest was re-pinned when the descent
and its seeded starts moved to Python floats (``ionbound.alpha.v2``), and every
``beta`` digest when the radial solve and its node grid did (``ionbound.beta.v3``) and
again when the radial solve started from the continuum optimum (``ionbound.beta.v4``).
When every node range took that start (``ionbound.beta.v5``), the ``beta`` CSV digests
were re-pinned for the schema line alone, and the narrow and coarse grids were added; the
grid far from scale 1 was added when the kernel started running on nodes scaled near 1.
Any later drift in these bytes fails here instead of in a manual diff.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from ionbound.bounds import implicit_bound
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

# the bytes of `bounds --z 1:118:0.1 --format svg`, and json.dumps(results, indent=2)
# of the same table as JSON: the workload's SVG and JSON tables
BOUNDS_SVG_SHA256 = "d746f9784650cc02a56e536f71053a4327ba4b9698bacbb3ca7c2bf80938d224"
BOUNDS_JSON_RESULTS_SHA256 = "d83ca98357c44e441093f3ae1d435c31df48dc52f780989cfe68c9a4db37cc9b"

# ",".join(map(repr, roots)) of implicit_bound over Z = 10^k, k = -300, -295, ..., 300
EXTREME_ROOTS_SHA256 = {
    1e-300: "34dfea2a957eb09964ed659eb3b900399fbc08bfbbe9dcedc7de1d3da6c5ed62",
    1e-5: "4dd7a703f722864fe1f6da335dfa846c6651e4f45e3b9a4713650a580003db83",
    0.3: "e49cebfdc08150e6ddd460d29a87004d7acaf349dd2a5714c087831e4a8ba3e9",
    0.8218: "b26292570bb89a9e64cb6b13dfa275223d8ad18920c33c47e62f7ac84f1e1aa3",
    1 - 2**-52: "a88815fb8dc139c762e86d988608b3eaf2faaae3ff6935214f4f091670464ae2",
}

# json.dumps(payload["results"], indent=2) of the benchmark's alpha-sweep call
# `alpha --n 2:12 --restarts 2 --seed S --format json`, at the CLI seeds of its
# first sequences and at 7, and the bytes of the same call's CSV at seed 7;
# pinned when the descent and its seeded starts moved to Python floats
# (ionbound.alpha.v2), whose bytes are the same on every IEEE CPU
ALPHA_SWEEP_RESULTS_SHA256 = {
    7: "47d5c47a537240281a3731fd98847a9eb28f790bf59f072181cf4bed184570c3",
    1048576: "f2df84c9e4983219d8c7fbda19b662cfec229b08d2017ab76b8287d9693872d6",
    1048577: "09137f81d94f0c66ddec5d84d5b2ad884a98460eba133c1667193201d0ae546a",
}
ALPHA_SWEEP_CSV_SHA256 = "94029e7e18550f5bee5aaa2587b4851f88962edf0841fa8da97a1d0b2d433cbc"
ALPHA_SWEEP_ARGS = ["alpha", "--n", "2:12", "--restarts", "2"]

# the other writers of the shared CSV formatter
STAGE_CSV_SHA256 = {
    "alpha --n 2:4 --restarts 4 --seed 7": "5db4a6f6a44b27e283f9b567542ebbde895e878b52afb217b398b95ad7eab8f1",
    "beta --nodes 30": "607695db9b753ccbfa65953310412669b5d5d86b98e1888e3a8bd5a628df9ec4",
    "beta --nodes 2000": "e130b629a33b29e0e5be91ffc63d624096a085dd935e1e054fea06f090f47d1f",
    # a range narrower than R0, and a grid too coarse for any node to start with weight
    "beta --nodes 200 --range 10:20": "c2c826377e56783ff6220299c72969914a2941fad4488484972f9b52555f35ae",
    "beta --nodes 50 --range 1:1e100": "999c1553865d5e4f5e64b6fbae2f4964d612ce632ed70b4a0250f73d9a7a5c53",
    # a grid whose squares leave the floats, solved on its nodes times 2^-449
    "beta --nodes 10 --range 1e120:1e150": "cbf0c5686f0607dad21c9ab94f687c79886a287fed160f79e6520fc4fac96a8e",
}

# json.dumps(payload["results"], indent=2) of `beta` at its defaults, the benchmark's
# beta-bracket call; pinned when the radial solve started from the continuum optimum
# (ionbound.beta.v4), on Python floats, whose bytes are the same on every IEEE CPU
BETA_RESULTS_SHA256 = "f35fd58162de51dd267e08eb77050126d0b4664e0f6fafb727b54f26d06f4576"


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


@pytest.mark.parametrize("seed", list(ALPHA_SWEEP_RESULTS_SHA256))
def test_alpha_sweep_results_bytes(tmp_path, seed):
    out = tmp_path / "alpha.json"
    assert main([*ALPHA_SWEEP_ARGS, "--seed", str(seed), "--format", "json", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    digest = hashlib.sha256(json.dumps(results, indent=2).encode()).hexdigest()
    assert digest == ALPHA_SWEEP_RESULTS_SHA256[seed]


def test_beta_results_bytes(tmp_path):
    out = tmp_path / "beta.json"
    assert main(["beta", "--format", "json", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert hashlib.sha256(json.dumps(results, indent=2).encode()).hexdigest() == BETA_RESULTS_SHA256


def test_alpha_sweep_csv_bytes(tmp_path):
    out = tmp_path / "alpha.csv"
    assert main([*ALPHA_SWEEP_ARGS, "--seed", "7", "--format", "csv", "--out", str(out)]) == 0
    assert _digest(out) == ALPHA_SWEEP_CSV_SHA256


def test_bounds_svg_bytes(tmp_path):
    out = tmp_path / "bounds.svg"
    assert main(["bounds", "--z", "1:118:0.1", "--format", "svg", "--out", str(out)]) == 0
    assert _digest(out) == BOUNDS_SVG_SHA256


def test_bounds_json_results_bytes(tmp_path):
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--z", "1:118:0.1", "--format", "json", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert hashlib.sha256(json.dumps(results, indent=2).encode()).hexdigest() == BOUNDS_JSON_RESULTS_SHA256


@pytest.mark.parametrize("beta", list(EXTREME_ROOTS_SHA256))
def test_extreme_charge_roots(beta):
    roots = implicit_bound([float(f"1e{k}") for k in range(-300, 301, 5)], beta)
    assert hashlib.sha256(",".join(map(repr, roots)).encode()).hexdigest() == EXTREME_ROOTS_SHA256[beta]


# environment settings that act only on the process they are given to: numpy
# without its AVX-512 paths, and glibc's libm without its FMA and AVX paths
REDUCED_DISPATCH = {
    "numpy-avx2": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
    "glibc-no-fma": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F,-AVX"},
}


@pytest.mark.parametrize("setting", list(REDUCED_DISPATCH))
def test_alpha_goldens_hold_under_reduced_dispatch(tmp_path, setting):
    # alpha runs on Python floats alone, so its bytes are the same at every dispatch level
    env = {**os.environ, **REDUCED_DISPATCH[setting]}

    def run(args):
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "ionbound.cli", *args, "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    for seed, expected in ALPHA_SWEEP_RESULTS_SHA256.items():
        results = json.loads(run([*ALPHA_SWEEP_ARGS, "--seed", str(seed), "--format", "json"]))["results"]
        assert hashlib.sha256(json.dumps(results, indent=2).encode()).hexdigest() == expected, seed
    csv = run([*ALPHA_SWEEP_ARGS, "--seed", "7", "--format", "csv"])
    assert hashlib.sha256(csv).hexdigest() == ALPHA_SWEEP_CSV_SHA256
    command = "alpha --n 2:4 --restarts 4 --seed 7"
    csv = run([*command.split(), "--format", "csv"])
    assert hashlib.sha256(csv).hexdigest() == STAGE_CSV_SHA256[command]


@pytest.mark.parametrize("setting", list(REDUCED_DISPATCH))
def test_beta_goldens_hold_under_reduced_dispatch(tmp_path, setting):
    # beta runs on Python floats alone, so its bytes are the same at every dispatch level
    env = {**os.environ, **REDUCED_DISPATCH[setting]}

    def run(args):
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "ionbound.cli", *args, "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    results = json.loads(run(["beta", "--format", "json"]))["results"]
    assert hashlib.sha256(json.dumps(results, indent=2).encode()).hexdigest() == BETA_RESULTS_SHA256
    for command in (c for c in STAGE_CSV_SHA256 if c.startswith("beta")):
        csv = run([*command.split(), "--format", "csv"])
        assert hashlib.sha256(csv).hexdigest() == STAGE_CSV_SHA256[command], command

import gc
import json
import math
import subprocess
import sys
import xml.dom.minidom

import pytest

import ionbound
from ionbound import alpha, bounds, cli
from ionbound.bounds import BoundInputs
from ionbound.cli import _json_text, _payload, build_parser, main


def run_cli(args):
    return main(args)


# ---------------------------------------------------------------------------
# alpha command
# ---------------------------------------------------------------------------

def test_alpha_csv(tmp_path):
    out = tmp_path / "alpha.csv"
    code = run_cli(
        ["alpha", "--n", "2:4", "--restarts", "8", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "#schema=ionbound.alpha.v1"
    assert lines[1] == "#seed=7"
    assert lines[2] == "N,value,lower_bound,restarts,converged_restarts"
    assert len(lines) == 6
    first = lines[3].split(",")
    assert first[0] == "2"
    assert abs(float(first[1]) - 0.5) < 1e-4


def test_alpha_json_contains_lower_bound(tmp_path):
    out = tmp_path / "alpha.json"
    code = run_cli(
        ["alpha", "--n", "2:2", "--restarts", "4", "--seed", "1", "--format", "json",
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert list(payload) == ["config", "results", "timings", "version"]
    row = payload["results"]["alpha"][0]
    assert row["N"] == 2
    assert row["lower_bound"] < row["value"]
    assert payload["config"]["seed"] == 1


DIAGNOSTIC_KEYS = [
    "iterations_total", "iterations_max", "evaluations_total", "cap_hits", "basin_hits",
]


def test_alpha_json_diagnostics_without_cap_hits(tmp_path, capsys):
    out = tmp_path / "alpha.json"
    assert run_cli(["alpha", "--n", "2:4", "--restarts", "4", "--format", "json",
                    "--out", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err
    for row in json.loads(out.read_text())["results"]["alpha"]:
        assert list(row)[-1] == "diagnostics"
        assert list(row["diagnostics"]) == DIAGNOSTIC_KEYS
        assert row["diagnostics"]["cap_hits"] == 0
        assert 1 <= row["diagnostics"]["basin_hits"] <= 4


def test_alpha_cap_hits_are_flagged(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(alpha, "_MAX_ITERATIONS", 1)
    out = tmp_path / "alpha.json"
    assert run_cli(["alpha", "--n", "3:4", "--restarts", "2", "--format", "json",
                    "--out", str(out)]) == 0
    warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning")]
    assert warnings == [
        "warning: N=3: 2 of 2 restarts hit the iteration cap",
        "warning: N=4: 2 of 2 restarts hit the iteration cap",
    ]
    for row in json.loads(out.read_text())["results"]["alpha"]:
        assert row["converged_restarts"] == 0
        assert row["diagnostics"]["cap_hits"] == 2
        assert row["diagnostics"]["iterations_max"] == 1


# ---------------------------------------------------------------------------
# beta command
# ---------------------------------------------------------------------------

def test_beta_json(tmp_path):
    out = tmp_path / "beta.json"
    code = run_cli(["beta", "--nodes", "60", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    beta = payload["results"]["beta"]
    assert beta["lower"] == pytest.approx(0.8218066, abs=1e-6)
    assert beta["lower"] <= beta["upper"] < 0.8705
    assert beta["g"]["lambda_0"] == pytest.approx(0.843476, abs=1e-5)
    assert "certificate_measure" in beta or beta["upper_source"] == "trial-measure"


def test_beta_json_diagnostics(tmp_path):
    out = tmp_path / "beta.json"
    assert run_cli(["beta", "--out", str(out)]) == 0
    beta = json.loads(out.read_text())["results"]["beta"]
    diagnostics = beta["diagnostics"]
    assert list(diagnostics) == ["dinkelbach_steps", "support_size", "kkt_residual"]
    assert diagnostics["dinkelbach_steps"] >= 1
    weights = beta["certificate_measure"]["weights"]
    assert diagnostics["support_size"] == sum(w > 0 for w in weights)
    assert 0.0 <= diagnostics["kkt_residual"] <= 1e-10


def test_beta_lower_side_is_g_max(tmp_path):
    out = tmp_path / "beta.json"
    assert run_cli(["beta", "--out", str(out)]) == 0
    beta = json.loads(out.read_text())["results"]["beta"]
    assert beta["lower"] == beta["g"]["g_max"]
    out = tmp_path / "beta.csv"
    assert run_cli(["beta", "--format", "csv", "--out", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines()[1:3])
    assert dict(zip(header, row))["lower_source"] == "g_max"


def test_beta_csv_numeric_cells_parse(tmp_path):
    out = tmp_path / "beta.csv"
    assert run_cli(["beta", "--nodes", "30", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "#schema=ionbound.beta.v2"
    header, row = lines[1].split(","), lines[2].split(",")
    assert len(header) == len(row) == 9
    for name, cell in zip(header, row):
        if not name.endswith("_source"):
            float(cell)


# ---------------------------------------------------------------------------
# bounds command
# ---------------------------------------------------------------------------

def test_bounds_csv_schema_and_crossover_row(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run_cli(["bounds", "--z", "1:8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "#schema=ionbound.bounds.v1"
    assert lines[1] == "Z,lieb,main,implicit_N,model_extra"
    rows = {float(l.split(",")[0]): l.split(",") for l in lines[2:]}
    assert float(rows[6.0][2]) < float(rows[6.0][1])  # main < lieb at Z = 6
    assert float(rows[5.0][2]) > float(rows[5.0][1])  # not yet at Z = 5
    assert rows[1.0][4] == ""  # nonrel has no model_extra


def test_bounds_magnetic_extra_column(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run_cli(
        ["bounds", "--z", "10:10", "--model", "magnetic", "--B", "1000", "--out", str(out)]
    )
    assert code == 0
    row = out.read_text().splitlines()[2].split(",")
    base = 1.22 * 10 + 3 * 10 ** (1 / 3)
    assert float(row[4]) == pytest.approx(base * (1 + 11.8 * 10 ** (-2 / 3) + 0.42), rel=1e-12)


# (flags, the per-charge function that fills model_extra, the parameters it gets)
_MODEL_TABLES = {
    "magnetic B=0": (["--model", "magnetic", "--B", "0"], "magnetic_bound",
                     BoundInputs(model="magnetic")),
    "magnetic B=10": (["--model", "magnetic", "--B", "10"], "magnetic_bound",
                      BoundInputs(model="magnetic", B=10.0)),
    "bosonic B=0": (["--model", "bosonic", "--B", "0"], "relativistic_or_bosonic_bound",
                    BoundInputs(model="bosonic")),
    "bosonic B=10": (["--model", "bosonic", "--B", "10"], "relativistic_or_bosonic_bound",
                     BoundInputs(model="bosonic", B=10.0)),
    "relativistic": (["--model", "relativistic"], "relativistic_or_bosonic_bound",
                     BoundInputs(model="relativistic")),
}


@pytest.mark.parametrize("case", list(_MODEL_TABLES))
def test_model_table_matches_its_per_charge_function(tmp_path, monkeypatch, case):
    flags, name, inputs = _MODEL_TABLES[case]
    calls = {"magnetic_bound": [], "relativistic_or_bosonic_bound": []}
    for function in calls:
        def counted(z, *rest, _original=getattr(cli, function), _calls=calls[function]):
            _calls.append(z)
            return _original(z, *rest)
        monkeypatch.setattr(cli, function, counted)
    out = tmp_path / "bounds.json"
    assert run_cli(["bounds", "--z", "1:20:0.5", *flags, "--format", "json",
                    "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]["bounds"]
    zs = [r["Z"] for r in rows]
    (other,) = set(calls) - {name}
    assert len(rows) == 39 and calls[name] == zs and calls[other] == []
    per_charge = getattr(bounds, name)
    assert [r["model_extra"] for r in rows] == [per_charge(z, inputs) for z in zs]
    # the shared columns are bound_row's, with the model's own inputs
    assert [(r["lieb"], r["main"], r["implicit_N"]) for r in rows] == [
        tuple(bounds.bound_row(z, inputs)) for z in zs]


def test_model_choices_are_the_library_models():
    # the parser reads the ids from the package, since building it loads no layer
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    model = next(a for a in commands.choices["bounds"]._actions if a.dest == "model")
    assert tuple(model.choices) == bounds.MODELS


@pytest.mark.parametrize("flags, code", [
    ("--model nonrel --B -1", 0),  # nonrel reads only --beta and --coeff
    ("--model nonrel --C 0 --Ckappa -1 --C2 0", 0),
    ("--model magnetic --B -1", 1),
    ("--model bosonic --B -1", 1),
    ("--model relativistic --Ckappa 0", 1),
    ("--model nonrel --coeff 1.2", 1),  # below 1/beta
    # rows whose cells overflow to inf
    ("--model magnetic --B 1e308 --z 0.001:0.001 --format json", 1),
    ("--model bosonic --B 1e308 --z 0.5:0.5", 1),
    ("--z 1e308:1e308 --format json", 1),
    ("--z 1e308:1e308", 1),
    ("--model relativistic --Ckappa 1e300 --z 1e300:1e300", 1),
    ("--beta 1.5", 1),
    # a root near 2.1e300: the bracket doubles about 1000 times from max(2, Z/beta)
    ("--beta 1e-300 --coeff 1e300 --z 1e-300:1e-300", 0),
])
def test_bounds_checks_the_parameters_its_model_reads(tmp_path, capsys, flags, code):
    out = tmp_path / "b.csv"
    assert run_cli(["bounds", "--z", "1:3", *flags.split(), "--out", str(out)]) == code
    err = [l for l in capsys.readouterr().err.splitlines() if not l.startswith(("stage", "wrote"))]
    assert len(err) == code and all(l.startswith("domain error: ") for l in err)
    assert out.exists() == (code == 0)


def test_bounds_domain_error_writes_nothing(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run_cli(["bounds", "--z", "0:5", "--out", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("model", ["magnetic", "bosonic"])
def test_underflowing_field_ratio_takes_the_zero_field_limit(tmp_path, model):
    # 5e-324 / Z^3 (magnetic) and 5e-324 / Z^2 (bosonic) round to 0 at Z = 2
    extras = []
    for field in ("5e-324", "0"):
        out = tmp_path / f"bounds-{field}.json"
        assert run_cli(["bounds", "--model", model, "--B", field, "--z", "2:2", "--format", "json",
                        "--out", str(out)]) == 0
        extras.append(json.loads(out.read_text())["results"]["bounds"][0]["model_extra"])
    assert extras[0] == extras[1]


def test_report_rejects_nonpositive_z_before_any_stage(tmp_path, capsys, monkeypatch):
    def stage_ran(*_):
        raise AssertionError("a stage ran before the bounds input was checked")

    monkeypatch.setattr(cli, "estimate_alpha", stage_ran)
    monkeypatch.setattr(cli, "bracket_detail", stage_ran)
    out = tmp_path / "report.json"
    assert run_cli(["report", "--z", "0:5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "domain error: Z must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [["alpha", "--n", "100000:100000", "--restarts", "1"], ["alpha", "--n", "2:1001"],
     ["alpha", "--n", "2:2", "--restarts", "1000000000000"],
     ["report", "--n", "2:100000"], ["report", "--restarts", "1000001"],
     ["alpha", "--n", "2:2", "--restarts", "1", "--tol", "0"]],
    ids=" ".join,
)
def test_oversized_alpha_input_is_a_one_line_domain_error(tmp_path, capsys, monkeypatch, args):
    def stage_ran(*_):
        raise AssertionError("a stage ran on an alpha input that should have been rejected")

    monkeypatch.setattr(cli, "estimate_alpha", stage_ran)
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_lemma3_and_cubic_pass(tmp_path):
    out = tmp_path / "lemmas.json"
    assert run_cli(["verify", "--lemma", "lemma3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["lemmas"][0]["pass"] is True
    assert run_cli(["verify", "--lemma", "cubic", "--grid-beta", "101"]) == 0


def test_verify_lemma4_exits_2(tmp_path):
    out = tmp_path / "lemma4.json"
    code = run_cli(["verify", "--lemma", "lemma4", "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    report = payload["results"]["lemmas"][0]
    assert report["pass"] is False
    assert report["min_margin"] < 0


@pytest.mark.parametrize("flags", [
    "--grid-z 100000 --grid-ratio 100000",  # 10^10 lemma3 points, 74.5 GiB per array
    "--grid-z 1000 --n-above 1000000",  # 4 * 10^9 lemma4 real-N points
    "--grid-beta 1000000000",
    # beta ranges outside lo <= hi < 1
    "--beta-range 0.9:0.85 --grid-beta 3",
    "--beta-range 0.83:5 --grid-beta 2",
    "--beta-range 1:1",
    # at the default --grid-beta 1 too, where only lo is used
    "--beta-range 0.9:5",
    "--beta-range 0.9:0.85",
    "--grid-z 0",
    "--grid-beta 0",
])
def test_oversized_verify_grid_is_a_one_line_domain_error(tmp_path, capsys, monkeypatch, flags):
    def lemma_ran(*_):
        raise AssertionError("a lemma ran on a grid that should have been rejected")

    monkeypatch.setattr(cli, "verify_lemma", lemma_ran)
    out = tmp_path / "lemmas.json"
    assert run_cli(["verify", "--lemma", "all", *flags.split(), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and err.count("\n") == 1
    assert not out.exists()


def test_verify_all_contains_three_reports(tmp_path):
    out = tmp_path / "all.json"
    code = run_cli(["verify", "--lemma", "all", "--out", str(out)])
    assert code == 2  # lemma4 as printed fails on its small pockets
    payload = json.loads(out.read_text())
    assert [r["lemma"] for r in payload["results"]["lemmas"]] == [
        "lemma3",
        "lemma4",
        "cubic-signs",
    ]


# ---------------------------------------------------------------------------
# report command and determinism
# ---------------------------------------------------------------------------

REPORT_ARGS = ["report", "--n", "2:3", "--restarts", "4", "--nodes", "60", "--z", "1:6"]


def test_report_json_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(REPORT_ARGS + ["--out", str(out)]) == 0
    first = out.read_bytes()
    assert run_cli(REPORT_ARGS + ["--out", str(out)]) == 0
    assert out.read_bytes() == first
    payload = json.loads(first)
    assert list(payload) == ["config", "results", "timings", "version"]
    assert set(payload["results"]) == {"alpha", "beta", "bounds", "lemmas"}
    assert all(v == 0.0 for v in payload["timings"].values())


def test_report_csv_byte_identical(tmp_path):
    out = tmp_path / "report.csv"
    assert run_cli(REPORT_ARGS + ["--format", "csv", "--out", str(out)]) == 0
    first = out.read_bytes()
    assert run_cli(REPORT_ARGS + ["--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert first.decode().splitlines()[1] == "Z,lieb,main,implicit_N,model_extra"


def test_report_svg_well_formed(tmp_path):
    out = tmp_path / "report.svg"
    assert run_cli(REPORT_ARGS + ["--format", "svg", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<?xml")
    xml.dom.minidom.parseString(text)
    first = out.read_bytes()
    assert run_cli(REPORT_ARGS + ["--format", "svg", "--out", str(out)]) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("z", ["1e17", "1e300"])
def test_single_charge_svg_past_2_53_has_finite_coordinates(tmp_path, z):
    # a one-row table has no x width, and a unit added at this size rounds away
    out = tmp_path / "bounds.svg"
    assert run_cli(["bounds", "--z", f"{z}:{z}", "--format", "svg", "--out", str(out)]) == 0
    doc = xml.dom.minidom.parseString(out.read_text())
    coordinates = [float(v) for e in doc.getElementsByTagName("*")
                   for name, value in e.attributes.items()
                   if name in ("x", "y", "x1", "y1", "x2", "y2", "points")
                   for v in value.replace(",", " ").split()]
    assert coordinates and all(map(math.isfinite, coordinates))


def test_report_timings_flag_embeds_wall_clock(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(REPORT_ARGS + ["--timings", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert any(v > 0.0 for v in payload["timings"].values())


def _json_results(tmp_path, args, name):
    out = tmp_path / name
    assert run_cli(args + ["--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_report_composes_the_standalone_stages(tmp_path):
    alpha_args = ["--n", "2:3", "--restarts", "2"]
    bounds_args = ["--z", "1:6", "--model", "bosonic", "--B", "10"]
    report_args = ["report", *alpha_args, "--nodes", "30", *bounds_args]
    report = _json_results(tmp_path, report_args, "report.json")
    standalone = [
        _json_results(tmp_path, ["alpha", *alpha_args], "alpha.json"),
        _json_results(tmp_path, ["beta", "--nodes", "30"], "beta.json"),
        _json_results(tmp_path, ["bounds", *bounds_args], "bounds.json"),
    ]
    for payload in standalone:
        (key, section), = payload["results"].items()
        assert report["results"][key] == section
    # the model constants are echoed, so the config alone reproduces the run
    assert list(report["config"]["parameters"])[-3:] == ["C", "Ckappa", "C2"]
    other = _json_results(tmp_path, report_args + ["--C2", "3"], "report_c2.json")
    assert other["config"] != report["config"]
    assert other["results"]["bounds"] != report["results"]["bounds"]


# ---------------------------------------------------------------------------
# usage errors and the empty-bundle contract
# ---------------------------------------------------------------------------

def test_usage_error_exit_1(capsys):
    assert run_cli(["alpha", "--n", "bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exit_1(capsys):
    assert run_cli(["alpha", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "alpha" in err


@pytest.mark.parametrize(
    "args",
    [["bounds", "--seed", "1"], ["bounds", "--tol", "1e-3"], ["verify", "--seed", "1"],
     ["verify", "--tol", "1e-3"], ["beta", "--seed", "1"], ["beta", "--lambda-grid", "24"]],
    ids=" ".join,
)
def test_flags_a_command_never_reads_are_rejected(capsys, args):
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: ionbound {args[0]}: unrecognized arguments: {args[1]} {args[2]}\n"


@pytest.mark.parametrize(
    "command, keys",
    [
        (["alpha", "--n", "2:2", "--restarts", "1"], ["seed", "out", "format", "tol"]),
        (["beta", "--nodes", "20"], ["out", "format", "tol"]),
        (["bounds", "--z", "1:2"], ["out", "format"]),
        (["verify", "--lemma", "lemma3"], ["out", "format"]),
        (["report", "--n", "2:2", "--restarts", "1", "--nodes", "20", "--z", "1:2"],
         ["seed", "out", "format", "tol"]),
    ],
    ids=["alpha", "beta", "bounds", "verify", "report"],
)
def test_config_echoes_only_flags_the_command_reads(tmp_path, command, keys):
    config = _json_results(tmp_path, command, "out.json")["config"]
    assert list(config) == ["command", "parameters", *keys]


def test_unknown_command_exit_1(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_empty_range_exit_1(capsys):
    assert run_cli(["alpha", "--n", "5:2"]) == 1
    assert "empty range" in capsys.readouterr().err
    assert run_cli(["bounds", "--z", "4:1:0.5"]) == 1


def test_empty_lemma_list_serializes_to_empty_array():
    args = build_parser().parse_args(["verify"])
    payload = _payload(args, {"lemmas": []}, {"verify": 0.0})
    assert payload["results"]["lemmas"] == []
    assert json.loads(_json_text(payload))["results"]["lemmas"] == []


@pytest.mark.parametrize(
    "args",
    [
        ["alpha", "--seed", "-1"],
        ["alpha", "--seed", "18446744073709551616"],
        ["bounds", "--z", "nan:3"],
        ["bounds", "--z", "1:1e400"],
        ["bounds", "--z", "1:1e12"],
        ["bounds", "--coeff", "nan"],
        ["beta", "--tol", "nan"],
        ["beta", "--range", "1:nan"],
        ["verify", "--lemma", "lemma3", "--beta-range", "nan:1"],
        ["report", "--n", "2:2", "--restarts", "1", "--z", "1:inf"],
        ["bounds", "--coeff", "abc"],
        ["alpha", "--n", "1:1000001"],
        ["bounds", "--z", "1:2000000"],
        ["bounds", "--z", "1:2:3:4"],
        ["beta", "--range", "1:2:3"],
        ["verify", "--lemma", "lemma3", "--format", "csv"],  # verify writes JSON only
        ["verify", "--lemma", "lemma3", "--format", "svg"],
        ["bounds", "--z", "1:3", "--format", "svg", "--timings"],  # timings are JSON-only
        ["bounds", "--z", "1:3", "--timings"],  # bounds writes CSV by default
    ],
    ids=" ".join,
)
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [["beta", "--nodes", "100000000"], ["beta", "--range", "1e100:1e160"],
     ["beta", "--range", "1e-200:1e-100"], ["beta", "--range", "1e-150:1e150", "--nodes", "50"],
     ["report", "--n", "2:2", "--restarts", "1", "--nodes", "100000000"]],
    ids=" ".join,
)
def test_out_of_domain_beta_nodes_are_a_one_line_domain_error(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert run_cli(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("domain error: node ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [
    pytest.param("--range 1:1e100 --nodes 50", id="1:1e100"),
    pytest.param("--range 1e-50:1e50 --nodes 50", id="1e-50:1e50"),
    pytest.param("--nodes 1", id="one-node"),  # the grid is the one node sqrt(lo hi)
])
def test_beta_at_the_widest_node_span_runs_without_warnings(tmp_path, flags):
    out = tmp_path / "beta.json"
    assert run_cli(["beta", *flags.split(), "--out", str(out)]) == 0
    beta = json.loads(out.read_text())["results"]["beta"]
    assert beta["lower"] <= beta["upper"]


def test_unwritable_out_exits_1(tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing" / "x.csv"
    assert run_cli(["bounds", "--z", "1:3", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: cannot write ")
    assert not out.exists()
    assert list(tmp_path.rglob(".ionbound-tmp-*")) == []
    # a rename that fails after the temporary file is written removes that file
    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cli.os, "replace", failing_replace)
    out = tmp_path / "x.csv"
    assert run_cli(["bounds", "--z", "1:3", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: cannot write {out}: No space left on device"
    assert sum(line.startswith("error: ") for line in err) == 1
    assert not out.exists()
    assert list(tmp_path.rglob(".ionbound-tmp-*")) == []


def test_library_error_that_is_not_a_domain_error_exits_1(tmp_path, capsys, monkeypatch):
    from ionbound import beta

    monkeypatch.setattr(beta, "_OUTER_ITERATIONS", 1)
    out = tmp_path / "beta.json"
    assert run_cli(["beta", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: Dinkelbach iteration cap reached\n"
    assert not out.exists()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ionbound.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_runtime_imports_are_numpy_only():
    # scipy and mpmath may serve the tests and the bench as oracles, never the package
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ionbound, ionbound.cli; print(sorted({'scipy', 'mpmath'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# start-up: each call loads only its command's layers, and the process exit
# ---------------------------------------------------------------------------

def _loaded_after(argv: list) -> list:
    """numpy and the ionbound modules a fresh process holds after main(argv)."""
    code = ("import json, sys, ionbound, ionbound.cli\n"
            f"if {argv!r}: ionbound.cli.main({argv!r})\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m == 'numpy' or m.startswith('ionbound.'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# each case lists the layers and, explicitly, numpy when the call must load it
@pytest.mark.parametrize("argv, layers", [
    ([], []),
    (["bounds", "--coeff", "nan"], []),  # a parse error returns before any layer loads
    (["bogus"], []),
    (["bounds", "--z", "1:3"], ["bounds"]),  # bounds is pure Python, in every format
    (["bounds", "--z", "1:3", "--format", "svg", "--out", "OUT"], ["bounds", "plots"]),
    (["bounds", "--z", "1:3", "--format", "svg"], ["bounds"]),  # plots loads only to write
    (["verify", "--lemma", "cubic"], ["bounds", "lemmas", "numpy"]),
    (["beta", "--nodes", "10"], ["beta", "kernels", "numpy"]),
    (["alpha", "--n", "2:2", "--restarts", "1"], ["alpha", "kernels", "numpy"]),
    (["bounds", "--z", "1:3", "--format", "json"], ["bounds"]),
    # a malformed range is reported before its command's layer loads
    (["bounds", "--z", "nan:3"], []),
    (["alpha", "--n", "2:x"], []),
    (["beta", "--range", "1:2:3"], []),
    (["verify", "--beta-range", "x"], []),
    (["report", "--n", "2:2", "--restarts", "1", "--nodes", "10", "--z", "1:3", "--format", "svg",
      "--out", "OUT"],
     ["alpha", "beta", "bounds", "kernels", "lemmas", "plots", "numpy"]),
])
def test_a_call_loads_only_its_commands_layers(tmp_path, argv, layers):
    modules = ["ionbound.cli", "ionbound.errors"]
    modules += [l if l == "numpy" else f"ionbound.{l}" for l in layers]
    argv = [str(tmp_path / "out.svg") if a == "OUT" else a for a in argv]
    assert _loaded_after(argv) == sorted(modules)


def test_every_public_name_resolves_lazily():
    code = ("import sys, ionbound\n"
            "assert 'ionbound.alpha' not in sys.modules\n"
            "from ionbound import *\n"
            "from ionbound.beta import DEFAULT_BETA_LOWER as beta_default\n"
            "assert beta_default == ionbound.DEFAULT_BETA_LOWER == 0.8218\n"
            "assert set(ionbound.__all__) <= set(dir(ionbound))\n"
            "print(sorted(n for n in ionbound.__all__ if n not in globals()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    with pytest.raises(AttributeError):
        ionbound.no_such_name
    # the CLI binds the package's table: each public name is the package's object
    assert [n for n in ionbound.__all__ if getattr(cli, n) is not getattr(ionbound, n)] == []


def test_process_exit_writes_what_main_writes(tmp_path):
    # the __main__ path freezes the heap before exiting; main itself never does
    in_process, spawned = tmp_path / "main.csv", tmp_path / "spawned.csv"
    frozen = gc.get_freeze_count()
    assert main(["bounds", "--z", "1:3", "--format", "csv", "--out", str(in_process)]) == 0
    assert gc.get_freeze_count() == frozen
    proc = subprocess.run(
        [sys.executable, "-m", "ionbound.cli", "bounds", "--z", "1:3", "--format", "csv",
         "--out", str(spawned)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert spawned.read_bytes() == in_process.read_bytes()
    err = proc.stderr.splitlines()
    assert err[-2].startswith("stage bounds: ") and err[-1] == f"wrote {spawned}"


def test_process_exit_code_is_mains():
    proc = subprocess.run([sys.executable, "-m", "ionbound.cli", "bounds", "--z", "0:5"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "domain error: Z must be positive\n"


def test_g_panel_grid_is_linspace():
    import numpy as np

    panel = cli._g_panel(None)
    assert panel.series[0].x == np.linspace(0.8, 1.0, 201).tolist()

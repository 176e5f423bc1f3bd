"""The checked records: every way of building one runs its checks, and every
record gets them from ``errors.Checked``."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from ionbound.alpha import OptimizerSettings
from ionbound.beta import BetaSettings, RadialMeasure
from ionbound.bounds import BoundInputs
from ionbound.errors import DomainError
from ionbound.kernels import ParticleConfiguration
from ionbound.lemmas import LemmaGrid

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ionbound"

# a valid record, a field, a bad value with its message, and a good value
RECORDS = [
    (BoundInputs(), "B", -1.0, "B must be non-negative", 3.0),
    (OptimizerSettings(), "seed", -1, "seed must be non-negative", 5),
    (BetaSettings(), "node_count", 0, "node count must lie in [1, 5000], got 0", 50),
    (RadialMeasure([1.0, 2.0], [0.5, 0.5]), "weights", [0.5, 0.6],
     "weights must sum to 1 within 1e-12", [0.25, 0.75]),
    (LemmaGrid(), "z_points", 0, "grid counts must be >= 1", 40),
    (ParticleConfiguration([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), "points",
     [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "minimum pair distance 0 below coincidence threshold",
     [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
]


@pytest.mark.parametrize("record, field, bad, message, good", RECORDS,
                         ids=[type(case[0]).__name__ for case in RECORDS])
def test_every_route_to_a_record_checks_it(record, field, bad, message, good):
    cls = type(record)
    fields = record._asdict()
    builds = {
        "constructor": lambda value: cls(**{**fields, field: value}),
        "_make": lambda value: cls._make(value if name == field else fields[name]
                                         for name in cls._fields),
        "_replace": lambda value: record._replace(**{field: value}),
    }
    for route, build in builds.items():
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build(bad)
        built = build(good)
        assert type(built) is cls and np.array_equal(getattr(built, field), good), route


def _classes():
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
                yield path.stem, node.name, methods, bases


def test_only_checked_defines_make_and_every_check_comes_through_it():
    makes = [(module, name) for module, name, methods, _ in _classes() if "_make" in methods]
    assert makes == [("errors", "Checked")]
    checked = {name: "Checked" in bases for _, name, methods, bases in _classes()
               if "_check" in methods}
    assert checked == {type(case[0]).__name__: True for case in RECORDS}

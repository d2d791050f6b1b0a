"""Property tests for the input boundary: config and snapshot parsers.

Whatever the document, a parser either returns or raises
SpecValidationError (which the CLI maps to exit 2); nothing else escapes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmaflow.cli import SNAPSHOT_MAGIC, RunConfig, read_snapshot
from qmaflow.errors import SpecValidationError
from qmaflow.fields import TorusGrid

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

numbers = (
    st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0, 1, 2, 3, 4, 16, -1, 0.5, math.nan, math.inf])
)
scalars = st.none() | st.booleans() | numbers | st.text(max_size=4)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
small_ints = st.integers(-2, 20)
int_lists = st.lists(small_ints | numbers, max_size=5)
trig_terms = st.lists(
    st.fixed_dictionaries(
        {"k": int_lists | json_values, "amplitude": numbers | scalars},
        optional={"phase": numbers | scalars},
    ),
    max_size=3,
)
fields = {
    "n": small_ints | json_values,
    "grid": st.fixed_dictionaries(
        {"active_dims": int_lists | json_values, "sizes": int_lists | json_values}
    )
    | json_values,
    "omega_h": st.fixed_dictionaries({}, optional={"c": numbers, "rho": trig_terms})
    | json_values,
    "f": trig_terms
    | st.fixed_dictionaries({"manufactured": st.fixed_dictionaries({"u_star": trig_terms})})
    | json_values,
    "u0": trig_terms | json_values,
    "sigma": numbers | json_values,
    "tol_steady": numbers | json_values,
    "t_max": numbers | json_values,
    "snapshot_interval": numbers | json_values,
    "seed": numbers | json_values,
    "output_dir": scalars,
}
VALID = {
    "n": 2,
    "grid": {"active_dims": [0, 4], "sizes": [16, 16]},
    "omega_h": {"c": 1.0, "rho": [{"k": [0, 1], "amplitude": 0.05}]},
    "f": {"manufactured": {"u_star": [{"k": [1, 0], "amplitude": 0.1}]}},
    "sigma": 0.2,
    "t_max": 10.0,
}
configs = (
    st.fixed_dictionaries({}, optional=fields).map(lambda d: {**VALID, **d})
    | st.fixed_dictionaries({}, optional=fields)
    | json_values
)


@SETTINGS
@given(data=configs)
def test_run_config_from_json_returns_or_rejects(tmp_path, data):
    try:
        config = RunConfig.from_json(data, tmp_path)
    except SpecValidationError:
        return
    for value in (config.omega_h_c, config.sigma, config.tol_steady, config.t_max):
        assert math.isfinite(value)
    # integers are taken as they are, never coerced from floats, strings or booleans
    grid = data["grid"]
    ints = [data["n"], config.seed, *grid["active_dims"], *grid["sizes"]]
    assert (config.n, config.grid.active_dims, config.grid.sizes) == (
        data["n"],
        tuple(grid["active_dims"]),
        tuple(grid["sizes"]),
    )
    f = data.get("f", [])
    terms = [
        *(data.get("omega_h", {}).get("rho") or []),
        *(f["manufactured"]["u_star"] if isinstance(f, dict) else f),
        *(data.get("u0") or []),
    ]
    specs = (config.omega_h_rho, config.f_spec, config.u_star_spec, config.u0_spec)
    parsed = [term for spec in specs if spec is not None for term in spec.terms]
    assert [list(term.k) for term in parsed] == [term["k"] for term in terms]
    ints += [c for term in terms for c in term["k"]]
    assert all(type(value) is int for value in ints)


GRID = TorusGrid(n=2, active_dims=(0, 4), sizes=(2, 3))
headers = (
    st.fixed_dictionaries(
        {"format": st.just(SNAPSHOT_MAGIC)},
        optional={
            "n": st.just(2) | json_values,
            "active_dims": st.just([0, 4]) | json_values,
            "sizes": st.just([2, 3]) | int_lists | json_values,
        },
    )
    | json_values
)
payloads = (
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=6, max_size=6).map(
        lambda xs: np.asarray(xs, dtype="<f8").tobytes()
    )
    | st.binary(max_size=64)
)


@SETTINGS
@given(
    header=headers | st.binary(max_size=32),
    payload=payloads,
    with_grid=st.booleans(),
)
def test_read_snapshot_returns_or_rejects(tmp_path, header, payload, with_grid):
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8") + b"\n"
    path = tmp_path / "prop.snap"
    path.write_bytes(header + payload)
    try:
        _, values = read_snapshot(path, GRID if with_grid else None)
    except SpecValidationError:
        return
    if with_grid:
        values = values.values
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize(
    "key, value", [("n", 2.0), ("n", "2"), ("sizes", [2.0, 3]), ("sizes", "23"), ("active_dims", "04")]
)
def test_read_snapshot_rejects_header_values_of_the_wrong_type(tmp_path, key, value):
    head = {"format": SNAPSHOT_MAGIC, "n": 2, "active_dims": [0, 4], "sizes": [2, 3], key: value}
    path = tmp_path / "bad.snap"
    path.write_bytes(json.dumps(head).encode() + b"\n" + np.arange(6.0).tobytes())
    for grid in (GRID, None):
        with pytest.raises(SpecValidationError, match="must be"):
            read_snapshot(path, grid)


def test_read_snapshot_accepts_a_valid_file(tmp_path):
    head = {"format": SNAPSHOT_MAGIC, "n": 2, "active_dims": [0, 4], "sizes": [2, 3]}
    path = tmp_path / "ok.snap"
    path.write_bytes(json.dumps(head).encode() + b"\n" + np.arange(6.0).tobytes())
    _, field = read_snapshot(path, GRID)
    assert np.array_equal(field.values, np.arange(6.0).reshape(2, 3))
    with pytest.raises(SpecValidationError):
        read_snapshot(path, TorusGrid(n=2, active_dims=(0, 4), sizes=(3, 2)))

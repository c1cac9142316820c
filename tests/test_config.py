"""The JSON config codec: exact round trips, integer fields, the README's configs."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothmask import cli
from smoothmask.dataset import Location
from smoothmask.kernels import (
    KERNELS,
    BivariateNormalKernel,
    BlockRegion,
    EuclideanKernel,
    PointSource,
    RingAngleKernel,
    RingBlockKernel,
    RingKernel,
    kernel_from_json,
    kernel_to_json,
)
from smoothmask.risk import scenario_from_json
from smoothmask.sim import (
    FIELDS,
    BlockedExposure,
    DirectionalExposure,
    RadialExposure,
    config_from_json,
    field_from_json,
    field_to_json,
)

_FINITE = st.floats(-1e6, 1e6)
_POSITIVE = st.floats(1e-6, 1e6)
_SOURCES = st.builds(
    PointSource,
    loc=st.builds(Location, _FINITE, _FINITE),
    direction=st.tuples(_FINITE, _FINITE).filter(lambda d: math.hypot(*d) > 0),
)
_REGIONS = st.builds(BlockRegion, threshold_x=_FINITE, threshold_cos=_FINITE, source=_SOURCES)
_KERNEL_STRATEGIES = {
    EuclideanKernel: st.builds(EuclideanKernel),
    RingKernel: st.builds(RingKernel, source=_SOURCES),
    RingAngleKernel: st.builds(RingAngleKernel, source=_SOURCES, angle_scale=st.floats(0.0, 1e6)),
    RingBlockKernel: st.builds(RingBlockKernel, region=_REGIONS),
    BivariateNormalKernel: st.builds(BivariateNormalKernel, var1=_POSITIVE, var2=_POSITIVE,
                                     rho=st.floats(-0.999, 0.999)),
}
_FIELD_STRATEGIES = {
    RadialExposure: st.builds(RadialExposure, source=_SOURCES, amplitude=_FINITE,
                              scale=_POSITIVE),
    DirectionalExposure: st.builds(DirectionalExposure, source=_SOURCES, amplitude=_FINITE,
                                   radial_scale=_POSITIVE, direction_scale=_POSITIVE),
    BlockedExposure: st.builds(BlockedExposure, region=_REGIONS, amplitude=_FINITE,
                               scale=_POSITIVE),
}


def _through_text(obj: dict) -> dict:
    return json.loads(json.dumps(obj))


class TestRoundTrip:
    def test_strategies_cover_every_registered_class(self):
        assert set(_KERNEL_STRATEGIES) == set(KERNELS.values())
        assert set(_FIELD_STRATEGIES) == set(FIELDS.values())

    @settings(max_examples=300, deadline=None)
    @given(kernel=st.one_of(*_KERNEL_STRATEGIES.values()))
    def test_kernel(self, kernel):
        assert kernel_from_json(_through_text(kernel_to_json(kernel))) == kernel

    @settings(max_examples=200, deadline=None)
    @given(field=st.one_of(*_FIELD_STRATEGIES.values()))
    def test_field(self, field):
        assert field_from_json(_through_text(field_to_json(field))) == field

    @given(direction=st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))
           .filter(lambda d: 0 < math.hypot(*d) < math.inf))
    def test_normalising_a_direction_twice_changes_nothing(self, direction):
        source = PointSource(direction=direction)
        assert PointSource(direction=source.direction) == source
        assert math.hypot(*source.direction) == pytest.approx(1.0, rel=1e-15)


_STUDY = {"field": {"type": "radial"}, "kernels": {"ring": {"family": "ring"}},
          "mu": -25.0, "beta": 4.0}


class TestIntegerFields:
    def test_integral_floats_are_integers(self):
        cfg = config_from_json(_STUDY | {"seed": 5.0, "n_locations": 50.0, "replicates": 6.0,
                                         "grid": {"nx": 3.0, "ny": 4}})
        values = (cfg.seed, cfg.n_locations, cfg.replicates, cfg.grid_nx, cfg.grid_ny)
        assert values == (5, 50, 6, 3, 4)
        assert all(type(v) is int for v in values)
        scenario = scenario_from_json({"ap_columns": ["x1"], "mc_draws": 20.0, "seed": 0.0})
        assert (scenario.mc_draws, scenario.seed) == (20, 0)

    def test_absent_fields_take_the_dataclass_defaults(self):
        cfg = config_from_json(_STUDY | {"grid": None, "lambdas": None, "scenario": None})
        assert cfg == config_from_json(_STUDY)
        assert (cfg.n_locations, cfg.replicates, cfg.grid_nx, cfg.seed) == (1000, 500, 7, 0)


_README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCKS = re.findall(r"```json\n(.*?)```", _README.read_text(encoding="utf-8"), re.S)


def _parser(obj: dict):
    """The config kind of a README example and the parser `smoothmask` reads it with."""
    if "field" in obj:
        return "study", config_from_json
    if "ap_columns" in obj:
        return "scenario", scenario_from_json
    if obj.get("family") in KERNELS:
        return "kernel", kernel_from_json
    return "model", cli._model_from_json


class TestReadmeConfigs:
    def test_every_kind_has_an_example(self):
        kinds = {_parser(json.loads(block))[0] for block in _BLOCKS}
        assert kinds == {"kernel", "model", "scenario", "study"}

    @pytest.mark.parametrize("block", _BLOCKS, ids=[f"block{i}" for i in range(len(_BLOCKS))])
    def test_example_parses(self, block):
        obj = json.loads(block)
        what, parse = _parser(obj)
        cli._parse_config(what, parse, obj, "README.md")

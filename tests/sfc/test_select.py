"""The curve registry, the default family, and the adaptive selector."""

from __future__ import annotations

import pytest

from repro.config import Config, using
from repro.errors import ConfigError
from repro.keywords import KeywordSpace, WordDimension
from repro.sfc import (
    CURVES,
    CurveChoice,
    GrayCurve,
    HilbertCurve,
    MortonCurve,
    OnionCurve,
    Region,
    make_curve,
    sample_box_regions,
    select_curve,
)
from repro.sfc.select import _exactness_shift, _rescale_region


def create_system(**kwargs):
    from repro.core.system import SquidSystem

    space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=6)
    return SquidSystem.create(space, n_nodes=5, seed=9, **kwargs)


class TestRegistry:
    def test_registry_names(self):
        assert set(CURVES) == {"hilbert", "zorder", "gray", "onion"}

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("hilbert", HilbertCurve),
            ("zorder", MortonCurve),
            ("gray", GrayCurve),
            ("onion", OnionCurve),
        ],
    )
    def test_by_name(self, name, cls):
        curve = make_curve(name, 2, 4)
        assert type(curve) is cls
        assert curve.name == name
        assert (curve.dims, curve.order) == (2, 4)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigError) as exc:
            make_curve("peano", 2, 4)
        message = str(exc.value)
        assert "peano" in message
        for name in sorted(CURVES):
            assert name in message


class TestDefaults:
    """What a system is built on when no ``curve=`` is given (``repro.config``)."""

    def test_builtin_default_is_hilbert(self, monkeypatch):
        monkeypatch.delenv("REPRO_CURVE", raising=False)
        assert isinstance(create_system().curve, HilbertCurve)

    def test_env_variable_selects_family(self, monkeypatch):
        monkeypatch.setenv("REPRO_CURVE", "onion")
        assert isinstance(create_system().curve, OnionCurve)

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CURVE", "zorder")
        with using(Config(curve="gray")):
            assert isinstance(create_system().curve, GrayCurve)
        assert isinstance(create_system().curve, MortonCurve)  # env visible again

    def test_set_default_validates(self):
        with using(Config(curve="bogus")), pytest.raises(ConfigError) as exc:
            create_system()
        for name in [*CURVES, "auto"]:  # every name the config accepts
            assert name in str(exc.value)

    def test_set_default_accepts_auto(self):
        with using(Config(curve="auto")):
            assert create_system().curve.name in CURVES

    def test_system_uses_default(self):
        with using(Config(curve="onion")):
            assert isinstance(create_system().curve, OnionCurve)
        assert isinstance(create_system(curve="gray").curve, GrayCurve)

    def test_default_does_not_disturb_ring_ids(self, monkeypatch):
        """Switching the default family must not consume extra seed draws:
        node identifiers stay bit-identical across curve choices."""
        monkeypatch.delenv("REPRO_CURVE", raising=False)
        baseline = create_system()
        with using(Config(curve="onion")):
            other = create_system()
        assert baseline.overlay.node_ids() == other.overlay.node_ids()


class TestExactness:
    def test_aligned_region_coarsens(self):
        region = Region.from_bounds([(0, 7), (8, 15)])
        assert _exactness_shift(region, 4) == 3

    def test_unaligned_region_does_not(self):
        region = Region.from_bounds([(1, 6), (0, 15)])
        assert _exactness_shift(region, 4) == 0

    def test_rescale_round_trips(self):
        region = Region.from_bounds([(0, 7), (8, 15)])
        down = _rescale_region(region, -3)
        assert down.boxes[0].intervals[0].low == 0
        assert down.boxes[0].intervals[0].high == 0
        assert _rescale_region(down, 3) == region


class TestSampleBoxRegions:
    def test_shape_and_seeding(self):
        a = sample_box_regions(2, 6, samples=4, rng=11)
        b = sample_box_regions(2, 6, samples=4, rng=11)
        assert a == b
        assert len(a) == 12  # 3 default extents x 4 samples
        for region in a:
            assert region.dims == 2
            for iv in region.boxes[0].intervals:
                assert 0 <= iv.low <= iv.high < 64


class TestSelectCurve:
    def _sample(self):
        return sample_box_regions(2, 6, samples=6, rng=42)

    def test_returns_choice_with_all_scores(self):
        choice = select_curve(self._sample(), 2, 6)
        assert isinstance(choice, CurveChoice)
        assert choice.name in CURVES
        assert choice.order == 6
        assert set(choice.scores) == {(name, 6) for name in CURVES}
        assert choice.score == min(choice.scores.values())

    def test_box_workload_prefers_hilbert(self):
        """On random cube queries the Hilbert curve clusters best (Moon)."""
        choice = select_curve(self._sample(), 2, 6)
        assert choice.name == "hilbert"

    def test_make_instantiates_winner(self):
        choice = select_curve(self._sample(), 2, 6)
        curve = choice.make(2)
        assert curve.name == choice.name
        assert curve.order == choice.order

    def test_empty_sample_falls_back_to_default_workload(self):
        choice = select_curve([], 2, 6, rng=7)
        assert choice.name in CURVES
        assert choice.order == 6

    def test_restricted_candidate_families(self):
        choice = select_curve(self._sample(), 2, 6, curves=["zorder", "gray"])
        assert choice.name in {"zorder", "gray"}

    def test_unknown_candidate_family(self):
        with pytest.raises(ConfigError):
            select_curve(self._sample(), 2, 6, curves=["peano"])

    def test_dims_mismatch(self):
        region = Region.from_bounds([(0, 3), (0, 3), (0, 3)])
        with pytest.raises(ConfigError):
            select_curve([region], 2, 6)

    def test_coarser_order_admitted_when_aligned(self):
        """Block-aligned samples admit coarser orders, which always win:
        same answers, fewer cells, fewer clusters."""
        aligned = [
            Region.from_bounds([(0, 31), (32, 63)]),
            Region.from_bounds([(32, 63), (0, 31)]),
        ]
        choice = select_curve(aligned, 2, 6, orders=[1, 2, 6])
        assert choice.order == 1
        # Unaligned samples pin the order even when coarser ones are offered.
        pinned = select_curve([Region.from_bounds([(1, 6), (0, 63)])], 2, 6, orders=[1, 6])
        assert pinned.order == 6

    def test_point_workload_ties_break_by_preference(self):
        """Point queries cost one cluster under every family; the paper's
        default wins the tie."""
        points = [Region.from_bounds([(3, 3), (5, 5)])]
        choice = select_curve(points, 2, 6)
        assert choice.name == "hilbert"


class TestAutoCreate:
    def test_auto_with_query_sample(self):
        from repro.core.system import SquidSystem

        space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=6)
        system = SquidSystem.create(
            space,
            n_nodes=4,
            curve="auto",
            seed=5,
            curve_sample=["(apple, banana)", "(ap*, b*)"],
        )
        assert system.curve.name in CURVES
        assert system.curve.order == 6
        result = system.query("(ap*, banana)")
        assert result.stats.messages >= 0

    def test_auto_without_sample_uses_seeded_boxes(self):
        from repro.core.system import SquidSystem

        space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=6)
        one = SquidSystem.create(space, n_nodes=4, curve="auto", seed=5)
        two = SquidSystem.create(space, n_nodes=4, curve="auto", seed=5)
        assert one.curve.name == two.curve.name
        assert one.overlay.node_ids() == two.overlay.node_ids()

    def test_auto_accepts_region_sample(self):
        from repro.core.system import SquidSystem

        space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=6)
        sample = [Region.from_bounds([(0, 15), (0, 63)])]
        system = SquidSystem.create(
            space, n_nodes=4, curve="auto", seed=5, curve_sample=sample
        )
        assert system.curve.name in CURVES

"""The curve registry and the default family."""

from __future__ import annotations

import pytest

from repro.config import Config, using
from repro.errors import ConfigError
from repro.keywords import KeywordSpace, WordDimension
from repro.sfc import (
    CURVES,
    GrayCurve,
    HilbertCurve,
    MortonCurve,
    OnionCurve,
    make_curve,
)


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
        for name in CURVES:  # every name the config accepts
            assert name in str(exc.value)
        with using(Config(curve="auto")), pytest.raises(ConfigError):
            create_system()  # no selector: only registered families

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

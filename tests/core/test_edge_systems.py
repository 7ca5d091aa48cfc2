"""Edge-configuration systems: extreme dimensionalities and resolutions.

The paper evaluates 2-D and 3-D spaces; the library should degrade
gracefully at the edges — 1-D spaces, 5-D spaces, 1-bit coordinates, tiny
rings — without violating the exactness guarantee.
"""

import numpy as np
import pytest

from repro import KeywordSpace, NumericDimension, SquidSystem, WordDimension


def assert_exact(system, query, engine=None):
    got = sorted(map(id, system.query(query, engine=engine, rng=0).matches))
    want = sorted(map(id, system.brute_force_matches(query)))
    assert got == want


class TestOneDimensional:
    def test_word_1d(self):
        space = KeywordSpace([WordDimension("kw")], bits=10)
        system = SquidSystem.create(space, n_nodes=12, seed=0)
        for word in ["alpha", "beta", "alphabet", "gamma", "al"]:
            system.publish((word,))
        for q in ["(al*,)".replace(",)", ")"), "(alpha)", "(*)"]:
            assert_exact(system, q)

    def test_numeric_1d_ranges(self):
        space = KeywordSpace([NumericDimension("x", 0, 100)], bits=8)
        system = SquidSystem.create(space, n_nodes=10, seed=1)
        rng = np.random.default_rng(2)
        for v in rng.uniform(0, 100, size=120):
            system.publish((float(v),))
        for q in ["(10-20)", "(0-100)", "(*-5)", "(95-*)"]:
            assert_exact(system, q)


class TestHighDimensional:
    def test_5d_words(self):
        space = KeywordSpace([WordDimension(f"k{i}") for i in range(5)], bits=5)
        system = SquidSystem.create(space, n_nodes=20, seed=3)
        rng = np.random.default_rng(4)
        words = ["aa", "bb", "cc", "dd", "ee", "ff"]
        for _ in range(150):
            system.publish(tuple(words[i] for i in rng.integers(0, 6, size=5)))
        assert_exact(system, "(aa, *, *, *, *)")
        assert_exact(system, "(*, *, cc, *, *)")
        assert_exact(system, "(aa, bb, *, *, ee)")

    def test_4d_mixed(self):
        space = KeywordSpace(
            [
                WordDimension("name"),
                NumericDimension("a", 0, 10),
                NumericDimension("b", 0, 10),
                NumericDimension("c", 0, 10),
            ],
            bits=6,
        )
        system = SquidSystem.create(space, n_nodes=16, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(100):
            system.publish(
                ("node", float(rng.uniform(0, 10)), float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
            )
        assert_exact(system, "(node, 2-8, *, 0-5)")


class TestExtremeResolutions:
    def test_one_bit_coordinates(self):
        """bits=1: the keyword space is a 2x2 grid — everything collides,
        the post-filter does all the work."""
        space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=1)
        system = SquidSystem.create(space, n_nodes=3, seed=7)
        for pair in [("alpha", "beta"), ("zeta", "omega"), ("alpha", "omega")]:
            system.publish(pair)
        assert_exact(system, "(alpha, *)")
        assert_exact(system, "(alpha, beta)")
        assert_exact(system, "(*, *)")

    def test_high_resolution_word_space(self):
        space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=30)
        system = SquidSystem.create(space, n_nodes=8, seed=8)
        system.publish(("exactlythisword", "andthatone"), payload=1)
        result = system.query("(exactlythisword, andthatone)", rng=0)
        assert result.match_count == 1
        # Exact queries stay point lookups even at 60-bit indices.
        assert result.stats.processing_node_count <= 3


class TestTinyRings:
    def test_two_node_system(self):
        space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=8)
        from repro.overlay.chord import ChordRing

        ring = ChordRing.build(16, [100, 40000])
        system = SquidSystem(space, ring)
        for pair in [("aa", "bb"), ("cc", "dd"), ("ee", "ff")]:
            system.publish(pair)
        assert_exact(system, "(*, *)")
        assert_exact(system, "(aa, *)")

    def test_single_node_system(self):
        space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=8)
        from repro.overlay.chord import ChordRing

        ring = ChordRing.build(16, [777])
        system = SquidSystem(space, ring)
        system.publish(("solo", "node"))
        result = system.query("(solo, *)", rng=0)
        assert result.match_count == 1
        assert result.stats.processing_node_count == 1
        # The sole node's arc is the whole space — above its identifier too.
        for word in ("alpha", "kilo", "zulu"):
            system.publish((word, word))
            system.publish((word[::-1], "node"))
        assert {e.index > 777 for e in system.brute_force_matches("(*, *)")} == {True, False}
        for engine in ("optimized", "naive"):
            assert_exact(system, "(*, *)", engine=engine)
            assert_exact(system, "(*, node)", engine=engine)

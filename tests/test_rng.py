import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import projforest
from projforest import grow_arrays, stream

SOURCE = Path(projforest.__file__).resolve().parent

# Names that build a numpy bit generator or seed sequence.
GENERATOR_BUILDERS = {"SeedSequence", "PCG64", "default_rng", "RandomState"}


def spawned(seed, key):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


class TestStream:
    def test_same_seed_same_sequence(self):
        a = stream(123, 4).random(100)
        b = stream(123, 4).random(100)
        np.testing.assert_array_equal(a, b)
        g1 = stream(9, 0).standard_normal(50)
        g2 = stream(9, 0).standard_normal(50)
        np.testing.assert_array_equal(g1, g2)

    def test_distinct_streams_differ(self):
        a = stream(123, 0).random(100)
        b = stream(123, 1).random(100)
        assert not np.array_equal(a, b)

    def test_gaussian_moments(self):
        x = stream(7, 0).standard_normal(1_000_000)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.02

    def test_uniform_moments(self):
        x = stream(8, 0).random(1_000_000)
        assert abs(x.mean() - 0.5) < 0.01
        assert x.min() >= 0.0 and x.max() < 1.0

    def test_pairwise_stream_correlation(self):
        n = 100_000
        draws = [stream(3, sid).random(n) for sid in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                rho = np.corrcoef(draws[i], draws[j])[0, 1]
                assert abs(rho) < 0.01

    @pytest.mark.parametrize("seed", [0, 123, np.int64(9), np.uint64(2**63 + 5)])
    @pytest.mark.parametrize("j", [0, 4, np.int64(11)])
    def test_keyed_stream_draws_the_spawned_seed_sequence(self, seed, j):
        np.testing.assert_array_equal(stream(seed, j).integers(2**63, size=16),
                                      spawned(seed, (j,)).integers(2**63, size=16))

    @pytest.mark.parametrize("seed", [0, 123, np.int64(9), 2**63 - 1])
    def test_unkeyed_stream_draws_the_seed_sequence(self, seed):
        np.testing.assert_array_equal(stream(seed).random(16), spawned(seed, ()).random(16))


def attribute_names(path):
    """Every name and attribute name a module's source mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


class TestSourceGuards:
    def test_only_rng_builds_generators(self):
        builders = {
            path.name: sorted(attribute_names(path) & GENERATOR_BUILDERS)
            for path in sorted(SOURCE.glob("*.py"))
            if path.name != "rng.py"
        }
        assert {name: found for name, found in builders.items() if found} == {}

    def test_tree_does_not_import_projection(self):
        imported = set()
        for node in ast.walk(ast.parse((SOURCE / "tree.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not {name for name in imported if "projection" in name}

    def test_grow_arrays_takes_five_required_parameters(self):
        params = inspect.signature(grow_arrays).parameters.values()
        assert [p.name for p in params] == ["X", "Y", "Z", "cfg", "gen"]
        assert all(p.default is inspect.Parameter.empty for p in params)

"""Tests for repro.utils helpers."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import (
    EQ_TOL,
    Timer,
    ensure_rng,
    is_close,
    is_improvement,
    leq_with_tol,
    nonnegative,
)
from repro.utils.jsonfmt import dumps_indented
from repro.utils.validation import check_edge_weight, check_positive_int, check_probability


class TestTolerances:
    def test_leq_exact(self):
        assert leq_with_tol(1.0, 1.0)
        assert leq_with_tol(1.0, 2.0)
        assert not leq_with_tol(2.0, 1.0)

    def test_leq_within_tolerance(self):
        assert leq_with_tol(1.0 + 1e-12, 1.0)

    def test_leq_scales_with_magnitude(self):
        assert leq_with_tol(1e9 + 1.0, 1e9, tol=1e-8)
        assert not leq_with_tol(1e9 + 100.0, 1e9, tol=1e-9)

    def test_improvement_is_negation(self):
        for a, b in [(1.0, 1.0), (1.0, 1.0 + 1e-12), (0.5, 1.0), (2.0, 1.0)]:
            assert is_improvement(a, b) == (not leq_with_tol(b, a))

    def test_tie_is_not_improvement(self):
        assert not is_improvement(1.0, 1.0)
        assert not is_improvement(1.0 - 1e-13, 1.0)
        assert is_improvement(0.9, 1.0)

    def test_is_close(self):
        assert is_close(1.0, 1.0 + EQ_TOL / 10)
        assert not is_close(1.0, 1.1)

    def test_nonnegative_clips(self):
        assert nonnegative(-1e-12) == 0.0
        assert nonnegative(2.5) == 2.5

    def test_nonnegative_rejects(self):
        with pytest.raises(ValueError):
            nonnegative(-0.5)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        assert ensure_rng(42).random() == ensure_rng(42).random()

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng


class TestTimer:
    def test_elapsed_nonnegative(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed >= 0.0


class TestValidation:
    def test_edge_weight_ok(self):
        assert check_edge_weight(0) == 0.0
        assert check_edge_weight(float("inf")) == float("inf")

    def test_edge_weight_bad(self):
        with pytest.raises(ValueError):
            check_edge_weight(-1)
        with pytest.raises(ValueError):
            check_edge_weight(float("nan"))

    def test_positive_int(self):
        assert check_positive_int(3) == 3
        with pytest.raises(ValueError):
            check_positive_int(0)
        with pytest.raises(TypeError):
            check_positive_int(2.5)
        with pytest.raises(TypeError):
            check_positive_int(True)

    def test_probability(self):
        assert check_probability(0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability(-0.1)
        with pytest.raises(ValueError):
            check_probability(1.1)


# ---------------------------------------------------------------------------
# dumps_indented: the stdlib's indent=2 bytes from the C encoder
# ---------------------------------------------------------------------------

#: characters that stress the re-indent: escapes, quotes, structural
#: characters inside strings, non-ASCII text and a lone surrogate
_TRICKY = ['"', "\\", '\\"', "\\\\", "[", "]", "{", "}", ",", ":", ": ", "\n", "\t", "\x00",
           "\x1f", "é", "日本", "\U0001f600", "\ud800", "[]", "{}", " "]

_text = st.lists(st.sampled_from(_TRICKY) | st.text(max_size=3), max_size=4).map("".join)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | _text
)
_keys = _text | st.integers(-5, 5) | st.floats(allow_nan=False) | st.booleans() | st.none()
_trees = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_keys, children, max_size=4),
    max_leaves=30,
)


def _assert_matches_stdlib(obj, **kw):
    try:
        expected = json.dumps(obj, indent=2, **kw)
    except TypeError:  # sort_keys over keys of mixed types
        with pytest.raises(TypeError):
            dumps_indented(obj, **kw)
        return
    assert dumps_indented(obj, **kw) == expected


def _sized(make, length):
    """``make(pad)`` with the pad that gives a compact text of ``length``."""
    for pad in range(length + 1):
        obj = make(pad)
        if len(json.dumps(obj, separators=(",", ":"))) == length:
            return obj
    raise AssertionError(f"no pad reaches compact length {length}")


#: payloads padded to a chosen compact length: a scalar, empty containers
#: and escapes in keys and values
_SIZED = {
    "scalar": lambda pad: 'q"\\\n' + "x" * pad,
    "empty-containers": lambda pad: {"a": [], "b": {}, "c": [[], {}, [{}]], "pad": "x" * pad},
    "escapes": lambda pad: {'k"]\\': ["[{,:}]", '\\"', "\t"], "é": ["x" * pad, None]},
}


class TestDumpsIndented:
    @settings(max_examples=400, deadline=None)
    @given(obj=_trees, sort_keys=st.booleans(), ensure_ascii=st.booleans())
    def test_matches_stdlib_indent_2(self, obj, sort_keys, ensure_ascii):
        _assert_matches_stdlib(obj, sort_keys=sort_keys, ensure_ascii=ensure_ascii)

    @pytest.mark.parametrize(
        "obj",
        [
            0, "x", None, float("nan"), [], {}, [[]], [{}], {"a": []}, {"a": {}},
            [[], [[]], {"b": [{}]}], {"": ""}, ['"', "\\", '\\"', "a\\\\"],
            {'k"]': ["[{,:}]", "é\ud800"]}, {1: 2, 2.5: [], None: {}, True: "t"},
            [float("inf"), -float("inf"), 1e300, -0.0],
        ],
    )
    @pytest.mark.parametrize("sort_keys", [False, True])
    @pytest.mark.parametrize("ensure_ascii", [False, True])
    def test_edge_cases(self, obj, sort_keys, ensure_ascii):
        _assert_matches_stdlib(obj, sort_keys=sort_keys, ensure_ascii=ensure_ascii)

    @pytest.mark.parametrize("length", [64, 512, 4096])
    @pytest.mark.parametrize("shape", sorted(_SIZED))
    def test_sized_payloads(self, shape, length):
        obj = _sized(_SIZED[shape], length)
        _assert_matches_stdlib(obj)
        _assert_matches_stdlib(obj, sort_keys=True, ensure_ascii=False)

    def test_deep_nesting(self):
        obj = []
        for i in range(200):
            obj = [obj, {"depth": i}]
        assert dumps_indented(obj) == json.dumps(obj, indent=2)

    def test_encoder_errors_pass_through(self):
        with pytest.raises(ValueError):
            dumps_indented([float("nan")], allow_nan=False)
        with pytest.raises(TypeError):
            dumps_indented({"x": object()})
        assert dumps_indented({"x": {1, 2}}, default=sorted) == json.dumps(
            {"x": [1, 2]}, indent=2
        )

    def test_sweep_json_out_bytes_pinned(self, tmp_path):
        """``--json-out`` of a fixed LP-free sweep, digest taken while the
        records were still written by the stdlib's pure-Python encoder."""
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "solvers": ["theorem6", "combinatorial", "aon-greedy"],
            "models": ["tree-chords"], "sizes": [8, 12], "count": 2, "seed": 5,
        }))
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--spec", str(spec), "--json-out", str(out), "--no-cache", "--quiet"]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c619b63938c63a8879aa275a2ca9d88332d5130978ca017e165b007e6aac5a54"
        )

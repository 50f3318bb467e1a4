"""Exact rational operators, the snap recipe, phase tags, and the registry."""

import copy
import dataclasses
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_density,
    random_hermitian,
    random_resolution,
    reference_rationalize_po,
    reference_semidefinite,
    reference_snap,
    saved_layout_registry,
)
from nchv import opcore, povmfamily
from nchv.errors import (
    PrecisionError,
    RegistryCollisionError,
    ValidationError,
    WeightNormalizationError,
)
from nchv.opcore import operator_norm, validate_resolution
from nchv.povmfamily import (
    RationalOperator,
    RationalResolution,
    ResolutionRegistry,
    _povm_weights,
    _rationalize,
    _norm_at_most,
    _snap,
    is_admissible,
    phase_tag,
    rationalize_po,
    sample_povm_outcomes,
    snap_resolution,
)

F = Fraction


def rational(rows):
    return RationalOperator.from_float(np.array(rows, dtype=complex))


class TestRationalOperator:
    def test_dyadic_floats_convert_exactly(self):
        m = rational([[0.5, 0.25], [0.25, 0.75]])
        assert m.rows[0][0] == (F(1, 2), F(0))
        assert m.rows[1][0] == (F(1, 4), F(0))
        assert np.array_equal(m.to_complex(), np.array([[0.5, 0.25], [0.25, 0.75]]))

    def test_arithmetic(self):
        a = rational([[1, 2], [3, 4]])
        b = rational([[5, 6], [7, 8]])
        assert (a + b).rows[0][1] == (F(8), F(0))
        assert (a - b).rows[1][1] == (F(-4), F(0))
        assert (a @ b).rows[0][0] == (F(19), F(0))
        assert a.scale(F(1, 3)).rows[1][0] == (F(1), F(0))

    def test_dagger_conjugates(self):
        m = RationalOperator.from_float(np.array([[0, 1j], [0, 0]]))
        assert m.dagger().rows[1][0] == (F(0), F(-1))

    def test_hermitian_detection_is_exact(self):
        assert rational([[1, 0.5], [0.5, 2]]).is_hermitian()
        assert not rational([[1, 0.5], [0.25, 2]]).is_hermitian()

    def test_equality_and_hash(self):
        a = rational([[1, 0], [0, 1]])
        assert a == RationalOperator.identity(2)
        assert hash(a) == hash(RationalOperator.identity(2))
        assert a != RationalOperator([[0, 0], [0, 0]], [[0, 0], [0, 0]])

    def test_psd_certificates(self):
        assert rational([[2, 1], [1, 2]]).is_positive_semidefinite()
        assert rational([[1, 1], [1, 1]]).is_positive_semidefinite()
        assert not rational([[1, 2], [2, 1]]).is_positive_semidefinite()

    def test_json_roundtrip(self):
        m = RationalOperator.from_float(
            np.array([[0.5, 0.125 + 0.25j], [0.125 - 0.25j, 0.5]])
        )
        again = RationalOperator.from_json(m.to_json())
        assert again == m

    @pytest.mark.parametrize("edit, message", [
        (lambda o: o["entries"][1][0]["im"].update(den=2.7), "entries[1][0].im.den must be an integer, got 2.7"),
        (lambda o: o["entries"][0][1]["re"].update(num=True),
         "entries[0][1].re.num must be an integer, got a boolean"),
        # the first failing read decides: the missing key before the bad number read after it
        (lambda o: (o["entries"][0][1].pop("im"), o["entries"][0][1]["re"].update(num="3")),
         "entries[0][1] must be an object with a key 'im', got an object without it"),
        (lambda o: o["entries"][1].pop(), "entries[1] must be a list of 2 items, got 1 items"),
        (lambda o: o["entries"][0].__setitem__(0, [1, 2]),
         "entries[0][0] must be an object with a key 're', got a list"),
        (lambda o: o.__setitem__("entries", {"a": [], "b": []}),
         "entries must be a list of 2 items, got an object"),
    ], ids=["float", "bool", "missing-first", "short-row", "list-entry", "object-rows"])
    def test_json_errors_name_the_key_path(self, edit, message):
        obj = rational([[0.5, 0.125 + 0.25j], [0.125 - 0.25j, 0.75]]).to_json()
        edit(obj)
        with pytest.raises(ValidationError, match=re.escape(f"rational operator.{message}") + "$"):
            RationalOperator.from_json(obj)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: RationalOperator([[1]], [[0, 0]]), ValidationError,
         "rational operator must be square and nonempty"),
        (lambda: RationalOperator([], []), ValidationError, "rational operator must be square and nonempty"),
        (lambda: RationalOperator([[1]], [[0]], 0), ValidationError,
         "rational operator denominator must be positive"),
        (lambda: setattr(RationalOperator.identity(2), "den", 2), AttributeError,
         "RationalOperator is immutable"),
        (lambda: RationalOperator.identity(2) + RationalOperator.identity(3), ValidationError,
         "rational operator dimension mismatch"),
        (lambda: RationalOperator.identity(2) @ np.eye(2), ValidationError,
         "rational operator dimension mismatch"),
    ], ids=["ragged", "empty", "zero-denominator", "assignment", "other-dimension", "not-rational"])
    def test_malformed_operations_raise(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call()

    def test_json_entries_are_read_without_a_node_per_key(self, monkeypatch):
        keys = []
        real = opcore.JsonNode.__getitem__
        monkeypatch.setattr(opcore.JsonNode, "__getitem__",
                            lambda self, key: keys.append(key) or real(self, key))
        m = rational([[0.5, 0.125 + 0.25j], [0.125 - 0.25j, 0.75]])
        assert RationalOperator.from_json(m.to_json()) == m
        assert keys == ["dim", "entries"]

    def test_norm_bound_is_exact(self):
        m = rational([[0.5, 0], [0, -1.0 / 3.0]])
        # |M| = 1/2 exactly; 1/2 <= 1/2 passes, 1/2 <= 2/5 does not
        assert _norm_at_most(m.re, m.im, m.den, F(1, 2))
        assert not _norm_at_most(m.re, m.im, m.den, F(2, 5))

    def test_admissibility(self):
        assert is_admissible(rational([[0.5, 0.25], [0.25, 0.5]]))
        assert not is_admissible(rational([[0.5, 0], [0, 0.5]]))  # zero entries
        assert not is_admissible(rational([[1, 2], [2, 1]]))  # not PSD

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_from_float_respects_denominator_cap(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        cap = povmfamily.DEFAULT_DENOMINATOR_CAP
        m = RationalOperator.from_float(x)
        for a in range(2):
            for b in range(2):
                re, im = m.rows[a][b]
                assert re.denominator <= cap and im.denominator <= cap
        assert operator_norm(m.to_complex() - x) < 4 / cap


@st.composite
def hermitian_integer_matrices(draw):
    """(re, im, den) of a Hermitian matrix with integer numerators, n <= 8.

    Numerators are small or, as real snaps produce, near 2**50: Gram
    matrices X*X get X entries near 2**25. Near-singular cases are X*X of
    rank below n, and X*X with the smallest nonzero step taken off one
    diagonal entry or off all of them.
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "rank-deficient", "gram", "gram-minus-step",
                                 "zero-diagonal", "zero"]))
    big = draw(st.booleans())

    def ints(rows, bits):
        small = st.integers(-4, 4)
        near = st.integers(2**bits - 4, 2**bits + 4)
        entry = (small | near | near.map(lambda x: -x)) if big else small
        return np.array(draw(st.lists(entry, min_size=rows * n, max_size=rows * n)),
                        dtype=object).reshape(rows, n)

    if kind in ("rank-deficient", "gram", "gram-minus-step"):
        # X*X with X of fewer rows than columns has rank below n
        rows = {"rank-deficient": draw(st.integers(0, n - 1)), "gram": n + 1,
                "gram-minus-step": draw(st.integers(0, n))}[kind]
        xr, xi = ints(rows, 25), ints(rows, 25)
        re, im = xr.T @ xr + xi.T @ xi, xr.T @ xi - xi.T @ xr
        if kind == "gram-minus-step":
            where = draw(st.integers(-1, n - 1))
            for i in range(n) if where < 0 else [where]:
                re[i, i] -= 1
    elif kind == "zero":
        re = im = np.zeros((n, n), dtype=object)
    else:
        a, b = ints(n, 50), ints(n, 50)
        re, im = a + a.T, b - b.T
        if kind == "zero-diagonal":
            np.fill_diagonal(re, 0)
            if n > 1 and not (re.any() or im.any()):
                re[0, 1] = re[1, 0] = 1
    return re.tolist(), im.tolist(), draw(st.integers(1, 12))


class TestCertificate:
    @given(mat=hermitian_integer_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_sylvester_reference(self, mat):
        op = RationalOperator(*mat)
        assert op.is_positive_semidefinite() == reference_semidefinite(op.rows)


class TestExactRepresentation:
    def test_saved_layout_with_coprime_denominators_loads_unchanged(self, tmp_path):
        obj = saved_layout_registry()
        member = obj["entries"][0]["base"]["members"][0]
        op = RationalOperator.from_json(member)
        assert op.den == 105 and op.rows[0][1] == (F(1, 7), F(1, 5))
        assert op.to_json() == member
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(obj, sort_keys=True) + "\n")
        reg = ResolutionRegistry.load(path)
        assert reg.to_json() == obj
        reg.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_equality_and_hash_are_canonical(self):
        x = RationalOperator([[1, 2], [3, 4]], [[0, 1], [-1, 0]], 3)
        z = RationalOperator.from_float(np.array([[0.5, 0.25j], [0.75, 1.0 / 3.0]]))
        unreduced = x.to_json()
        unreduced["entries"][0][0]["re"] = {"num": 2, "den": 6}
        same = [
            RationalOperator([[4, 8], [12, 16]], [[0, 4], [-4, 0]], 12),
            (x + z) - z,
            x.scale(F(7, 7)),
            x @ RationalOperator.identity(2),
            x.dagger().dagger(),
            RationalOperator.from_json(unreduced),
        ]
        for other in same:
            assert other == x and hash(other) == hash(x) and other.den == 3
        assert x != RationalOperator([[1, 2], [3, 4]], [[0, 1], [-1, 0]], 6)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(30)
        reg = ResolutionRegistry(3)
        for k in (2, 3, 4):
            reg.register(snap_resolution(random_resolution(3, k, rng), 0.01), 0.5)
        reg.save(tmp_path / "first.json")
        ResolutionRegistry.load(tmp_path / "first.json").save(tmp_path / "second.json")
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_snap_denominators_and_size(self, n):
        res = snap_resolution(random_resolution(n, 4, np.random.default_rng(40 + n)), 1e-3)
        assert max(m.den.bit_length() for m in res.members) <= 128
        if n == 4:
            assert len(json.dumps(res.to_json(), sort_keys=True)) <= 9600

    @pytest.mark.parametrize("n, k", [(2, 4), (4, 4), (8, 4), (3, 3)])
    def test_snap_denominators_have_only_the_weights_odd_factor(self, n, k):
        def odd(x):
            return x >> ((x & -x).bit_length() - 1)

        targets = random_resolution(n, k, np.random.default_rng(40 + n))
        res, diag = snap_resolution(targets, 1e-3, return_diagnostics=True)
        weights_odd = odd(math.lcm(*(w.denominator for w in diag.mix_weights)))
        assert all(weights_odd % odd(m.den) == 0 for m in res.members)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_rationalized_operators_sit_on_a_power_of_two_grid(self, n):
        member = random_resolution(n, 3, np.random.default_rng(50 + n))[0]
        out = rationalize_po(member, delta=1e-4)
        assert out.den & (out.den - 1) == 0
        assert operator_norm(out.to_complex() - member) < 1e-4


    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_from_float_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValidationError):
            RationalOperator.from_float(np.array([[0.5, bad], [bad, 0.5]]))

    @pytest.mark.parametrize("huge", [1e300, -1e300, 1e300j])
    def test_from_float_rejects_entries_that_overflow_the_grid(self, huge):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                RationalOperator.from_float(np.array([[huge, 0], [0, 1.0]]))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_arithmetic_lands_on_the_constructed_value(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))

        def draw():
            return RationalOperator(rng.integers(-9, 10, (n, n)), rng.integers(-9, 10, (n, n)),
                                    int(rng.integers(1, 13)))

        def built(entries):
            # public constructor on a common, unreduced denominator
            den = 2 * math.lcm(*(q.denominator for row in entries for e in row for q in e))
            return RationalOperator([[int(e[0] * den) for e in row] for row in entries],
                                    [[int(e[1] * den) for e in row] for row in entries], den)

        def mul(u, v):
            return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]

        x, y = draw(), draw()
        f = F(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
        a, b, r = x.rows, y.rows, range(n)
        cases = [
            (x + y, [[(a[i][j][0] + b[i][j][0], a[i][j][1] + b[i][j][1]) for j in r] for i in r]),
            (x - y, [[(a[i][j][0] - b[i][j][0], a[i][j][1] - b[i][j][1]) for j in r] for i in r]),
            (x @ y, [[tuple(map(sum, zip(*(mul(a[i][t], b[t][j]) for t in r)))) for j in r]
                     for i in r]),
            (x.scale(f), [[(f * a[i][j][0], f * a[i][j][1]) for j in r] for i in r]),
            (x.dagger(), [[(a[j][i][0], -a[j][i][1]) for j in r] for i in r]),
        ]
        for got, entries in cases:
            want = built(entries)
            assert got == want and hash(got) == hash(want)
            assert all(type(v) is int for part in (got.re, got.im) for row in part for v in row)


class TestRationalizePo:
    def test_admissible_dyadic_target_returned_unchanged(self):
        target = np.array([[0.75, 0.125], [0.125, 0.25]])
        out = rationalize_po(target, delta=1e-3)
        assert np.array_equal(out.to_complex(), target)

    def test_zero_entries_get_bumped(self):
        out = rationalize_po(np.diag([0.5, 0.5]), delta=1e-4)
        assert is_admissible(out)
        assert operator_norm(out.to_complex() - np.diag([0.5, 0.5])) < 1e-4

    def test_zero_operator_becomes_small_positive(self):
        out = rationalize_po(np.zeros((2, 2)), delta=1e-5)
        assert is_admissible(out)
        assert operator_norm(out.to_complex()) < 1e-5

    def test_rank_one_projector(self):
        v = np.array([1.0, 2.0]) / np.sqrt(5.0)
        p = np.outer(v, v)
        out = rationalize_po(p, delta=1e-6)
        assert is_admissible(out)
        assert operator_norm(out.to_complex() - p) < 1e-6

    @pytest.mark.parametrize("target", [np.array([[0.75, 0.125], [0.125, 0.25]]),
                                        np.diag([0.5, 0.5]), np.full((3, 3), 0.3) + 0.1 * np.eye(3)],
                             ids=["exact", "bumped", "rounded"])
    def test_one_eigendecomposition(self, target, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, *args, real=real, **kw: calls.append(1) or real(a, *args, **kw))
        rationalize_po(target, delta=1e-3)
        assert len(calls) == 1

    @pytest.mark.parametrize("huge", [1e300, 1e299])
    def test_entries_that_overflow_the_grid_rejected(self, huge):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                rationalize_po(np.diag([huge, 1.0]), 1e-3)

    def test_non_positive_target_rejected(self):
        with pytest.raises(ValidationError):
            rationalize_po(np.diag([1.0, -0.2]), delta=1e-3)

    def test_unreachable_delta_raises(self):
        with pytest.raises(PrecisionError):
            rationalize_po(np.diag([0.5, 0.5]), delta=1e-12)

    @pytest.mark.parametrize("delta", [1e-310, 5e-324])
    def test_subnormal_delta(self, delta):
        with pytest.raises(PrecisionError, match="resolution of the denominator cap"):
            rationalize_po(np.diag([0.5, 0.5]), delta)
        target = np.array([[0.75, 0.125], [0.125, 0.25]])
        assert np.array_equal(rationalize_po(target, delta).to_complex(), target)

    @pytest.mark.parametrize("delta", [0.0, -1e-3, np.nan, np.inf])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(ValidationError, match="finite positive"):
            rationalize_po(np.diag([0.5, 0.5]), delta)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_positive_operators(self, seed):
        rng = np.random.default_rng(seed)
        member = random_resolution(3, 2, rng)[0]
        out = rationalize_po(member, delta=1e-4)
        assert is_admissible(out)
        assert operator_norm(out.to_complex() - member) < 1e-4


class TestSnapResolution:
    def test_two_outcome_qubit_example(self):
        t1 = np.array([[0.75, 0.125], [0.125, 0.25]])
        targets = [t1, np.eye(2) - t1]
        res, diag = snap_resolution(targets, 0.1, return_diagnostics=True)
        total = res.members[0] + res.members[1]
        assert total == RationalOperator.identity(2)
        assert diag.max_member_shift < 0.1
        assert diag.sum_gap_within_bound

    def test_projective_targets_with_zero_entries(self):
        targets = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        res = snap_resolution(targets, 0.05)
        assert all(is_admissible(m) for m in res.members)
        assert res.members[0] + res.members[1] == RationalOperator.identity(2)

    def test_member_shift_strictly_below_eps(self):
        rng = np.random.default_rng(14)
        targets = random_resolution(3, 4, rng)
        res = snap_resolution(targets, 0.02)
        for t, m in zip(targets, res.members):
            assert operator_norm(m.to_complex() - t) < 0.02

    def test_rejects_single_member(self):
        with pytest.raises(ValidationError):
            snap_resolution([np.eye(2)], 0.1)

    def test_rejects_non_resolution(self):
        with pytest.raises(ValidationError):
            snap_resolution([np.eye(2), np.eye(2)], 0.1)

    def test_rejects_nonpositive_eps(self):
        targets = [np.eye(2) / 2, np.eye(2) / 2]
        for eps in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite positive"):
                snap_resolution(targets, eps)

    @given(
        seed=st.integers(0, 10**5),
        n=st.integers(2, 4),
        k=st.integers(2, 5),
    )
    @settings(max_examples=20, deadline=None)
    def test_exact_identity_for_random_targets(self, seed, n, k):
        rng = np.random.default_rng(seed)
        targets = random_resolution(n, k, rng)
        res = snap_resolution(targets, 0.05)
        total = res.members[0]
        for m in res.members[1:]:
            total = total + m
        assert total == RationalOperator.identity(n)


def _outcome(fn, *args):
    """The return value of ``fn(*args)``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the result compared
        return type(exc)


class TestStackedSnap:
    """The stacked float pass and the integer grid against the member-by-member recipe."""

    # below 5e-7 the rational bound is 3/4 eps itself; from about 2e-8 down delta falls
    # below the denominator cap's resolution, so 1e-8 raises on both sides
    PARITY_EPS = (0.3, 0.1, 3e-2, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 6e-7, 4.9e-7, 1e-7, 3e-8, 1e-8)

    def test_matches_the_reference_on_the_parity_grid(self):
        outcomes = []
        for seed in (0, 1):
            for n in range(2, 7):
                for k in range(2, 6):
                    targets = random_resolution(n, k, np.random.default_rng([seed, n, k]))
                    for eps in self.PARITY_EPS:
                        got = _outcome(snap_resolution, targets, eps, True)
                        assert got == _outcome(reference_snap, targets, eps), (seed, n, k, eps)
                        outcomes.append(got)
        assert len(outcomes) == 520 and outcomes.count(PrecisionError) == 40

    @pytest.mark.parametrize("eps", [0.3, 0.05, 1e-4])
    def test_mixed_stack_with_a_member_already_on_the_grid(self, eps):
        on_grid = np.array([[0.5, 0.25], [0.25, 0.5]])
        rest = np.eye(2) - on_grid
        wobble = 0.01 * random_hermitian(2, np.random.default_rng(3))
        targets = [on_grid, rest / 3 + wobble, 2 * rest / 3 - wobble]
        assert snap_resolution(targets, eps, return_diagnostics=True) == reference_snap(targets, eps)
        if eps == 0.3:
            # k = 3 at eps 0.3 shrinks by 7/8, which keeps the first target on the 2**-32 grid
            primed = _rationalize(0.875 * np.array(targets, dtype=complex), 9 / 320)
            assert [bits for *_, bits in primed][0] == 32
            re, im, _ = primed[0]
            assert RationalOperator(re, im, 2**32) == RationalOperator.from_float(0.875 * on_grid)

    @pytest.mark.parametrize("target, delta", [
        (np.array([[0.5, 0.1], [0.3, 0.5]]), 1e-3),
        (np.diag([1.0, -0.2]), 1e-3),
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), 1e-3),
        (np.array([[np.inf, 0.0], [0.0, 0.5]]), 1e-3),
        (np.diag([1e300, 1.0]), 1e-3),
        (np.diag([0.5, 0.5]), 1e-12),
        (np.full((2, 2), 0.3) + 0.1 * np.eye(2), 1e-12),
        (np.array([[0.75, 0.125], [0.125, 0.25]]), 1e-12),
    ], ids=["non-hermitian", "negative", "nan", "inf", "overflow", "below-cap", "below-cap-full",
            "exact-below-cap"])
    def test_errors_match_the_reference(self, target, delta):
        # inf - inf warns in the reference's Hermiticity check
        with np.errstate(invalid="ignore", over="ignore"):
            want = _outcome(reference_rationalize_po, target, delta)
        assert _outcome(rationalize_po, target, delta) == want
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(rationalize_po, target, delta) == want

    # 1e-9 reaches a delta below the cap; below 1e-18, subnormal eps included, eps fails to bracket
    @pytest.mark.parametrize("eps", [1e-19, 1e-9, 1e-323])
    def test_eps_too_small_to_bracket_matches_the_reference(self, eps):
        targets = random_resolution(3, 3, np.random.default_rng(8))
        want = _outcome(reference_snap, targets, eps)
        assert want is PrecisionError
        assert _outcome(_snap, targets, eps) is want

    def test_stack_errors_name_the_reference_check(self):
        good = random_resolution(2, 2, np.random.default_rng(9))
        for bad in (np.array([[0.5, 0.1], [0.3, 0.5]]), np.diag([1.0, -0.2])):
            with pytest.raises(ValidationError) as exc:
                _rationalize(np.array([good[0], bad, good[1]], dtype=complex), 1e-3)
            with pytest.raises(ValidationError) as ref:
                reference_rationalize_po(bad, 1e-3)
            assert str(exc.value) == str(ref.value)

    @pytest.mark.parametrize("n, k", [(2, 3), (4, 5)])
    def test_one_eigh_and_at_most_2k_rational_operators(self, n, k, monkeypatch):
        targets = random_resolution(n, k, np.random.default_rng(n + k))
        eighs, built = [], []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, *args, real=real, **kw: eighs.append(1) or real(a, *args, **kw))
        init = RationalOperator.__init__
        monkeypatch.setattr(RationalOperator, "__init__",
                            lambda self, *args: built.append(1) or init(self, *args))
        _snap(targets, 1e-4)
        assert len(eighs) == 1
        assert len(built) <= 2 * k


class TestRationalResolution:
    def test_validates_exact_sum(self):
        half = rationalize_po(np.full((2, 2), 0.5) * np.eye(2) + 0.1, delta=0.05)
        with pytest.raises(ValidationError):
            RationalResolution((half, half))

    def test_json_roundtrip(self):
        targets = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        res = snap_resolution(targets, 0.05)
        again = RationalResolution.from_json(res.to_json())
        assert again.members == res.members


class TestPhaseTag:
    def test_first_tag_distance_oracle(self):
        # theta_1 = asin(pi/4); |U_1 - I| = 2 sin(theta_1/2) = 0.87296...
        targets = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        base = snap_resolution(targets, 0.05)
        tagged = phase_tag(base, 1)
        assert tagged.theta == pytest.approx(math.asin(math.pi / 4), abs=1e-15)

    def test_member_shift_bounded_by_four_powers(self):
        targets = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        base = snap_resolution(targets, 0.05)
        for m in (1, 5, 20):
            tagged = phase_tag(base, m)
            bound = 4 * (math.pi / 4) ** m
            for raw, moved in zip(base.to_complex(), tagged.members):
                assert operator_norm(moved - raw) <= bound

    def test_tagged_members_still_resolve_identity(self):
        rng = np.random.default_rng(15)
        base = snap_resolution(random_resolution(2, 3, rng), 0.05)
        tagged = phase_tag(base, 3)
        assert validate_resolution(tagged.members)

    def test_identity_is_base_and_index(self):
        targets = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        base = snap_resolution(targets, 0.05)
        assert phase_tag(base, 2) == phase_tag(base, 2)
        assert phase_tag(base, 2) != phase_tag(base, 3)

    def test_record_is_its_index_and_base(self):
        """Equal records hash alike; the derived angle and members carry no identity."""
        base = snap_resolution([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 0.05)
        first, again = phase_tag(base, 4), phase_tag(base, 4)
        assert first == again and hash(first) == hash(again) and first is not again
        assert first != phase_tag(base, 5)
        assert not hasattr(first, "tag") and not hasattr(first, "dim")

    @pytest.mark.parametrize("index", [3085, 10**30, 10**400], ids=["first-zero", "huge", "past-float-range"])
    def test_underflowing_angle_is_a_precision_error(self, index):
        """A registry file may hold any JSON integer as an index, even one no float can hold."""
        base = snap_resolution([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 0.05)
        with pytest.raises(PrecisionError, match="underflows"):
            phase_tag(base, index)


class TestRegistry:
    def _base(self, rng, n=2, k=3, eps=0.01):
        return snap_resolution(random_resolution(n, k, rng), eps)

    def test_smallest_free_index_for_half(self):
        # 4*(pi/4)^m <= 1/2 first holds at m = 9
        reg = ResolutionRegistry(2)
        assert reg.smallest_free_index(0.5) == 9

    @pytest.mark.parametrize("budget", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_non_positive_budget_rejected(self, budget):
        reg = ResolutionRegistry(2)
        base = self._base(np.random.default_rng(16))
        with pytest.raises(ValidationError, match="budget must be positive"):
            reg.smallest_free_index(budget)
        with pytest.raises(ValidationError, match="budget must be positive"):
            reg.register(base, budget)
        assert len(reg) == 0

    def test_indices_skip_used_slots(self):
        rng = np.random.default_rng(16)
        reg = ResolutionRegistry(2)
        first = reg.register(self._base(rng), 0.5)
        second = reg.register(self._base(rng), 0.5)
        assert (first.index, second.index) == (9, 10)

    def test_cache_hit_after_registration(self):
        rng = np.random.default_rng(17)
        targets = random_resolution(2, 3, rng)
        reg = ResolutionRegistry(2)
        base = snap_resolution(targets, 0.005)
        tagged = reg.register(base, 0.005)
        hits = reg.candidates_within(targets, 0.011)
        assert hits == [tagged]
        assert reg.candidates_within(targets, 1e-9) == []

    def test_collision_guard_fires_when_tags_sink_below_the_floor(self):
        """Tiny tag budgets push theta_m under the disjointness floor."""
        rng = np.random.default_rng(18)
        base = self._base(rng)
        reg = ResolutionRegistry(2)
        reg.register(base, 1.3e-10)
        with pytest.raises(RegistryCollisionError):
            reg.register(base, 1.3e-10)

    def test_min_cross_distance_matches_brute_force(self):
        rng = np.random.default_rng(19)
        reg = ResolutionRegistry(2)
        for _ in range(4):
            reg.register(self._base(rng), 0.5)
        fast = reg.min_cross_member_distance()
        slow = min(
            operator_norm(a - b)
            for i, first in enumerate(reg.entries)
            for j, second in enumerate(reg.entries)
            if i < j
            for a in first.members
            for b in second.members
        )
        assert fast == pytest.approx(slow, abs=1e-12)

    def test_min_cross_distance_on_a_round_robin_registry(self):
        """Three bases registered in turn from index 60 until the guard fires:
        cross-member distances near the 1e-9 floor, far below the members'
        norms, where a Frobenius table without a roundoff margin misorders pairs."""
        rng = np.random.default_rng(18)
        bases = [self._base(rng) for _ in range(3)]
        reg = ResolutionRegistry(2)
        with pytest.raises(RegistryCollisionError):
            for t in range(100):
                reg.register(bases[t % 3], 4 * (math.pi / 4) ** 60)
        assert reg.entries[0].index == 60 and len(reg) > 10
        slow = min(
            operator_norm(a - b)
            for i, first in enumerate(reg.entries)
            for second in reg.entries[:i]
            for a in first.members
            for b in second.members
        )
        assert reg.min_cross_member_distance() == pytest.approx(slow, rel=1e-15, abs=0)

    def test_members_of_one_resolution_do_not_set_the_floor(self):
        # {A, A, B, B} with A + B = I/2: equal members inside one resolution
        a = rational([[0.25, 0.125], [0.125, 0.25]])
        b = rational([[0.25, -0.125], [-0.125, 0.25]])
        base = RationalResolution((a, a, b, b))
        reg = ResolutionRegistry(2)
        reg.register(base, 0.5)
        assert reg.min_cross_member_distance() == math.inf
        reg.register(base, 0.5)
        slow = min(operator_norm(x - y) for x in reg.entries[0].members
                   for y in reg.entries[1].members)
        assert reg.min_cross_member_distance() == pytest.approx(slow, rel=1e-15) and slow > 0

    def test_load_refuses_colliding_members(self):
        # one base at indices 90 and 91: its members differ by about 1e-11
        obj = saved_layout_registry()
        entry = obj["entries"][0]
        obj["entries"] = [dict(entry, index=90), dict(entry, index=91)]
        with pytest.raises(RegistryCollisionError, match="index 91 coincides with one of index 90$"):
            ResolutionRegistry.from_json(obj)
        # entries are added in file order, so the collision outranks a malformed later entry
        obj["entries"].append(dict(entry, index=2.5))
        with pytest.raises(RegistryCollisionError, match="index 91 coincides with one of index 90$"):
            ResolutionRegistry.from_json(obj)

    def test_register_and_load_hold_the_same_member_stack(self, tmp_path):
        reg = self._mixed_registry()
        reg.save(tmp_path / "registry.json")
        again = ResolutionRegistry.load(tmp_path / "registry.json")
        members = np.array([m for e in reg.entries for m in e.members])
        owners = [e.index for e in reg.entries for _ in e.members]
        for r in (reg, again):
            assert np.array_equal(r._members, members) and r._owners.tolist() == owners

    def _mixed_registry(self):
        rng = np.random.default_rng(22)
        reg = ResolutionRegistry(2)
        for k in (3, 2, 3, 3, 2, 3):
            reg.register(self._base(rng, k=k), 0.5)
        return reg

    @staticmethod
    def _brute_force(reg, targets, eps):
        return [
            e for e in reg.entries
            if e.k == len(targets)
            and max(operator_norm(t - m) for t, m in zip(targets, e.members)) < eps
        ]

    @pytest.mark.parametrize("scale", [0.5, 0.95, 1 - 1e-9, 1.0, 1 + 1e-9, 1.05, 1.2, 2.0])
    def test_lookup_matches_brute_force_scan(self, scale):
        reg = self._mixed_registry()
        entry = reg.entries[2]
        # D = diag(t, t/2) has |D| = t but |D|_F = 1.118 t and |D|_F / sqrt(2) = 0.79 t,
        # so from 0.95 t to 1.05 t the Frobenius bounds straddle eps and the SVD decides
        t = 1e-3
        shift = np.diag([t, t / 2])
        targets = [entry.members[0] + shift, entry.members[1] - shift, entry.members[2]]
        eps = scale * operator_norm(targets[0] - entry.members[0])
        hits = reg.candidates_within(targets, eps)
        assert hits == self._brute_force(reg, targets, eps)
        assert (entry in hits) == (scale > 1.0)

    @pytest.mark.parametrize("eps", [1e-6, 0.3, 0.8, 10.0])
    def test_lookup_keeps_registry_order_across_mixed_k(self, eps):
        reg = self._mixed_registry()
        for entry in reg.entries:
            targets = [m + 0.1 * np.eye(2) for m in entry.members]
            hits = reg.candidates_within(targets, eps)
            assert hits == self._brute_force(reg, targets, eps)
        same_k = [e for e in reg.entries if e.k == 3]
        assert reg.candidates_within(targets, 10.0) == same_k and len(same_k) == 4

    def test_far_miss_runs_no_svd(self, monkeypatch):
        reg = self._mixed_registry()
        calls = []
        real = opcore.spectral_norms

        def counted(stack):
            calls.append(len(stack))
            return real(stack)

        monkeypatch.setattr(opcore, "spectral_norms", counted)
        eps = 1e-3
        # every entry sits farther than eps * sqrt(n) in Frobenius norm
        far = [m + 0.1 * np.eye(2) for m in reg.entries[0].members]
        assert reg.candidates_within(far, eps) == []
        assert calls == []
        assert reg.candidates_within(list(reg.entries[0].members), eps) == [reg.entries[0]]
        assert calls == [1]

    def test_collision_guard_catches_a_copied_member_set(self, monkeypatch):
        reg = self._mixed_registry()
        target = reg.entries[3]
        monkeypatch.setattr(povmfamily, "phase_tag", lambda base, index: dataclasses.replace(
            phase_tag(base, index), members=target.members))
        with pytest.raises(RegistryCollisionError,
                           match=f"member of index 90 coincides with one of index {target.index}$"):
            reg.register(target.base, 4 * (math.pi / 4) ** 90)
        assert len(reg) == 6 and len(reg._members) == 16
        monkeypatch.undo()
        assert reg.register(target.base, 4 * (math.pi / 4) ** 30).index == 30

    def test_registration_into_spare_rows_copies_no_held_member(self):
        rng = np.random.default_rng(22)
        reg = ResolutionRegistry(2)
        reg.register(self._base(rng, k=2), 0.5)
        held = reg._members
        before = held.copy()
        reg.register(self._base(rng, k=2), 0.5)
        assert np.shares_memory(held, reg._members) and np.array_equal(held, before)
        assert np.array_equal(reg._members[:2], before) and len(reg._members) == 4

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        reg = self._mixed_registry()
        path = tmp_path / "registry.json"
        reg.save(path)
        before = path.read_bytes()
        reg.register(self._base(np.random.default_rng(23)), 0.5)

        def broken():
            raise RuntimeError("serialisation failed")

        monkeypatch.setattr(reg, "to_json", broken)
        with pytest.raises(RuntimeError):
            reg.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["registry.json"]

    def test_load_maps_file_errors_to_validation_errors(self, tmp_path):
        with pytest.raises(ValidationError):
            ResolutionRegistry.load(tmp_path / "missing.json")
        (tmp_path / "bad.json").write_text("{")
        with pytest.raises(ValidationError):
            ResolutionRegistry.load(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text('{"dim": "two", "entries": []}')
        with pytest.raises(ValidationError):
            ResolutionRegistry.load(tmp_path / "bad.json")

    def test_load_rejects_a_repeated_index(self):
        obj = saved_layout_registry()
        obj["entries"].append(copy.deepcopy(obj["entries"][0]))
        with pytest.raises(ValidationError, match="index 9 appears twice"):
            ResolutionRegistry.from_json(obj)

    def test_load_rejects_an_entry_of_another_dimension(self, tmp_path):
        reg = self._mixed_registry()
        obj = reg.to_json()
        obj["dim"] = 3
        with pytest.raises(ValidationError):
            ResolutionRegistry.from_json(obj)

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(20)
        reg = ResolutionRegistry(2)
        for _ in range(3):
            reg.register(self._base(rng), 0.25)
        path = tmp_path / "registry.json"
        reg.save(path)
        again = ResolutionRegistry.load(path)
        assert [t.index for t in again.entries] == [t.index for t in reg.entries]
        for a, b in zip(again.entries, reg.entries):
            assert a.base.members == b.base.members
            for ma, mb in zip(a.members, b.members):
                assert operator_norm(ma - mb) < 1e-15


class TestPovmSampling:
    def test_weights_and_empirical_agree(self):
        rng = np.random.default_rng(21)
        targets = random_resolution(2, 3, rng)
        base = snap_resolution(targets, 0.01)
        tagged = phase_tag(base, 9)
        d = random_density(2, rng)
        w = _povm_weights(d, tagged.members)
        n = 20000
        outcomes = sample_povm_outcomes(d, tagged, rng, n)
        emp = np.bincount(outcomes, minlength=3) / n
        for i in range(3):
            assert abs(emp[i] - w[i]) < 4 * np.sqrt(w[i] * (1 - w[i]) / n) + 1e-9

    def test_stacked_weights_equal_the_per_member_loop_bit_for_bit(self):
        rng = np.random.default_rng(22)
        for n, k in [(2, 2), (2, 5), (3, 3), (4, 6)]:
            d = random_density(n, rng)
            stack = [phase_tag(snap_resolution(random_resolution(n, k, rng), 0.01), 5).members
                     for _ in range(4)]
            want = []
            for members in stack:
                w = np.array([float(np.trace(d @ m).real) for m in members])
                w = np.clip(w, 0.0, None)
                want.append(w / float(w.sum()))
            assert np.array_equal(_povm_weights(d, stack), np.array(want))
            assert np.array_equal(_povm_weights(d, stack[2]), want[2])

    def test_weights_reject_deficient_members(self):
        members = [np.diag([0.5, 0.5]), np.diag([0.4, 0.4])]
        with pytest.raises(WeightNormalizationError):
            _povm_weights(np.eye(2) / 2, members)

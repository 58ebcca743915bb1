import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitman_lab import HorizonCapError, Path, enumerate_paths, path_count, stats
from pitman_lab.paths import horizon_cap, path_rows


def naive_stats(path):
    """Double-loop oracle for the running extrema."""
    vals = path.values
    t = len(vals) - 1
    K = tuple(min(vals[j:]) for j in range(t + 1))
    M = tuple(max(vals[: j + 1]) for j in range(t + 1))
    U = sum(1 for a, b in zip(vals, vals[1:]) if b - a == 1)
    D = sum(1 for a, b in zip(vals, vals[1:]) if b - a == -1)
    H = t - U - D
    return K, M, U, D, H


class TestPath:
    def test_construction_and_values(self):
        p = Path((1, 0, -1))
        assert p.values == (0, 1, 1, 0)
        assert Path.from_values([0, 1, 1, 0]) == p
        assert Path.parse("0,1,1,0") == p
        assert str(p) == "0,1,1,0"

    def test_validation(self):
        with pytest.raises(ValueError):
            Path((2,))
        with pytest.raises(ValueError):
            Path.from_values([1, 2])
        with pytest.raises(ValueError):
            Path.from_values([0, 2])
        with pytest.raises(ValueError):
            Path((0, 2))
        with pytest.raises(ValueError):
            Path.parse("0,1,3")
        # int() would truncate these to valid paths
        with pytest.raises(ValueError, match="1.5"):
            Path((1.5,))
        with pytest.raises(ValueError, match="0.5"):
            Path.from_values((0, 0.5))
        # numpy integers are integers
        assert Path(np.array([1, 0, -1])) == Path((1, 0, -1))
        assert Path.from_values(np.array([0, -1], dtype=np.int32)).steps == (-1,)

    def test_enumerated_paths_equal_validated_ones(self):
        # enumerate_paths and class_path skip validation; the result must
        # be the path the public constructors build
        from pitman_lab.paths import class_path, path_classes

        for t in range(6):
            built = list(enumerate_paths(t)) + [class_path(t, k) for k, _ in path_classes(t)]
            for p in built:
                q = Path(p.steps)
                assert q == p and q.values == p.values
                assert Path.from_values(p.values).steps == p.steps
                assert p.negate() == Path(-s for s in p.steps)

    def test_immutable_and_hashable(self):
        p = Path((1, -1))
        with pytest.raises(AttributeError):
            p.steps = ()
        assert len({p, Path((1, -1)), Path((0, 0))}) == 2


class TestStats:
    def test_hand_example(self):
        st_ = stats(Path.from_values((0, 1, 1, 0)))
        assert st_.K == (0, 0, 0, 0)
        assert st_.M == (0, 1, 1, 1)
        assert (st_.U, st_.D, st_.H) == (1, 1, 1)

    def test_trivial_paths(self):
        st_ = stats(Path(()))
        assert st_.K == (0,) and st_.M == (0,)
        assert (st_.U, st_.D, st_.H) == (0, 0, 0)
        st_ = stats(Path.from_values((0, -1, -2)))
        assert st_.K == (-2, -2, -2)
        assert st_.M == (0, 0, 0)
        assert (st_.U, st_.D, st_.H) == (0, 2, 0)

    @given(st.lists(st.sampled_from([-1, 0, 1]), max_size=40))
    def test_matches_naive_oracle(self, steps):
        p = Path(steps)
        st_ = stats(p)
        assert (st_.K, st_.M, st_.U, st_.D, st_.H) == naive_stats(p)

    def test_invariants_full_enumeration(self):
        for t in range(7):
            for p in enumerate_paths(t):
                st_ = stats(p)
                assert st_.U + st_.D + st_.H == t
                assert st_.U - st_.D == p.end
                assert st_.K[0] == min(p.values)
                assert st_.M[-1] == max(p.values)
                assert all(a <= b for a, b in zip(st_.K, st_.K[1:]))
                assert all(a <= b for a, b in zip(st_.M, st_.M[1:]))


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_paths(0))) == 1
        assert len(list(enumerate_paths(2, allow_flat=False))) == 4
        assert len(list(enumerate_paths(3, allow_flat=True))) == 27
        assert path_count(5) == 243 and path_count(5, allow_flat=False) == 32

    def test_lexicographic_order(self):
        got = [p.steps for p in enumerate_paths(2)]
        assert got == [
            (-1, -1), (-1, 0), (-1, 1),
            (0, -1), (0, 0), (0, 1),
            (1, -1), (1, 0), (1, 1),
        ]

    def test_each_exactly_once(self):
        seen = list(enumerate_paths(6, allow_flat=False))
        assert len(seen) == len(set(seen)) == 64

    def test_cap_refusal_mentions_count(self, monkeypatch):
        with pytest.raises(HorizonCapError, match="14348907"):
            list(enumerate_paths(14 + 1))
        monkeypatch.setenv("PITMAN_LAB_CAP", "15")
        next(enumerate_paths(15))  # cap lifted via env override

    @pytest.mark.parametrize("cap", ["abc", "1.5", "-3", " ", "1e3"])
    def test_a_malformed_cap_is_refused_by_name(self, monkeypatch, cap):
        monkeypatch.setenv("PITMAN_LAB_CAP", cap)
        with pytest.raises(ValueError, match="^PITMAN_LAB_CAP must be an integer >= 0"):
            horizon_cap()
        with pytest.raises(ValueError, match="PITMAN_LAB_CAP"):
            next(enumerate_paths(1))

    @pytest.mark.parametrize("cap, want", [("", 14), ("0", 0), (" 20 ", 20)])
    def test_a_cap_is_a_decimal_integer(self, monkeypatch, cap, want):
        monkeypatch.setenv("PITMAN_LAB_CAP", cap)
        assert horizon_cap() == want

    @pytest.mark.parametrize("t", [0, 1, 2, 5, 7])
    def test_path_rows_are_the_enumeration(self, t):
        rows = path_rows(t)
        assert rows.dtype == np.int8 and rows.shape == (3**t, t)
        assert [tuple(r) for r in rows.tolist()] == [p.steps for p in enumerate_paths(t)]

    def test_path_rows_refuse_past_the_cap(self, monkeypatch):
        monkeypatch.setenv("PITMAN_LAB_CAP", "3")
        with pytest.raises(HorizonCapError, match="81 paths"):
            path_rows(4)

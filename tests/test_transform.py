from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitman_lab import (
    Path,
    RngStream,
    apply_T,
    enumerate_paths,
    preimage,
    preimage_member,
    preimage_stats,
    stats,
    tropical_identities_batch,
    verify_tropical,
)
from pitman_lab import transform
from pitman_lab.sampling import shard_sizes

step_lists = st.lists(st.sampled_from([-1, 0, 1]), max_size=30)


def tilde_T(g, x):
    """The sign-flipped transform x_j - 2*(max_{i<=j} x_i - g)_+."""
    out, m = [], 0
    for v in x.values:
        m = max(m, v)
        out.append(v - 2 * max(m - g, 0))
    return Path.from_values(out)


def brute_preimage(x, g_max):
    """All (g, s) with g <= g_max mapping onto x, by direct search."""
    t = x.horizon
    found = set()
    for s in enumerate_paths(t):
        for g in range(g_max + 1):
            if apply_T(g, s) == x:
                found.add((g, s))
    return found


class TestApplyT:
    def test_examples(self):
        assert apply_T(0, Path.parse("0,1,0")) == Path.parse("0,1,2")
        assert apply_T(2, Path.parse("0,1,0")) == Path.parse("0,-1,0")
        assert apply_T(0, Path.parse("0,1")) == Path.parse("0,1")

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            apply_T(-1, Path.parse("0,1"))

    @given(step_lists, st.integers(0, 6))
    def test_stays_in_path_space_and_negation(self, steps, g):
        s = Path(steps)
        out = apply_T(g, s)
        assert out.horizon == s.horizon  # Path validates the step sizes itself
        if g >= max(s.values):
            assert out == s.negate()

    @given(step_lists, st.integers(0, 6))
    def test_tilde_is_negation(self, steps, g):
        x = Path(steps)
        assert tilde_T(g, x) == apply_T(g, x).negate()


class TestPreimage:
    def test_single_up_step(self):
        pre = preimage(Path.parse("0,1"))
        assert pre.ray_path == Path.parse("0,-1") and pre.ray_g_min == 0
        assert pre.sporadic == ((0, Path.parse("0,1")),)

    def test_single_down_step(self):
        pre = preimage(Path.parse("0,-1"))
        assert pre.ray_path == Path.parse("0,1") and pre.ray_g_min == 1
        assert pre.sporadic == ()

    def test_trivial_path(self):
        pre = preimage(Path(()))
        assert pre.ray_path == Path(()) and pre.ray_g_min == 0
        assert pre.sporadic == ()

    def test_ray_is_negation_and_sporadic_count(self):
        for t in range(6):
            for x in enumerate_paths(t):
                pre = preimage(x)
                assert pre.ray_path == x.negate()
                assert len(pre.sporadic) == x.end - pre.K0
                members = [s for _, s in pre.sporadic] + [pre.ray_path]
                assert len(set(members)) == len(members)  # pairwise distinct

    def test_members_map_back(self):
        for t in range(6):
            for x in enumerate_paths(t):
                pre = preimage(x)
                for g, s in pre.members(t + 3):
                    assert apply_T(g, s) == x

    @staticmethod
    def assert_members_match_definition(x):
        pre = preimage(x)
        assert pre.ray_path == x.negate() == preimage_member(x, pre.K0)
        assert len(pre.sporadic) == x.end - pre.K0
        for r, (g, s) in enumerate(pre.sporadic, start=pre.K0 + 1):
            expected = preimage_member(x, r)
            assert g == -pre.K0
            assert s == expected and s.values == expected.values

    def test_incremental_members_equal_the_definition_exhaustive(self):
        for t in range(8):
            for x in enumerate_paths(t):
                self.assert_members_match_definition(x)

    @given(st.lists(st.sampled_from([-1, 0, 1]), max_size=40))
    def test_incremental_members_equal_the_definition_long(self, steps):
        self.assert_members_match_definition(Path(steps))

    @pytest.mark.parametrize("t", range(6))
    def test_brute_force_equality(self, t):
        g_max = t  # largest possible running maximum at horizon t
        for x in enumerate_paths(t):
            assert set(preimage(x).members(g_max)) == brute_preimage(x, g_max)


class TestPreimageStats:
    def test_examples(self):
        x = Path.parse("0,1")
        assert preimage_stats(x, 1) == (1, 0, 0)
        assert preimage_stats(x, 0) == (0, 1, 0)

    def test_negation_swaps_up_down(self):
        for t in range(5):
            for x in enumerate_paths(t):
                st_ = stats(x)
                assert preimage_stats(x, st_.K0) == (st_.D, st_.U, st_.H)

    def test_matches_direct_counts(self):
        for t in range(6):
            for x in enumerate_paths(t):
                k0 = stats(x).K0
                for r in range(k0, x.end + 1):
                    direct = stats(preimage_member(x, r))
                    assert preimage_stats(x, r) == (direct.U, direct.D, direct.H)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            preimage_stats(Path.parse("0,1"), 2)
        with pytest.raises(ValueError):
            preimage_member(Path.parse("0,1"), -1)


def test_running_max_identity_exhaustive(running_max_identity):
    for t in range(7):
        for x in enumerate_paths(t):
            k0 = stats(x).K0
            for r in range(k0, x.end + 1):
                assert running_max_identity(x, r)


class TestTropical:
    def test_level_zero_kills_the_max(self):
        # with g = 0 the transformed path has running max 0 everywhere
        for x in enumerate_paths(4):
            y = tilde_T(0, x)
            m = 0
            for v in y.values:
                m = max(m, v)
                assert m == 0

    def test_idempotence(self):
        x = Path.parse("0,1,2,1,0,-1,0")
        for g in range(4):
            assert tilde_T(g, tilde_T(g, x)) == tilde_T(g, x)

    def test_exhaustive_small(self):
        for t in range(5):
            vals = np.array([p.values for p in enumerate_paths(t)], dtype=np.int64)
            for g1 in range(t + 2):
                for g2 in range(t + 2):
                    assert tropical_identities_batch(vals, g1, g2)["ok"]

    def test_random_long_paths(self):
        rng = np.random.default_rng(42)
        steps = rng.integers(-1, 2, size=(500, 50))
        vals = np.concatenate(
            [np.zeros((500, 1), dtype=np.int64), np.cumsum(steps, axis=1)], axis=1
        )
        for _ in range(10):
            g1, g2 = rng.integers(0, 11, size=2)
            assert tropical_identities_batch(vals, int(g1), int(g2))["ok"]


def _reference_identities(vals, g1, g2):
    """The per-pair check the level-array form replaced: every transform
    takes its own running max, eight accumulates per pair (g1, g2)."""
    def tilde(v, g):
        return v - 2 * np.maximum(np.maximum.accumulate(v, axis=1) - g, 0)

    m = np.maximum.accumulate(vals, axis=1)
    report = {}
    for tag, g in (("g1", g1), ("g2", g2)):
        y = tilde(vals, g)
        my = np.maximum.accumulate(y, axis=1)
        report[f"max_of_transform[{tag}]"] = int(np.sum(my != np.minimum(g, m)))
        report[f"two_max_minus_id[{tag}]"] = int(np.sum((2 * my - y) != (2 * m - vals)))
    report["composition"] = int(np.sum(tilde(tilde(vals, g1), g2) != tilde(vals, min(g1, g2))))
    return report


def _counts(report):
    return {k: v for k, v in report.items() if k != "ok"}


def _rows_off_the_identities():
    """Rows that start away from 0 and rows with +-2 steps: inputs on which
    every identity fails somewhere."""
    rng = np.random.default_rng(7)
    shifted = np.cumsum(rng.integers(-1, 2, size=(300, 9)), axis=1) + rng.integers(-3, 4, (300, 1))
    jumps = np.cumsum(rng.integers(-2, 3, size=(300, 9)), axis=1)
    jumps[:, 0] = 0
    return np.concatenate([shifted, jumps])


class TestLevelArrays:
    def test_scalar_levels_count_as_the_reference(self):
        vals = _rows_off_the_identities()
        for g1 in range(6):
            for g2 in range(6):
                got = tropical_identities_batch(vals, g1, g2)
                want = _reference_identities(vals, g1, g2)
                assert list(got) == list(want) + ["ok"]
                assert _counts(got) == want and got["ok"] == (sum(want.values()) == 0)

    def test_level_arrays_sum_the_pair_calls(self):
        vals = _rows_off_the_identities()
        g1, g2 = np.array([0, 2, 5, 7]), np.array([1, 2, 4])  # a shared level
        want = dict.fromkeys(_reference_identities(vals, 0, 0), 0)
        for a in g1.tolist():
            for b in g2.tolist():
                for key, v in tropical_identities_batch(vals, a, b).items():
                    if key != "ok":
                        want[key] += v
        assert all(want.values())
        got = tropical_identities_batch(vals, g1, g2)
        assert _counts(got) == want and not got["ok"]

    def test_level_arrays_refuse_a_repeated_level(self):
        with pytest.raises(ValueError, match="repeat a level"):
            tropical_identities_batch(_rows_off_the_identities(), np.array([0, 2, 2]), 1)


def test_verify_tropical_counts_as_a_pair_loop(monkeypatch):
    # every enumerated path shifted up by one: the identities fail at each horizon
    def shifted_paths(t):
        return [SimpleNamespace(values=tuple(v + 1 for v in p.values))
                for p in enumerate_paths(t)]

    monkeypatch.setattr(transform, "enumerate_paths", shifted_paths)
    rep = verify_tropical(t_exhaustive=4, t_random=12, samples=300, g_max=5, seed=3, streams=2)
    want = 0
    for t in range(5):
        vals = np.array([p.values for p in shifted_paths(t)], dtype=np.int64).reshape(-1, t + 1)
        want += sum(sum(_reference_identities(vals, g1, g2).values())
                    for g1 in range(t + 2) for g2 in range(t + 2))
    for i, m in enumerate(shard_sizes(300, 2)):
        gen = RngStream(3, i).generator()
        steps = gen.integers(-1, 2, size=(m, 12))
        vals = np.concatenate([np.zeros((m, 1), dtype=np.int64), np.cumsum(steps, axis=1)], axis=1)
        g1, g2 = (int(g) for g in gen.integers(0, 6, size=2))
        want += sum(_reference_identities(vals, g1, g2).values())
    assert want > 0
    assert rep["violations"] == want and rep["status"] == "FAIL"


def test_verify_tropical_counts_no_violation():
    rep = verify_tropical(t_exhaustive=3, t_random=20, samples=500, g_max=5, seed=1, streams=3)
    assert rep["violations"] == 0 and rep["status"] == "PASS"
    assert rep["random"] == {"samples": 500, "t": 20, "g_max": 5, "seed": 1, "streams": 3}


def test_verify_tropical_needs_a_stream():
    with pytest.raises(ValueError, match="streams"):
        verify_tropical(t_exhaustive=1, t_random=5, samples=10, g_max=2, seed=0, streams=0)


@pytest.mark.parametrize("sizes", [(-1, 5, 0, 2), (1, -1, 10, 2), (1, 5, -1, 2), (1, 5, 10, -1)])
def test_verify_tropical_refuses_negative_sizes(sizes):
    t_exhaustive, t_random, samples, g_max = sizes
    with pytest.raises(ValueError, match="must be >= 0"):
        verify_tropical(t_exhaustive, t_random, samples, g_max, seed=0, streams=1)

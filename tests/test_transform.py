import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitman_lab import (
    HorizonCapError,
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
    takes its own running max, eight accumulates per pair (g1, g2).  Levels
    of shape (rows, 1) check each row at its own pair."""
    def tilde(v, g):
        return v - 2 * np.maximum(np.maximum.accumulate(v, axis=1) - g, 0)

    m = np.maximum.accumulate(vals, axis=1)
    report = {}
    for tag, g in (("g1", g1), ("g2", g2)):
        y = tilde(vals, g)
        my = np.maximum.accumulate(y, axis=1)
        report[f"max_of_transform[{tag}]"] = int(np.sum(my != np.minimum(g, m)))
        report[f"two_max_minus_id[{tag}]"] = int(np.sum((2 * my - y) != (2 * m - vals)))
    report["composition"] = int(np.sum(tilde(tilde(vals, g1), g2)
                                       != tilde(vals, np.minimum(g1, g2))))
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


def _reference_level_arrays(vals, levels1, levels2):
    """The counts of level arrays by the per-pair reference: identities 1 and
    3 once per level of their tag, the composition once per pair."""
    want = dict.fromkeys(_reference_identities(vals, 0, 0), 0)
    for tag, levels in (("[g1]", levels1), ("[g2]", levels2)):
        for g in levels:
            for key, v in _reference_identities(vals, g, g).items():
                want[key] += v if tag in key else 0
    for a in levels1:
        for b in levels2:
            want["composition"] += _reference_identities(vals, a, b)["composition"]
    return want


def _reference_rows(vals, g1, g2):
    """The counts of per-row levels: each row by the reference at its own pair."""
    want = dict.fromkeys(_reference_identities(vals, 0, 0), 0)
    for row, a, b in zip(vals, g1, g2):
        for key, v in _reference_identities(row[None, :], int(a), int(b)).items():
            want[key] += v
    return want


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
        # identities 1 and 3 count once per (row, level), the composition once per
        # (row, pair); a repeated level is counted once per occurrence
        vals = _rows_off_the_identities()
        g1, g2 = [0, 2, 2, 5, 7], [1, 2, 4]  # a shared and a repeated level
        want = _reference_level_arrays(vals, g1, g2)
        assert all(want.values())
        got = tropical_identities_batch(vals, np.array(g1)[:, None, None],
                                        np.array(g2)[:, None, None, None])
        assert _counts(got) == want and not got["ok"]

    def test_row_levels_count_each_row_at_its_own_pair(self):
        vals = _rows_off_the_identities()
        g1, g2 = np.random.default_rng(11).integers(0, 8, size=(2, len(vals)))
        want = _reference_rows(vals, g1, g2)
        assert all(want.values())
        got = tropical_identities_batch(vals, g1[:, None], g2[:, None])
        assert _counts(got) == want and not got["ok"]

    def test_one_row_off_the_identities_is_caught_at_its_pair(self):
        # walks from 0 satisfy every identity; one row shifted up by one fails at its
        # own pair only, so the counts are that row's reference counts exactly
        rng = np.random.default_rng(5)
        vals = np.zeros((400, 13), dtype=np.int64)
        np.cumsum(rng.integers(-1, 2, size=(400, 12)), axis=1, out=vals[:, 1:])
        g1, g2 = rng.integers(0, 6, size=(2, 400))
        vals[137] += 1
        want = _reference_identities(vals[137:138], int(g1[137]), int(g2[137]))
        assert sum(want.values()) > 0
        got = tropical_identities_batch(vals, g1[:, None], g2[:, None])
        assert _counts(got) == want
        vals[137] -= 1
        assert tropical_identities_batch(vals, g1[:, None], g2[:, None])["ok"]


def _random_part(seed, samples, t, g_max):
    """The random rows and levels of ``verify_tropical`` in int64, levels
    unclipped: from ``RngStream(seed)``, each block's levels then its steps."""
    gen, rows = RngStream(seed).generator(), transform.block_rows(t + 1)
    vals, g1, g2 = np.zeros((samples, t + 1), dtype=np.int64), [], []
    for i in range(0, samples, rows):
        n = min(rows, samples - i)
        levels = gen.integers(0, g_max + 1, size=(2, n))
        g1.append(levels[0])
        g2.append(levels[1])
        np.cumsum(gen.integers(-1, 2, size=(n, t), dtype=np.int8), axis=1,
                  out=vals[i:i + n, 1:])
    return vals, np.concatenate(g1), np.concatenate(g2)


def _off_the_identities(vals):
    """Rows doubled and capped at t + 1: steps of 2 break the identities, and a
    running max <= t + 1 keeps levels clipped at t + 1 exact."""
    return np.minimum(2 * vals, vals.shape[-1])


def _check_rows_off_the_identities(monkeypatch, seen=None):
    """Every row verify_tropical checks goes through ``_off_the_identities``;
    ``seen`` collects each call's value type and largest levels."""
    real = transform.tropical_identities_batch

    def off(vals, g1, g2):
        if seen is not None:
            seen.append((vals.dtype, int(np.max(g1)), int(np.max(g2))))
        return real(_off_the_identities(vals), g1, g2)

    monkeypatch.setattr(transform, "tropical_identities_batch", off)


def test_verify_tropical_counts_as_a_pair_loop(monkeypatch):
    _check_rows_off_the_identities(monkeypatch)
    rep = verify_tropical(t_exhaustive=4, t_random=12, samples=300, g_max=5, seed=3)
    exhaustive = 0
    for t in range(5):
        vals = np.array([p.values for p in enumerate_paths(t)], dtype=np.int64)
        levels = list(range(t + 2))
        exhaustive += sum(_reference_level_arrays(_off_the_identities(vals.reshape(-1, t + 1)),
                                                  levels, levels).values())
    vals, g1, g2 = _random_part(3, 300, 12, 5)
    random = sum(_reference_rows(_off_the_identities(vals), g1, g2).values())
    assert exhaustive > 0 and random > 0
    assert rep["violations"] == exhaustive + random and rep["status"] == "FAIL"


def test_verify_tropical_narrow_types_count_as_int64(monkeypatch):
    # t_random = 30 needs int16 (values up to 150), and levels up to 40000 pass the
    # int16 range: they are clipped to t + 1 before the cast.  Rows fail only at
    # levels below t + 1, so many samples are drawn; the int64 reference takes each
    # row at its own unclipped pair by broadcasting
    seen = []
    _check_rows_off_the_identities(monkeypatch, seen)
    rep = verify_tropical(t_exhaustive=0, t_random=30, samples=100000, g_max=40000, seed=8)
    vals, g1, g2 = _random_part(8, 100000, 30, 40000)
    assert max(g1.max(), g2.max()) > np.iinfo(np.int16).max
    want = sum(_reference_identities(_off_the_identities(vals), g1[:, None], g2[:, None]).values())
    assert want > 0 and rep["violations"] == want
    assert {s[0] for s in seen[1:]} == {np.dtype(np.int16)} and max(s[1] for s in seen) == 31


def test_verify_tropical_draws_the_same_rows_from_the_same_seed(monkeypatch):
    def checked_bytes(seed):
        seen = []
        monkeypatch.setattr(transform, "tropical_identities_batch", lambda vals, g1, g2:
                            seen.append(vals.tobytes() + np.asarray(g1).tobytes()
                                        + np.asarray(g2).tobytes()) or {"ok": True})
        verify_tropical(t_exhaustive=1, t_random=20, samples=3000, g_max=10, seed=seed)
        return seen

    assert checked_bytes(4) == checked_bytes(4)
    assert checked_bytes(4)[-1] != checked_bytes(5)[-1]


def test_verify_tropical_counts_no_violation():
    rep = verify_tropical(t_exhaustive=3, t_random=20, samples=500, g_max=5, seed=1)
    assert rep["violations"] == 0 and rep["status"] == "PASS"
    assert rep["random"] == {"samples": 500, "t": 20, "g_max": 5, "seed": 1}


def test_verify_tropical_refuses_a_horizon_past_the_cap_before_any_work(monkeypatch):
    # the horizons below the cap would run first, were the refusal per horizon
    monkeypatch.setenv("PITMAN_LAB_CAP", "3")
    monkeypatch.setattr(transform, "tropical_identities_batch", None)
    with pytest.raises(HorizonCapError, match="horizon 4 exceeds cap 3"):
        verify_tropical(t_exhaustive=4, t_random=5, samples=10, g_max=3, seed=0)


def test_verify_tropical_refuses_oversized_work():
    with pytest.raises(ValueError, match=r"^--t-random 50 with --samples 1000000000 asks for "
                                         r"51000000000 path levels, more than the 10000000"):
        verify_tropical(t_exhaustive=0, t_random=50, samples=10**9, g_max=10, seed=0)


@pytest.mark.parametrize("sizes", [(-1, 5, 0, 2), (1, -1, 10, 2), (1, 5, -1, 2), (1, 5, 10, -1)])
def test_verify_tropical_refuses_negative_sizes(sizes):
    t_exhaustive, t_random, samples, g_max = sizes
    with pytest.raises(ValueError, match="must be >= 0"):
        verify_tropical(t_exhaustive, t_random, samples, g_max, seed=0)

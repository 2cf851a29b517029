import numpy as np
import pytest

import imbtab.resampling as resampling
from imbtab import (
    FeatureMatrix,
    NeighborIndex,
    RebalanceResult,
    ResampleConfig,
    nearest_neighbors,
    nearmiss,
    rebalance,
    smote,
)
from imbtab.errors import (
    DimensionMismatch,
    EmptyMinority,
    KTooLarge,
    LabelOutOfRange,
    NonFiniteFeature,
    StrategyUnknown,
    TooFewMinoritySamples,
    ValidationError,
    check_features,
    check_fit_inputs,
)


def brute_force_knn(points, query, k, exclude=None):
    dists = [
        (float(np.linalg.norm(p - query)), i)
        for i, p in enumerate(points)
        if i != exclude
    ]
    dists.sort()
    return [i for _, i in dists[:k]]


def same_provenance(a, b):
    return all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in ("base_index", "neighbor_index", "u")
    )


class TestNearestNeighbors:
    def test_exclude_self(self):
        idx = NeighborIndex(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
        assert nearest_neighbors(idx, [0.0, 0.0], 1, exclude_self=True) == [1]

    def test_full_ordering(self):
        pts = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        idx = NeighborIndex(pts)
        assert nearest_neighbors(idx, [0.0, 0.0], 3) == [1, 2, 0]

    def test_tie_goes_to_lower_index(self):
        idx = NeighborIndex(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert nearest_neighbors(idx, [0.0, 0.0], 1) == [0]

    def test_k_too_large(self):
        idx = NeighborIndex(np.array([[0.0], [1.0]]))
        # k == n: the query at distance zero is skipped, so one point is eligible
        with pytest.raises(KTooLarge, match="k=2 but only 1 eligible points"):
            nearest_neighbors(idx, [0.0], 2, exclude_self=True)
        # no point at distance zero: none is skipped, and k == n is answered
        assert nearest_neighbors(idx, [0.25], 2, exclude_self=True) == [0, 1]
        with pytest.raises(KTooLarge, match="k=3 but only 2 eligible points"):
            nearest_neighbors(idx, [0.25], 3, exclude_self=True)
        with pytest.raises(KTooLarge, match="k=1 but only 0 eligible points"):
            nearest_neighbors(NeighborIndex(np.empty((0, 1))), [0.0], 1, exclude_self=True)

    @pytest.mark.parametrize(
        "query,expected",
        [([1.0, 0.0], [2, 0, 3]), ([0.5, 0.5], [0, 1, 2])],
        ids=["among-points", "apart"],
    )
    def test_exclude_self_without_self_index_searches_once(self, query, expected, monkeypatch):
        # among the points, the lowest-index one at distance zero (1) is skipped
        idx = NeighborIndex(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        calls = []
        k_nearest = resampling._k_nearest
        monkeypatch.setattr(
            resampling, "_k_nearest", lambda *a, **kw: calls.append(a[2]) or k_nearest(*a, **kw)
        )
        for k in (1, 2, 3):
            assert nearest_neighbors(idx, query, k, exclude_self=True) == expected[:k]
        assert calls == [2, 3, 4]  # one search each, of k + 1

    def test_rejects_non_finite_points_and_query(self):
        with pytest.raises(NonFiniteFeature):
            NeighborIndex(np.array([[0.0, np.nan]]))
        idx = NeighborIndex(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(NonFiniteFeature):
            nearest_neighbors(idx, [np.inf, 0.0], 1)

    @pytest.mark.parametrize("points", [np.arange(6.0), np.zeros((3, 2, 1)), np.float64(1.0)])
    def test_rejects_points_that_are_not_2d(self, points):
        # the same fault smote and nearmiss report, and an ImbtabError
        with pytest.raises(DimensionMismatch):
            NeighborIndex(points)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(60, 3))
        idx = NeighborIndex(pts)
        for qi in range(0, 60, 7):
            for k in (1, 3, 10):
                got = nearest_neighbors(idx, pts[qi], k, exclude_self=True, self_index=qi)
                assert got == brute_force_knn(pts, pts[qi], k, exclude=qi)


class TestSmote:
    def test_count_contract(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(7, 2))
        for n_new in (0, 1, 3):
            out, prov = smote(pts, k=3, n_new=n_new, seed=1)
            assert len(out) == n_new * 7
            assert len(prov) == len(out)

    def test_two_point_interpolation(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        out, prov = smote(pts, k=1, n_new=1, seed=5)
        # each point's only neighbor is the other; synthetic rows sit on the segment
        for row, i, j, u in zip(out, prov.base_index, prov.neighbor_index, prov.u):
            base, nb = pts[i], pts[j]
            assert np.allclose(row, base + u * (nb - base))
            assert 0.0 <= row[0] <= 1.0 and row[1] == 0.0

    def test_betweenness_and_reconstruction(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(10, 4))
        out, prov = smote(pts, k=4, n_new=2, seed=11)
        for row, i, j, u in zip(out, prov.base_index, prov.neighbor_index, prov.u):
            base, nb = pts[i], pts[j]
            lo, hi = np.minimum(base, nb), np.maximum(base, nb)
            assert np.all(row >= lo - 1e-12) and np.all(row <= hi + 1e-12)
            assert np.allclose(row, base + u * (nb - base))

    def test_mode_divergence_witness(self):
        # base (1,0) with neighbor (0,0): canonical moves toward the neighbor,
        # paper_literal adds |diff| and moves away
        pts = np.array([[1.0, 0.0], [0.0, 0.0]])
        canon, prov_c = smote(pts, k=1, n_new=1, seed=9, mode="canonical")
        lit, prov_l = smote(pts, k=1, n_new=1, seed=9, mode="paper_literal")
        assert same_provenance(prov_c, prov_l)  # identical draws
        u0 = prov_c.u[0]
        assert canon[0] == pytest.approx([1.0 - u0, 0.0])
        assert lit[0] == pytest.approx([1.0 + u0, 0.0])

    def test_modes_agree_when_base_below_neighbor(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        canon, _ = smote(pts, k=1, n_new=3, seed=2, mode="canonical")
        lit, _ = smote(pts, k=1, n_new=3, seed=2, mode="paper_literal")
        # rows generated from base (0,0) toward (1,2) agree in both modes
        assert np.allclose(canon[:3], lit[:3])

    def test_determinism(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(9, 2))
        a, pa = smote(pts, k=2, n_new=4, seed=77)
        b, pb = smote(pts, k=2, n_new=4, seed=77)
        assert np.array_equal(a, b) and same_provenance(pa, pb)

    def test_too_few_minority(self):
        with pytest.raises(TooFewMinoritySamples):
            smote(np.array([[0.0, 0.0]]), k=1, n_new=1)

    @pytest.mark.parametrize("minority", [np.arange(6.0), np.zeros((3, 2, 1)), np.float64(1.0)])
    def test_rejects_a_minority_that_is_not_2d(self, minority):
        # a 1-D array of 6 values is no "fewer than 2 rows" fault
        with pytest.raises(DimensionMismatch):
            smote(minority, 2, 1)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            smote(np.zeros((3, 2)), k=3, n_new=1)

    def test_rejects_non_finite(self):
        pts = np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 0.0]])
        with pytest.raises(NonFiniteFeature):
            smote(pts, k=1, n_new=1)
        # a non-finite matrix is reported before too few rows
        with pytest.raises(NonFiniteFeature):
            smote(pts[1:2], k=1, n_new=1)


class TestNearMiss:
    MAJ = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    MIN = np.array([[0.5, 0.0], [1.5, 0.0]])

    def test_variant1_hand_example(self):
        # mean distances to both minority points: 1.0, 0.5, 4.0
        kept = nearmiss(self.MAJ, self.MIN, variant=1, k=2, n=2)
        assert kept == [0, 1]

    def test_variant2_uses_farthest(self):
        maj = np.array([[0.0, 0.0], [10.0, 0.0]])
        mn = np.array([[1.0, 0.0], [9.0, 0.0], [20.0, 0.0]])
        # k=1 farthest: from (0,0) that's (20,0) dist 20; from (10,0) it's (20,0) dist 10
        kept = nearmiss(maj, mn, variant=2, k=1, n=1)
        assert kept == [1]

    def test_variant3_union_with_tie_rule(self):
        # (0.5,0): majority 0 and 1 both at distance 0.5 -> tie to index 0
        # (1.5,0): nearest majority is index 1
        kept = nearmiss(self.MAJ, self.MIN, variant=3, k=1)
        assert kept == [0, 1]

    def test_n_at_least_majority_keeps_all(self):
        kept = nearmiss(self.MAJ, self.MIN, variant=1, k=2, n=10)
        assert kept == [0, 1, 2]

    def test_subset_property(self):
        rng = np.random.default_rng(5)
        maj = rng.normal(size=(30, 2))
        mn = rng.normal(size=(8, 2))
        for variant in (1, 2, 3):
            kept = nearmiss(maj, mn, variant=variant, k=3, n=10)
            assert all(0 <= i < 30 for i in kept)
            assert len(set(kept)) == len(kept)

    def test_empty_minority(self):
        with pytest.raises(EmptyMinority):
            nearmiss(self.MAJ, np.empty((0, 2)), variant=1, k=1, n=1)

    @pytest.mark.parametrize("variant", [1, 2, 3])
    @pytest.mark.parametrize(
        "majority, minority",
        [
            (np.zeros((4, 2)), np.zeros((3, 3))),  # unequal widths
            (np.zeros((0, 2)), np.zeros((3, 3))),  # unequal widths, no majority rows
            (np.zeros(4), np.zeros((3, 1))),  # 1-D majority
            (np.zeros((4, 1)), np.zeros(3)),  # 1-D minority
            (np.zeros((4, 2, 1)), np.zeros((3, 2))),  # 3-D majority
        ],
    )
    def test_rejects_inputs_that_are_not_2d_of_one_width(self, variant, majority, minority):
        with pytest.raises(DimensionMismatch):
            nearmiss(majority, minority, variant, 1, n=2)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            nearmiss(self.MAJ, self.MIN, variant=1, k=3, n=1)

    @pytest.mark.parametrize("variant", [1, 2, 3])
    @pytest.mark.parametrize("side", ["majority", "minority"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, variant, side, bad):
        maj, mn = self.MAJ.copy(), self.MIN.copy()
        (maj if side == "majority" else mn)[1, 0] = bad
        with pytest.raises(NonFiniteFeature):
            nearmiss(maj, mn, variant=variant, k=1, n=1)
        if side == "majority":  # a non-finite matrix is reported before an empty minority
            with pytest.raises(NonFiniteFeature):
                nearmiss(maj, mn[:0], variant=variant, k=1, n=1)


# Every entry point that takes a feature matrix: a good input, a call on an
# input, the matrix check_features sees of that input, and the width it checks.
ROWS = np.ones((3, 2))
MATRIX_ENTRY_POINTS = {
    "FeatureMatrix": (ROWS, lambda M: FeatureMatrix(("a", "b"), M), None, 2),
    "check_fit_inputs": (ROWS, lambda M: check_fit_inputs(M, [0.0] * len(M)), None, None),
    "NeighborIndex": (ROWS, NeighborIndex, None, None),
    "nearest_neighbors-query": (
        np.ones(2),
        lambda q: nearest_neighbors(NeighborIndex(ROWS), q, 1),
        lambda q: [q],
        2,
    ),
    "smote": (ROWS, lambda M: smote(M, 1, 1), None, None),
    "nearmiss-majority": (ROWS, lambda M: nearmiss(M, ROWS, 1, 1), None, None),
    "nearmiss-minority": (ROWS, lambda M: nearmiss(ROWS, M, 1, 1), None, 2),
}


def _set_last(value):
    def bad(x):
        x = x.copy()
        x.flat[-1] = value
        return x

    return bad


# matrix faults, each made from a good input: one dimension fewer or more
# (for the query, the one-row matrix [query] loses or gains it), a NaN or +inf
# value, and one column more
MATRIX_FAULTS = {
    "1-D": lambda x: x[0],
    "3-D": lambda x: x[..., None],
    "nan": _set_last(np.nan),
    "inf": _set_last(np.inf),
    "wrong-width": lambda x: np.concatenate([x, x[..., :1]], axis=-1),
}


@pytest.mark.parametrize(
    "entry, fault",
    [
        (entry, fault)
        for entry, (*_, width) in MATRIX_ENTRY_POINTS.items()
        for fault in MATRIX_FAULTS
        if fault != "wrong-width" or width is not None
    ],
)
def test_every_matrix_input_gets_the_error_of_check_features(entry, fault):
    good, call, seen, width = MATRIX_ENTRY_POINTS[entry]
    call(good)
    bad = MATRIX_FAULTS[fault](good)
    with pytest.raises((DimensionMismatch, NonFiniteFeature)) as expected:
        check_features(seen(bad) if seen else bad, width)
    with pytest.raises(type(expected.value)) as got:
        call(bad)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


class TestArgumentChecks:
    """Bad arguments fail with a ValidationError that names them, not with
    whatever numpy does with the value."""

    POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    MAJ = TestNearMiss.MAJ
    MIN = TestNearMiss.MIN

    @staticmethod
    def _path(call):
        with pytest.raises(ValidationError) as exc:
            call()
        return exc.value.path

    @pytest.mark.parametrize("self_index", [-1, 4, 1.5, True, "0"])
    def test_nearest_neighbors_self_index(self, self_index):
        idx = NeighborIndex(self.POINTS)
        call = lambda: nearest_neighbors(idx, [0.0, 0.0], 1, exclude_self=True, self_index=self_index)
        assert self._path(call) == "self_index"

    def test_nearest_neighbors_takes_a_numpy_self_index(self):
        idx = NeighborIndex(self.POINTS)
        got = nearest_neighbors(idx, [3.0, 0.0], 2, exclude_self=True, self_index=np.int64(3))
        assert got == [2, 1]

    @pytest.mark.parametrize("k", [-1, 1.0, True, None])
    def test_nearest_neighbors_k(self, k):
        idx = NeighborIndex(self.POINTS)
        assert self._path(lambda: nearest_neighbors(idx, [0.0, 0.0], k)) == "k"

    def test_nearest_neighbors_k_zero_selects_nothing(self):
        assert nearest_neighbors(NeighborIndex(self.POINTS), [0.0, 0.0], 0) == []
        empty = NeighborIndex(np.empty((0, 2)))
        assert nearest_neighbors(empty, [0.0, 0.0], 0) == []
        assert nearest_neighbors(empty, [0.0, 0.0], 0, exclude_self=True) == []

    @pytest.mark.parametrize("query", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]])
    def test_nearest_neighbors_query_width(self, query):
        with pytest.raises(DimensionMismatch):
            nearest_neighbors(NeighborIndex(self.POINTS), query, 1)

    @pytest.mark.parametrize("k", [0, -1, 2.0])
    def test_smote_k(self, k):
        assert self._path(lambda: smote(self.POINTS, k, 2)) == "k"

    def test_smote_n_new(self):
        assert self._path(lambda: smote(self.POINTS, 1, -1)) == "n_new"

    @pytest.mark.parametrize("variant", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, -1, 1.0])
    def test_nearmiss_k(self, variant, k):
        assert self._path(lambda: nearmiss(self.MAJ, self.MIN, variant, k, n=1)) == "k"

    @pytest.mark.parametrize("n", [-1, 1.0])
    def test_nearmiss_n(self, n):
        assert self._path(lambda: nearmiss(self.MAJ, self.MIN, 1, 1, n=n)) == "n"

    @pytest.mark.parametrize("mode", ["literal", "Canonical", None, 1])
    def test_smote_mode(self, mode):
        assert self._path(lambda: smote(self.POINTS, 1, 2, mode=mode)) == "mode"

    @pytest.mark.parametrize("variant", [0, 4, 1.0, True, "1", None])
    def test_nearmiss_variant(self, variant):
        assert self._path(lambda: nearmiss(self.MAJ, self.MIN, variant, 1, n=1)) == "variant"


def fm(values):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(tuple(f"f{i}" for i in range(values.shape[1])), values)


class TestRebalance:
    def test_none_is_identity(self):
        X = fm(np.arange(8.0).reshape(4, 2))
        y = [0, 0, 1, 0]
        out = rebalance(X, y, ResampleConfig(strategy="none"))
        assert np.array_equal(out.features.values, X.values)
        assert out.labels.tolist() == y
        assert out.original_mask.all()

    def test_smote_balance_arithmetic(self):
        # 90 majority / 10 minority -> N=8, 80 synthetic, 90/90 out
        rng = np.random.default_rng(1)
        X = fm(rng.normal(size=(100, 2)))
        y = np.array([0] * 90 + [1] * 10)
        out = rebalance(X, y, ResampleConfig(strategy="smote", k=3, amount="balance", seed=4))
        assert int((out.labels == 1).sum()) == 90
        assert int((out.labels == 0).sum()) == 90
        assert len(out.provenance) == 80
        assert int((~out.original_mask).sum()) == 80

    def test_smote_provenance_lifted_to_matrix_rows(self):
        rng = np.random.default_rng(2)
        X = fm(rng.normal(size=(20, 2)))
        y = np.array([0] * 15 + [1] * 5)
        out = rebalance(X, y, ResampleConfig(strategy="smote", k=2, amount=1, seed=0))
        p = out.provenance
        assert len(p) == 5
        assert np.all(y[p.base_index] == 1) and np.all(y[p.neighbor_index] == 1)

    def test_nearmiss1_balances(self):
        rng = np.random.default_rng(3)
        X = fm(rng.normal(size=(40, 2)))
        y = np.array([0] * 30 + [1] * 10)
        out = rebalance(X, y, ResampleConfig(strategy="nearmiss1", k=3, amount="balance"))
        assert int((out.labels == 0).sum()) == 10
        assert int((out.labels == 1).sum()) == 10

    def test_random_under_and_over(self):
        rng = np.random.default_rng(6)
        X = fm(rng.normal(size=(50, 2)))
        y = np.array([0] * 40 + [1] * 10)
        under = rebalance(X, y, ResampleConfig(strategy="random_under", amount="balance", seed=1))
        assert sorted(np.bincount(under.labels).tolist()) == [10, 10]
        over = rebalance(X, y, ResampleConfig(strategy="random_over", amount="balance", seed=1))
        assert np.bincount(over.labels).tolist() == [40, 40]

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("strategy", ["random_over", "random_under"])
    def test_random_strategies_on_one_class_raise_empty_minority(self, strategy, label):
        # as smote and nearmiss fail on it: there is no minority row to draw
        X = fm(np.arange(40.0).reshape(20, 2))
        with pytest.raises(EmptyMinority):
            rebalance(X, np.full(20, label), ResampleConfig(strategy=strategy, seed=1))

    def test_undersampling_never_grows_oversampling_never_shrinks(self):
        rng = np.random.default_rng(7)
        X = fm(rng.normal(size=(30, 3)))
        y = np.array([0] * 22 + [1] * 8)
        n = len(y)
        for strat in ("nearmiss1", "nearmiss2", "nearmiss3", "random_under"):
            out = rebalance(X, y, ResampleConfig(strategy=strat, k=2, amount="balance"))
            assert len(out.labels) <= n
        for strat in ("smote", "random_over"):
            out = rebalance(X, y, ResampleConfig(strategy=strat, k=2, amount="balance"))
            assert len(out.labels) >= n

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        X = fm(rng.normal(size=(30, 2)))
        y = np.array([0] * 25 + [1] * 5)
        cfg = ResampleConfig(strategy="smote", k=2, amount=3, seed=123)
        a = rebalance(X, y, cfg)
        b = rebalance(X, y, cfg)
        assert np.array_equal(a.features.values, b.features.values)
        assert same_provenance(a.provenance, b.provenance)

    @pytest.mark.parametrize(
        "fault, error",
        [
            (lambda y: y[:-1], DimensionMismatch),
            (lambda y: np.append(y, 0), DimensionMismatch),
            (lambda y: np.append(y[:-1], 2), LabelOutOfRange),
            (lambda y: np.append(y[:-1], 0.7), LabelOutOfRange),
        ],
        ids=["one-label-short", "one-label-long", "label-2", "label-0.7"],
    )
    @pytest.mark.parametrize(
        "strategy", ["none", "smote", "random_over", "random_under", "nearmiss1"]
    )
    def test_labels_must_be_one_0_or_1_per_row(self, strategy, fault, error):
        X, y = fm(np.arange(12.0).reshape(6, 2)), np.array([0, 0, 0, 1, 1, 0])
        cfg = ResampleConfig(strategy=strategy, k=1, seed=1)
        rebalance(X, y, cfg)
        with pytest.raises(error):
            rebalance(X, fault(y), cfg)

    def test_unknown_strategy(self):
        with pytest.raises(StrategyUnknown):
            ResampleConfig(strategy="smoteX")

"""SMOTE and NearMiss must pick the same neighbours, and so produce the same
rows, as the per-query brute-force search they were built on.

Two kinds of check:

- golden digests: the sha256 of `rebalance` output (values, labels, mask,
  provenance) for fixed seeded inputs, recorded from the per-query `lexsort`
  implementation. The small inputs sit on an integer grid and repeat rows, so
  many distances tie and the lower-index tie rule decides most selections;
  on the resample-10k matrix no query ties at its 5th distance. The
  `random_*` and `smote_none` digests pin the rows `rebalance` appends or
  keeps without a neighbour search, including amounts that add or drop none;
- property tests of the filter-and-refine search against `_oracle_*`, a copy
  of that per-query implementation kept here as the reference, including
  with the filter's approximate distances pushed up to half its margin off.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbtab import (
    FeatureMatrix,
    NeighborIndex,
    ResampleConfig,
    generate_dataset,
    nearest_neighbors,
    parse_config,
    rebalance,
    write_csv,
)
from imbtab import resampling
from imbtab.pipeline import prepare
from imbtab.synth import DEFAULT_SCHEMA
from imbtab.resampling import _candidate_blocks, _k_nearest


def _grid_case():
    rng = np.random.default_rng(2024)
    values = rng.integers(0, 4, size=(150, 4)).astype(float)
    values[100:125] = values[:25]  # duplicate rows
    labels = (rng.random(150) < 0.25).astype(int)
    return values, labels


def _mixed_case():
    rng = np.random.default_rng(7)
    grid = rng.integers(-2, 3, size=(120, 3)).astype(float)
    cont = np.round(rng.normal(size=(120, 2)), 1)
    values = np.hstack([grid, cont])
    values[90:110] = values[10:30]
    labels = (rng.random(120) < 0.3).astype(int)
    return values, labels


CASES = {"grid": _grid_case, "mixed": _mixed_case}

CONFIGS = {
    "smote_canonical": ResampleConfig(strategy="smote", k=5, amount="balance", seed=11),
    "smote_paper_literal": ResampleConfig(
        strategy="smote", k=3, amount=2, seed=4, smote_mode="paper_literal"
    ),
    "nearmiss1": ResampleConfig(strategy="nearmiss1", k=3, amount="balance"),
    "nearmiss1_k9": ResampleConfig(strategy="nearmiss1", k=9, amount=40),
    "nearmiss2": ResampleConfig(strategy="nearmiss2", k=3, amount="balance"),
    "nearmiss2_k9": ResampleConfig(strategy="nearmiss2", k=9, amount=40),
    "nearmiss3": ResampleConfig(strategy="nearmiss3", k=2, amount="balance"),
    "random_over": ResampleConfig(strategy="random_over", amount="balance", seed=5),
    # below the minority count: nothing is added
    "random_over_below": ResampleConfig(strategy="random_over", amount=3, seed=5),
    "random_under": ResampleConfig(strategy="random_under", amount="balance", seed=5),
    # above the majority count: every row is kept
    "random_under_above": ResampleConfig(strategy="random_under", amount=1000, seed=5),
    # no synthetic rows: empty provenance
    "smote_none": ResampleConfig(strategy="smote", k=3, amount=0, seed=2),
}

GOLDEN = {
    ("grid", "nearmiss1"): "a8d3dd05cacf73423ee8e996730ea0a38bf3581b900ce97ac19710e411d469c4",
    ("grid", "nearmiss1_k9"): "040c1a8778ad08722a4a5023c1351efede0bd0b932025123b93e22dc41f3f9b8",
    ("grid", "nearmiss2"): "535a08f9992cfe8351d7b023c941dd89cb948edb38e0c998835027471d57877b",
    ("grid", "nearmiss2_k9"): "8937f31e843b7c2754cc5122443143a3423e0b549f448b4a529d429f3040003d",
    ("grid", "nearmiss3"): "cfcc94e1a698729fbe31cbce494a7d68bbecbc320d8777dea0cfd41c4fe66264",
    ("grid", "random_over"): "c83937a29e31c8c12df441958f3942ebfc4e0a6f563a709536995bd60893cd26",
    ("grid", "random_over_below"): "bf12ecfba4475c8b1b528dda43d4d8f85eaa81d91d86171def18030af6db6c2f",
    ("grid", "random_under"): "b8074f416a40d8d4c502304656fd79d94176d746d50c210150887a845f6c388d",
    ("grid", "random_under_above"): "bf12ecfba4475c8b1b528dda43d4d8f85eaa81d91d86171def18030af6db6c2f",
    ("grid", "smote_canonical"): "d281c56ec19760f1d83814ac5762e6655fea077d9f49f116e799f0d99278519a",
    ("grid", "smote_none"): "bf12ecfba4475c8b1b528dda43d4d8f85eaa81d91d86171def18030af6db6c2f",
    ("grid", "smote_paper_literal"): "a60dc814e112d22b4430f0e654b496deda7ccfcfecf390ee39b9566a2a4da416",
    ("mixed", "nearmiss1"): "0314d53c548dbd799e106a5b1fc663e1719c5f56e90b014a7e5eb905623bac3e",
    ("mixed", "nearmiss1_k9"): "0504d969c66e9d1781cbc256c008d6690bb444f7f2376ec82fc6f0ffaed0506c",
    ("mixed", "nearmiss2"): "40917d6946aee081146cd5715815eb459e9ff5bda37ec0e7cbb30159391c6676",
    ("mixed", "nearmiss2_k9"): "99fbda4596a86016aed426f204da6073a419ae3bde706b8291c81a8345d740bc",
    ("mixed", "nearmiss3"): "04022c6a0805d95490e1d404e81c3ff816af96b022dcb625c6f23ff5fe3ecda4",
    ("mixed", "random_over"): "5225ece2a1852c29319172fa9ef1837982ac2d5eab8ce6bc51719f44c73857ec",
    ("mixed", "random_over_below"): "78be8fae280945d916b333bd87bd8e5e40514f2cdc952e88f633e7ca1c06fcc7",
    ("mixed", "random_under"): "4c974b60c01398e35088896dc8da04293881d13c8014cbe62c6430bda212aae8",
    ("mixed", "random_under_above"): "78be8fae280945d916b333bd87bd8e5e40514f2cdc952e88f633e7ca1c06fcc7",
    ("mixed", "smote_canonical"): "1c84bff3b7d09a773c909b2eb31906569054d1a8499c110216df2256ea639c0e",
    ("mixed", "smote_none"): "78be8fae280945d916b333bd87bd8e5e40514f2cdc952e88f633e7ca1c06fcc7",
    ("mixed", "smote_paper_literal"): "4c091aa4ebafb853c06156f99b4470e7fe67203151948bea7b662cd9306a879b",
}


def _digest(result):
    h = hashlib.sha256()
    h.update(repr(result.features.column_names).encode())
    h.update(np.ascontiguousarray(result.features.values).tobytes())
    h.update(np.asarray(result.labels, dtype=np.int64).tobytes())
    h.update(np.asarray(result.original_mask, dtype=bool).tobytes())
    p = result.provenance
    if p is None:
        prov = []
    else:
        prov = list(zip(p.base_index.tolist(), p.neighbor_index.tolist(), p.u.tolist()))
    h.update(repr(prov).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_rebalance_matches_golden_digest(case, config):
    values, labels = CASES[case]()
    names = tuple(f"f{i}" for i in range(values.shape[1]))
    result = rebalance(FeatureMatrix(names, values), labels, CONFIGS[config])
    assert _digest(result) == GOLDEN[(case, config)]
    # bool and float 0/1 labels are read as the same ints
    for same in (labels.astype(bool), labels.astype(float)):
        again = rebalance(FeatureMatrix(names, values), same, CONFIGS[config])
        assert _digest(again) == GOLDEN[(case, config)]
    # the digest writes no provenance and empty provenance alike
    assert (result.provenance is not None) == (CONFIGS[config].strategy == "smote")


# --- golden digests at the benchmark's resample-10k shape --------------------
#
# The grid cases above tie on purpose. This is the matrix the resample-10k
# benchmark workload rebalances (10k generated rows, 6666 training rows by 26
# columns, a minority of 997), where no query of SMOTE or NearMiss-1/2/3 ties
# at its 5th distance, so these digests pin selections decided by distance
# alone.

_WORKLOAD_ENCODERS = [
    {"column": "company_size", "method": "impact"},
    {"column": "gender", "method": "onehot", "min_count": 5},
    {
        "column": "education_level",
        "method": "onehot",
        "grouping": {
            "primary": "school",
            "high_school": "school",
            "masters": "postgrad",
            "phd": "postgrad",
        },
    },
]

GOLDEN_RESAMPLE_10K = {
    "nearmiss1": "018cf92a9a1b9ed4f424e431a3a797ac60195abbbbe130f463fc13760f0abb5e",
    "nearmiss2": "c9e2eb9831a7880dc6c04087ed8eda401a717b7ac06b298a9202f1450aa44fc1",
    "nearmiss3": "70f51b417dd66d0a31cb8b8311341b480e8ea1ca9b046cd32cc4993dba13643e",
    "smote": "e7ae900b8913439bc9ee42f5d3d6cff6d08a2a96091c1b3f6f3fd09745e5e174",
}


def resample_10k_digests(workdir):
    """{strategy: digest} of `rebalance` (k 5, balance, seed 3) on the resample-10k matrix."""
    csv_path = os.path.join(workdir, "hr.csv")
    data = generate_dataset(10_000, positive_rate=0.156, seed=11, missing_rate=0.02)
    write_csv(data, csv_path)
    doc = {
        "dataset": csv_path,
        "schema": [{"name": c.name, "kind": c.kind} for c in DEFAULT_SCHEMA],
        "target": "target",
        "split": {"test_fraction": 0.2, "seed": 7},
        "encoders": _WORKLOAD_ENCODERS,
        "models": [{"family": "lr"}],
    }
    prepared = prepare(parse_config(json.dumps(doc)))
    return {
        strategy: _digest(
            rebalance(
                prepared.X_train,
                prepared.y_train,
                ResampleConfig(strategy=strategy, k=5, amount="balance", seed=3),
            )
        )
        for strategy in sorted(GOLDEN_RESAMPLE_10K)
    }


@pytest.fixture(scope="module")
def digests_10k(tmp_path_factory):
    return resample_10k_digests(tmp_path_factory.mktemp("resample_10k"))


@pytest.mark.parametrize("strategy", sorted(GOLDEN_RESAMPLE_10K))
def test_resample_10k_matches_golden_digest(digests_10k, strategy):
    assert digests_10k[strategy] == GOLDEN_RESAMPLE_10K[strategy]


def test_resample_10k_digests_do_not_depend_on_blas_threads(tmp_path):
    # Matrix products may round differently with the BLAS thread count; no
    # neighbour selection may depend on them. Each thread count needs a fresh
    # process, since BLAS reads it once, at load.
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]);"
        "from test_neighbor_search import resample_10k_digests;"
        "print(json.dumps(resample_10k_digests(sys.argv[2])))"
    )
    src = str(Path(resampling.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        workdir = tmp_path / f"threads{threads}"
        workdir.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script, str(Path(__file__).parent), str(workdir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        results.append(json.loads(done.stdout.splitlines()[-1]))
    assert results[0] == results[1] == GOLDEN_RESAMPLE_10K


# --- oracle: one query at a time, full lexsort --------------------------------


def _oracle_sq_distances(points, query):
    diff = points - query
    return np.einsum("ij,ij->i", diff, diff)


def _oracle_nearest(points, query, k, exclude_self=False, self_index=None):
    d2 = _oracle_sq_distances(points, query)
    eligible = np.ones(len(d2), dtype=bool)
    if exclude_self:
        if self_index is None:
            zeros = np.flatnonzero(d2 == 0.0)
            if len(zeros):
                eligible[zeros[0]] = False
        else:
            eligible[self_index] = False
    idx = np.flatnonzero(eligible)
    order = np.lexsort((idx, d2[idx]))
    return [int(i) for i in idx[order][:k]]


def _oracle_selection(points, query, k, farthest=False):
    """The k nearest (farthest) points' indices and distances, nearest (farthest)
    first, ties to the lower index: the order NearMiss-1/2 sum their means in."""
    d = np.sqrt(_oracle_sq_distances(points, query))
    order = np.lexsort((np.arange(len(d)), -d if farthest else d))[:k]
    return order.tolist(), d[order]


def _assert_selection_matches_oracle(points, queries, k, farthest, got):
    """`_k_nearest`'s (indices, squared distances) against the oracle's, the
    distances' square roots bit for bit, row by row."""
    indices, d2 = got
    assert indices.shape == d2.shape == (len(queries), k)
    for q, row, row_d2 in zip(queries, indices, d2):
        expected, distances = _oracle_selection(points, q, k, farthest)
        assert row.tolist() == expected
        assert np.array_equal(np.sqrt(row_d2), distances)


# --- property tests against the oracle ---------------------------------------


def _candidate_mask(blocks, expected):
    """The (query, point) pairs that `_candidate_blocks` yielded, after checking that
    the blocks cover the queries in order, each block's pairs are row-major and
    each candidate's distance is bit-equal to the oracle's `expected`."""
    expected = np.asarray(expected)
    mask = np.zeros(expected.shape, dtype=bool)
    end = 0
    for start, rows, r, c, d2 in blocks:
        assert start == end and np.all((0 <= r) & (r < rows))
        assert np.all(np.diff(r * expected.shape[1] + c) > 0)  # row-major, no repeats
        assert np.array_equal(d2, expected[start + r, c])  # bit-equal
        mask[start + r, c] = True
        end = start + rows
    assert end == len(expected)
    return mask


@st.composite
def _matrix(draw, n_min=1, n_max=30, d=None):
    """A tie-heavy matrix: few distinct levels, repeated rows, and scales at
    which squared distances underflow to 0 or overflow to inf."""
    n = draw(st.integers(n_min, n_max))
    d = d if d is not None else draw(st.integers(1, 5))
    levels = draw(
        st.lists(st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 7.25]), min_size=1, max_size=4)
    )
    cells = draw(st.lists(st.sampled_from(levels), min_size=n * d, max_size=n * d))
    scale = draw(st.sampled_from([1.0, 1e-170, 1e170]))
    return np.array(cells, dtype=np.float64).reshape(n, d) * scale


@st.composite
def _points_and_queries(draw):
    points = draw(_matrix())
    queries = draw(_matrix(n_min=0, n_max=25, d=points.shape[1]))
    return points, queries


# A budget below one query's row of distances still makes one-query blocks;
# the others give blocks of a few queries that rarely divide the query count.
_BUDGETS = st.sampled_from([1, 64, 200, 520, 1000, 4096, 2 << 20])


@settings(max_examples=200, deadline=None)
@given(problem=_points_and_queries(), budget=_BUDGETS, farthest=st.booleans(), data=st.data())
def test_blocked_search_matches_per_query_oracle(problem, budget, farthest, data):
    points, queries = problem
    k = data.draw(st.integers(0, len(points)))
    with mock.patch.object(resampling, "_BLOCK_BYTES", budget):
        blocks = list(_candidate_blocks(points, queries, k, farthest=farthest))
        got = _k_nearest(points, queries, k)[0]
    expected = np.reshape(
        [_oracle_sq_distances(points, q) for q in queries], (len(queries), len(points))
    )
    computed = _candidate_mask(blocks, expected)
    # the selection takes each row's k from its candidates alone
    assert np.all(computed.sum(axis=1) >= k)
    if k:
        # no pair the search left out could be among a row's k selected
        ranked = np.sort(expected, axis=1)
        if farthest:
            assert not np.any(~computed & (expected >= ranked[:, -k:][:, :1]))
        else:
            assert not np.any(~computed & (expected <= ranked[:, k - 1 : k]))
    assert got.tolist() == [_oracle_nearest(points, q, k) for q in queries]


@settings(max_examples=200, deadline=None)
@given(points=_matrix(n_min=2), budget=_BUDGETS, data=st.data())
def test_self_excluded_search_matches_oracle(points, budget, data):
    # SMOTE's query: every point against the others, up to k = n - 1
    n = len(points)
    k = data.draw(st.integers(1, n - 1))
    with mock.patch.object(resampling, "_BLOCK_BYTES", budget):
        blocks = list(_candidate_blocks(points, points, k, exclude=np.arange(n)))
        got = _k_nearest(points, points, k, exclude=np.arange(n))[0]
    computed = _candidate_mask(blocks, [_oracle_sq_distances(points, p) for p in points])
    assert not computed.diagonal().any()  # the excluded self is never a candidate
    assert np.all(computed.sum(axis=1) >= k)
    expected = [_oracle_nearest(points, points[i], k, True, i) for i in range(n)]
    assert got.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(points=_matrix(n_min=2), data=st.data())
def test_nearest_neighbors_matches_oracle(points, data):
    n = len(points)
    index = NeighborIndex(points)
    q = data.draw(st.integers(0, n - 1))
    query = points[q]
    k = data.draw(st.integers(0, n - 1))
    assert nearest_neighbors(index, query, k) == _oracle_nearest(points, query, k)
    got = nearest_neighbors(index, query, k, exclude_self=True)
    assert got == _oracle_nearest(points, query, k, exclude_self=True)
    got = nearest_neighbors(index, query, k, exclude_self=True, self_index=q)
    assert got == _oracle_nearest(points, query, k, exclude_self=True, self_index=q)


@settings(max_examples=200, deadline=None)
@given(problem=_points_and_queries(), budget=_BUDGETS, farthest=st.booleans(), data=st.data())
def test_selected_distances_are_bit_equal_to_oracle(problem, budget, farthest, data):
    # NearMiss-1/2 average these rows as they come, so equal rows give equal
    # means; the nearmiss*_k9 goldens pin the mean numpy takes at k >= 8
    points, queries = problem
    k = data.draw(st.integers(0, len(points)))
    with mock.patch.object(resampling, "_BLOCK_BYTES", budget):
        got = _k_nearest(points, queries, k, farthest=farthest)
    _assert_selection_matches_oracle(points, queries, k, farthest, got)


def test_blocks_follow_the_byte_budget():
    # a block holds as many queries' rows of distances as fit the budget
    points = np.arange(12.0).reshape(4, 3)
    queries = np.arange(21.0).reshape(7, 3)
    with mock.patch.object(resampling, "_BLOCK_BYTES", 3 * len(points) * points.itemsize + 5):
        blocks = list(_candidate_blocks(points, queries, 1))
    assert [(start, rows) for start, rows, *_ in blocks] == [(0, 3), (3, 3), (6, 1)]


# --- the filter's margin -------------------------------------------------------


def test_underflowing_distances_need_the_absolute_margin():
    # At this scale every square is subnormal, spaced 4.9e-324 apart, so the
    # relative term of the margin rounds to nothing. The exact distances to
    # points 1 and 2 tie at 1e-322 (the lower index wins); the matrix
    # product puts point 2 ahead, and only the absolute term keeps point 1.
    points = np.array([[1.0], [-2.0], [0.0]]) * 1e-161
    query = np.array([[-1.0]]) * 1e-161
    got = _k_nearest(points, query, 1)[0]
    assert got.tolist() == [_oracle_nearest(points, query[0], 1)] == [[1]]
    with mock.patch.object(resampling, "_TINY", 0.0):
        assert _k_nearest(points, query, 1)[0].tolist() == [[2]]


def test_overflowing_norms_take_the_full_exact_row():
    # squared norms past the largest double: the margin is infinite, so each
    # row's every distance is computed exactly and none is left out
    points = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.5], [-1.0, 0.0, 0.0, 0.0]]) * 1e154
    queries = np.vstack([points[1] * (1 + 2**-40), np.zeros(4)])
    blocks = list(_candidate_blocks(points, queries, 1))
    assert _candidate_mask(blocks, [_oracle_sq_distances(points, q) for q in queries]).all()
    got = _k_nearest(points, queries, 1)[0]
    assert got.tolist() == [_oracle_nearest(points, q, 1) for q in queries]


def _perturbed_filter(seed):
    """Patch the filter's approximate distances to sit half a margin off, up or down at random."""
    rng = np.random.default_rng(seed)
    approximate = resampling._approx_sq_distances

    def perturbed(block, points_t, sq_block, sq_points):
        approx = approximate(block, points_t, sq_block, sq_points)
        half = resampling._margin(sq_block, sq_points.max(initial=0.0), len(points_t)) / 2
        half[~np.isfinite(half)] = 0.0  # those rows are computed in full anyway
        return approx + rng.choice([-1.0, 1.0], size=approx.shape) * half[:, None]

    return mock.patch.object(resampling, "_approx_sq_distances", perturbed)


@settings(max_examples=200, deadline=None)
@given(problem=_points_and_queries(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_search_holds_for_any_rounding_within_half_the_margin(problem, seed, data):
    # Stands in for every BLAS kernel and thread count: the real rounding is
    # at most half the margin, so the outputs may not move under this much.
    points, queries = problem
    n = len(points)
    k = data.draw(st.integers(0, n))
    m = data.draw(st.integers(0, n))
    q = data.draw(st.integers(0, n - 1))
    with _perturbed_filter(seed):
        got = _k_nearest(points, queries, k)[0]
        got_self = _k_nearest(points, points, min(k, n - 1), exclude=np.arange(n))[0]
        got_index = [
            nearest_neighbors(NeighborIndex(points), points[q], min(k, n - 1), **kw)
            for kw in ({}, {"exclude_self": True}, {"exclude_self": True, "self_index": q})
        ]
        got_selections = [_k_nearest(points, queries, m, farthest=f) for f in (False, True)]
    assert got.tolist() == [_oracle_nearest(points, p, k) for p in queries]
    assert got_self.tolist() == [
        _oracle_nearest(points, points[i], min(k, n - 1), True, i) for i in range(n)
    ]
    assert got_index == [
        _oracle_nearest(points, points[q], min(k, n - 1), **kw)
        for kw in ({}, {"exclude_self": True}, {"exclude_self": True, "self_index": q})
    ]
    for farthest, got_selection in zip((False, True), got_selections):
        _assert_selection_matches_oracle(points, queries, m, farthest, got_selection)

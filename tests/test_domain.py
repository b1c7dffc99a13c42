import math
import random
import time
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridball.domain import (
    RectangularDomain,
    ball_chunks,
    entropy,
    enumerate_ball,
    hamming_distance,
    piece_point,
    piece_sums,
    shell_pieces,
    vol,
)
from gridball.gf import make_field


def test_construction_normalizes(f5):
    dom = RectangularDomain(f5, [[f5.element(3), f5.element(1), f5.element(3)], [f5.element(2)]])
    assert [[x.index for x in s] for s in dom.sets] == [[1, 3], [2]]
    assert dom.size == 2
    assert not dom.contains_zero and not dom.is_power


def test_construction_flags(f5):
    dom = RectangularDomain(f5, [[f5.zero, f5.element(2)], [f5.zero, f5.element(2)]])
    assert dom.contains_zero and dom.is_power
    assert dom.zero_paired_vertex() == (f5.element(2), f5.element(2))
    assert RectangularDomain(f5, [[f5.one, f5.element(2)]]).zero_paired_vertex() is None


def test_construction_rejects_empty(f5):
    with pytest.raises(ValueError):
        RectangularDomain(f5, [[f5.one], []])


def test_contains_and_points(f3):
    dom = RectangularDomain(f3, [[f3.one, f3.element(2)], [f3.zero]])
    assert dom.contains((f3.one, f3.zero))
    assert not dom.contains((f3.zero, f3.zero))
    assert len(list(dom.points())) == 2


def test_json_round_trip(f9):
    dom = RectangularDomain(f9, [[f9.element(4), f9.element(7)], [f9.element(1)]])
    blob = dom.to_json_dict()
    assert blob == {"field": "GF(3^2)", "sets": [[4, 7], [1]]}
    assert RectangularDomain.from_json_dict(blob) == dom


def test_hamming_examples(f5):
    a = (f5.one, f5.element(2), f5.element(3))
    assert hamming_distance(a, a) == 0
    b = (f5.element(2), f5.element(3), f5.element(4))
    assert hamming_distance(a, b) == 3
    with pytest.raises(ValueError):
        hamming_distance(a, a[:2])


def test_hamming_triangle_inequality():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 8)
        x, y, z = (tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(3))
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


def test_ball_radius_zero_is_center(f5):
    dom = RectangularDomain.power(f5, [f5.one, f5.element(2), f5.element(3)], 3)
    center = (f5.one, f5.element(2), f5.one)
    assert list(enumerate_ball(center, 0, dom)) == [center]


def test_ball_radius_n_is_whole_domain(f5):
    dom = RectangularDomain.power(f5, [f5.one, f5.element(2), f5.element(3)], 3)
    center = (f5.one,) * 3
    pts = list(enumerate_ball(center, 5, dom))
    assert len(pts) == dom.size == 27
    assert set(pts) == set(dom.points())


def test_ball_count_two_element_cube(f5):
    # {1,2}^3, radius 1: the center plus one change in each of 3 positions
    dom = RectangularDomain.power(f5, [f5.one, f5.element(2)], 3)
    pts = list(enumerate_ball((f5.one,) * 3, 1, dom))
    assert len(pts) == 4 == vol(2, 3, 1)


def test_ball_deduplicated_ordered_and_inside(f7):
    rng = random.Random(19)
    for _ in range(25):
        nvars = rng.randint(1, 4)
        sets = []
        for _ in range(nvars):
            size = rng.randint(1, 4)
            sets.append([f7.element(i) for i in rng.sample(range(7), size)])
        dom = RectangularDomain(f7, sets)
        center = tuple(rng.choice(s) for s in dom.sets)
        radius = rng.randint(0, nvars)
        pts = list(enumerate_ball(center, radius, dom))
        assert len(pts) == len(set(pts))
        dists = [hamming_distance(center, p) for p in pts]
        assert all(d <= radius for d in dists)
        assert dists == sorted(dists)  # radius-ordered enumeration
        assert all(dom.contains(p) for p in pts)
        expected = {p for p in dom.points() if hamming_distance(center, p) <= radius}
        assert set(pts) == expected


def test_ball_validates_center_and_radius(f5):
    dom = RectangularDomain.power(f5, [f5.one], 2)
    with pytest.raises(ValueError):
        list(enumerate_ball((f5.element(2), f5.one), 1, dom))
    with pytest.raises(ValueError):
        list(enumerate_ball((f5.one, f5.one), -1, dom))


def _itertools_ball(center, radius, domain):
    """The ball order spelled out with itertools, point by point."""
    n = domain.nvars
    yield tuple(center)
    alternatives = [tuple(x for x in domain.sets[i] if x != center[i]) for i in range(n)]
    for rho in range(1, min(radius, n) + 1):
        for positions in combinations(range(n), rho):
            for repl in product(*(alternatives[i] for i in positions)):
                point = list(center)
                for i, x in zip(positions, repl):
                    point[i] = x
                yield tuple(point)


def _random_rectangular_domain(rng, f):
    # mixed set sizes, singletons, sets with zero, and {0, a_i} coordinates
    sets = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        if kind < 0.2:
            elems = [rng.randrange(f.q)]
        elif kind < 0.4:
            elems = [0, rng.randrange(1, f.q)]
        else:
            elems = rng.sample(range(f.q), rng.randint(2, min(f.q, 6)))
        sets.append([f.element(i) for i in elems])
    return RectangularDomain(f, sets)


@pytest.mark.parametrize("size", [1, 7, 2048])
def test_ball_chunks_match_itertools_order(size):
    rng = random.Random(31)
    for _ in range(40):
        f = make_field(*rng.choice([(5, 1), (7, 1), (3, 2), (2, 3)]))
        dom = _random_rectangular_domain(rng, f)
        center = tuple(rng.choice(a) for a in dom.sets)
        for radius in range(dom.nvars + 1):
            chunks = list(ball_chunks(center, radius, dom, size))
            assert all(1 <= len(c) <= size for c in chunks)
            # no block spans two shells
            base = np.array([x.index for x in center])
            assert all(len(set((c != base).sum(axis=1).tolist())) == 1 for c in chunks)
            want = [[x.index for x in pt] for pt in _itertools_ball(center, radius, dom)]
            assert np.concatenate(chunks).tolist() == want


def _piece_points(pos, lead, radix):
    """(subset, digits) of each point of a shell_pieces piece, in its order."""
    for subset in pos.tolist():
        for digits in product(*(range(radix[j]) for j in subset[len(lead) :])):
            yield subset, [*lead, *digits]


@pytest.mark.parametrize("block", [1, 5, 40, 2048])
def test_shell_pieces_follow_the_ball_order(block):
    # the pieces, each expanded with its last position fastest, are the
    # ball in itertools order, on uniform and ragged radix lists: whole
    # subsets are batched while their points fit, and larger subsets split
    # on as few leading digits as fit; on uniform lists piece_point and
    # piece_sums see the same points in that order
    rng = random.Random(f"pieces/{block}")
    f = make_field(7)
    for trial in range(60):
        n = rng.randint(1, 6)
        uniform = trial % 2 == 0
        r = rng.randint(1, min(block, 4))
        sizes = [r + 1 if uniform else rng.randint(2, 7) for _ in range(n)]
        sets = [rng.sample(range(f.q), 1 if rng.random() < 0.2 else s) for s in sizes]
        dom = RectangularDomain(f, [[f.element(i) for i in a] for a in sets])
        center = tuple(f.element(rng.choice(a)) for a in sets)
        movable = [i for i, a in enumerate(dom.sets) if len(a) > 1]
        alternatives = [[x.index for x in dom.sets[i] if x != center[i]] for i in movable]
        radix = [len(a) for a in alternatives]
        for radius in range(n + 1):
            factor = np.array([rng.randrange(-9, 10) for _ in range(2 * len(movable))])
            factor = factor.reshape(2, len(movable))
            table = np.array([rng.randrange(-99, 100) for _ in range(len(movable) * r)])
            table = table.reshape(len(movable), r)
            pieces = list(shell_pieces(radix, radius, block))
            got = []
            for k, (pos, lead) in enumerate(pieces):
                rho = pos.shape[1]
                points = list(_piece_points(pos, lead, radix))
                assert 1 <= len(points) <= block
                if lead:
                    # one subset of more than `block` points, its tail as
                    # long as fits
                    assert len(pos) == 1 and math.prod(radix[j] for j in pos[0]) > block
                    assert radix[pos[0, len(lead) - 1]] * len(points) > block
                elif rho:
                    nxt = pieces[k + 1][0] if k + 1 < len(pieces) else pos[:0]
                    if len(nxt) and nxt.shape[1] == rho:
                        # the batch stopped where the next subset did not fit
                        more = math.prod(radix[j] for j in nxt[0])
                        assert len(points) + more > block
                if uniform:
                    lead_arr = np.array(lead, dtype=np.int64)
                    sums = piece_sums(factor, table, np.array([5, 7]), pos, lead_arr, 13)
                    assert sums.shape[1] == len(points)
                for at, (subset, digits) in enumerate(points):
                    changes = list(zip(subset, digits))
                    if uniform:
                        assert piece_point(pos, lead_arr, r, at) == (subset, digits)
                        steps = [factor[:, j] * table[j, d] % 13 for j, d in changes]
                        assert sums[:, at].tolist() == (np.array([5, 7]) + sum(steps)).tolist()
                    point = [x.index for x in center]
                    for j, d in changes:
                        point[movable[j]] = alternatives[j][d]
                    got.append(point)
            want = [[x.index for x in pt] for pt in _itertools_ball(center, radius, dom)]
            assert got == want


@pytest.mark.parametrize(
    "radix,radius,block",
    [([2, 1] * 4000, 1, 8), ([1] * 30, 2, 8), ([1] * 12, 3, 100), ([3, 1, 1, 2] * 5, 2, 16)],
    ids=["wide-ragged", "radix-1-pairs", "radix-1-triples", "ragged"],
)
def test_shell_pieces_fill_every_block(radix, radius, block):
    # a piece ends its shell or stops where the next subset does not fit,
    # however many subsets it holds and whatever their radices
    pieces = list(shell_pieces(radix, radius, block))
    points = [len(list(_piece_points(pos, lead, radix))) for pos, lead in pieces]
    for (pos, lead), (nxt, _), size in zip(pieces, pieces[1:], points):
        if not lead and nxt.shape[1] == pos.shape[1]:
            assert size + math.prod(radix[j] for j in nxt[0]) > block
    subsets = (s for rho in range(radius + 1) for s in combinations(range(len(radix)), rho))
    assert sum(points) == sum(math.prod(radix[j] for j in s) for s in subsets)


def test_ball_chunks_first_chunk_of_a_huge_ball():
    # 5^40 points: the first 2048 must not wait for the rest of the ball
    f = make_field(5)
    dom = RectangularDomain.power(f, list(f.elements()), 40)
    center = (f.one,) * 40
    start = time.perf_counter()
    blocks, first = ball_chunks(center, 40, dom, 2048), []
    while len(first) < 2048:
        first += next(blocks).tolist()
    assert time.perf_counter() - start < 2.0
    want = [[x.index for x in pt] for pt in islice(_itertools_ball(center, 40, dom), 2048)]
    assert first[:2048] == want


def test_ball_chunks_validates_size(f5):
    dom = RectangularDomain.power(f5, [f5.one], 2)
    with pytest.raises(ValueError):
        next(ball_chunks((f5.one, f5.one), 1, dom, 0))


def test_ball_size_vs_vol(f7):
    rng = random.Random(23)
    for _ in range(20):
        nvars = rng.randint(1, 4)
        size = rng.randint(2, 4)
        sets = [[f7.element(i) for i in rng.sample(range(7), size)] for _ in range(nvars)]
        dom = RectangularDomain(f7, sets)
        center = tuple(rng.choice(s) for s in dom.sets)
        k = rng.randint(0, nvars)
        count = sum(1 for _ in enumerate_ball(center, k, dom))
        assert count == vol(size, nvars, k)  # equal set sizes: exact equality


def test_vol_examples():
    assert vol(4, 6, 0) == 1
    assert vol(2, 3, 1) == 4
    assert vol(3, 4, 2) == 33
    assert vol(3, 4, 2.9) == 33  # radius is floored
    with pytest.raises(ValueError):
        vol(0, 3, 1)
    with pytest.raises(ValueError):
        vol(2, -1, 1)
    with pytest.raises(ValueError):
        vol(2, 3, -0.5)


@given(st.integers(1, 6), st.integers(0, 10))
def test_vol_full_radius_is_grid_size(s, n):
    assert vol(s, n, n) == s**n


def test_entropy_endpoints_and_max():
    assert entropy(2, 0.0) == 0.0
    assert entropy(2, 1.0) == 0.0
    assert entropy(5, 0.0) == 0.0
    assert abs(entropy(2, 0.5) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        entropy(2, 1.5)
    with pytest.raises(ValueError):
        entropy(1, 0.5)


def test_entropy_matches_ball_volume_asymptotics():
    # log2 Vol(2, 20, 10) / 20 should approximate H_2(1/2) = 1 within 0.05
    approx = math.log2(vol(2, 20, 10)) / 20
    assert abs(entropy(2, 0.5) - approx) <= 0.05


@given(st.integers(2, 9), st.floats(0.001, 0.999))
def test_entropy_positive_interior(s, x):
    assert entropy(s, x) > 0.0

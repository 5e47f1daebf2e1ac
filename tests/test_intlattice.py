import math
import random

import pytest

from dpip import intlattice
from dpip.errors import DpipError
from dpip.intlattice import IntLattice, det_mod, echelon_remainder, modular_det, xgcd
from dpip.ntheory import MR_EXACT
from helpers import bareiss_det, naive_det, naive_lattice_basis


def test_xgcd_identity():
    rng = random.Random(0)
    for _ in range(300):
        a = rng.randint(-10**9, 10**9)
        b = rng.randint(-10**9, 10**9)
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_bareiss_det_vs_fraction_gaussian():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(m) == naive_det(m)


def _hadamard(rows):
    bound = 1
    for row in rows:
        s = sum(x * x for x in row)
        bound *= math.isqrt(s) + (math.isqrt(s) ** 2 < s)
    return bound


def _test_matrices(rng):
    """Random, sparse, singular and big-entry square matrices, with the
    0 x 0 and 1 x 1 cases."""
    yield []
    yield [[0]]
    yield [[-7]]
    yield [[2**200 - 3]]
    for _ in range(60):
        n = rng.randint(1, 8)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        yield a
        yield [[x if rng.random() < 0.25 else 0 for x in row] for row in a]
        if n > 1:
            b = [list(row) for row in a]
            b[-1] = [x - 3 * y for x, y in zip(b[0], b[1])]  # rank n - 1
            rng.shuffle(b)
            yield b
    for _ in range(10):
        n = rng.randint(2, 5)
        yield [[rng.choice((1, -1)) * (2**200 - rng.randint(0, 5)) for _ in range(n)] for _ in range(n)]


def test_modular_det_matches_bareiss():
    rng = random.Random(7)
    for a in _test_matrices(rng):
        assert modular_det(a) == bareiss_det(a), a


def test_modular_det_above_psi13():
    # q > 2H lies above psi13, where isprime is BPSW: the value is still
    # exact, since no step of the elimination rests on q being prime
    rng = random.Random(8)
    for n in (3, 6):
        a = [[rng.randint(-(2**30), 2**30) for _ in range(n)] for _ in range(n)]
        assert 2 * _hadamard(a) > MR_EXACT
        assert modular_det(a) == bareiss_det(a)


def test_modular_det_rejects_non_square():
    with pytest.raises(ValueError):
        modular_det([[1, 2]])


def test_det_mod_composite_modulus_raises_or_is_exact(monkeypatch):
    # a pivot with no inverse mod a composite q raises; every value
    # returned is det mod q, so the symmetric residue is exact
    with pytest.raises(DpipError, match="not invertible"):
        det_mod([[2, 1], [1, 1]], 4)
    rng = random.Random(9)
    raised = exact = 0
    for a in _test_matrices(rng):
        for q in (15, 2**64 + 1, 3 * 5 * 7 * 11 * 13):
            try:
                d = det_mod(a, q)
            except DpipError:
                raised += 1
                continue
            assert d == bareiss_det(a) % q
            exact += 1
    assert raised and exact
    # every q taken as prime: a composite q > 2H may raise, never lie
    monkeypatch.setattr(intlattice, "isprime", lambda n: True)
    for a in _test_matrices(random.Random(10)):
        try:
            d = modular_det(a)
        except DpipError:
            raised += 1
            continue
        assert d == bareiss_det(a)


def _naive_det(rows):
    """|det| of a full-rank echelon basis from `naive_lattice_basis`."""
    return math.prod(abs(row[j]) for j, row in enumerate(rows))


def _seeded(vecs, rng=None):
    """The lattice the vectors span, built mod a multiple of its |det| read
    from `naive_lattice_basis`, or None when they do not span Z^d."""
    d = len(vecs[0])
    rows = naive_lattice_basis(vecs)
    if len(rows) < d:
        return None
    lat = IntLattice(d, modulus=_naive_det(rows) * (rng.randint(1, 3) if rng else 1))
    lat.extend(vecs)
    return lat


def _hnf_columns(rows):
    """The canonical HNF of a full-rank echelon basis: each pivot made
    positive, then each row reduced by the rows below it, entry by entry."""
    rows = [list(r) if r[j] > 0 else [-x for x in r] for j, r in enumerate(rows)]
    for j in range(len(rows) - 2, -1, -1):
        for i in range(j + 1, len(rows)):
            q = rows[j][i] // rows[i][i]
            rows[j] = [a - q * b for a, b in zip(rows[j], rows[i])]
    return tuple(map(tuple, rows))


def test_add_and_membership():
    lat = IntLattice(3, modulus=12)
    lat.extend([[2, 0, 0], [0, 3, 0], [1, 1, 1]])
    assert lat.det() == 6
    cols = lat.basis_columns()
    assert cols == ((1, 0, 3), (0, 1, 4), (0, 0, 6))
    for v, inside in (([4, 3, 0], True), ([1, 0, 0], False), ([0, 0, 1], False)):
        assert (not any(echelon_remainder(cols, v))) == inside
    with pytest.raises(TypeError):
        IntLattice(3)


def test_hnf_is_canonical_under_generator_order():
    rng = random.Random(2)
    for _ in range(60):
        d = rng.randint(2, 5)
        vecs = [[rng.randint(-20, 20) for _ in range(d)] for _ in range(d + 2)]
        lat = _seeded(vecs)
        if lat is None:
            continue
        ref = lat.basis_columns()
        for _ in range(4):
            rng.shuffle(vecs)
            assert _seeded(vecs, rng).basis_columns() == ref


def test_hnf_shape_invariants():
    rng = random.Random(3)
    for _ in range(60):
        d = rng.randint(1, 5)
        lat = _seeded([[rng.randint(-30, 30) for _ in range(d)] for _ in range(d + 3)], rng)
        if lat is None:
            continue
        cols = lat.basis_columns()
        for j in range(d):
            assert cols[j][j] > 0
            for i in range(j):
                assert cols[j][i] == 0, "entries above the pivot must vanish"
            for i in range(j + 1, d):
                assert 0 <= cols[j][i] < cols[i][i], "entries reduced mod the pivot"


def test_modulus_matches_plain_insertion():
    rng = random.Random(4)
    for _ in range(60):
        d = rng.randint(2, 4)
        vecs = [[rng.randint(-15, 15) for _ in range(d)] for _ in range(d + 1)]
        lat = _seeded(vecs, rng)
        if lat is None:
            continue
        assert lat.basis_columns() == _hnf_columns(naive_lattice_basis(vecs))


def test_against_naive_closure():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(2, 4)
        vecs = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d + 2)]
        lat = _seeded(vecs)
        if lat is None:
            continue
        rows = naive_lattice_basis(vecs)
        cols = lat.basis_columns()
        assert _naive_det(rows) == lat.det()
        for row in rows:
            assert not any(echelon_remainder(cols, row))
        for col in cols:
            red = list(col)
            for j, row in enumerate(rows):
                q = red[j] // row[j]
                red = [a - q * b for a, b in zip(red, row)]
            assert all(x == 0 for x in red)


def test_degenerate_inputs():
    with pytest.raises(ValueError):
        IntLattice(0, modulus=1)
    with pytest.raises(ValueError):
        IntLattice(2, modulus=0)
    lat = IntLattice(2, modulus=5)
    with pytest.raises(ValueError):
        lat.add([1])

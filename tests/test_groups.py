import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix import groups, jsonio
from gradix.errors import (MissingIdentity, MissingInverse,
                           NonAssociativeTable, ValidationError)
from gradix.groups import (central_series, cyclic, dihedral, direct_product,
                           elementary_abelian_two, symmetric, validate_group)
from helpers import (STOCK_GROUPS, NotNormal, central_series_loop, conj,
                     group_center, quotient_group, subgroup,
                     validate_group_loop)

ROOT = Path(__file__).resolve().parent.parent


def element_order(g, a):
    """The least k >= 1 with a^k the identity."""
    k, x = 1, a
    while x != g.identity:
        x = g.mul(x, a)
        k += 1
    return k


def test_validate_rejects_bad_tables():
    # smallest nonassociative loop: unit and inverses fine, (1*2)*4 != 1*(2*4)
    loop5 = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
    with pytest.raises(NonAssociativeTable):
        validate_group(loop5)
    with pytest.raises(MissingIdentity):
        validate_group([[1, 0], [0, 1]], identity=0)
    with pytest.raises(MissingInverse):
        validate_group([[0, 1], [1, 1]])
    with pytest.raises(ValidationError):
        validate_group([[0, 1], [1]])


def _outcome(validate, table, identity):
    """The group, or the type and message of the refusal."""
    try:
        return validate(table, identity)
    except ValidationError as e:
        return type(e), str(e)


def _random_loop(n, rng):
    """A random Latin square on 0..n-1 whose row and column 0 are 0..n-1,
    a loop with identity 0, filled cell by cell with backtracking; for
    n >= 5 most of them are not associative."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            return True
        i, j = divmod(cell, n)
        if rows[i][j] is not None:
            return fill(cell + 1)
        free = ({*range(n)} - set(rows[i]) - {rows[r][j] for r in range(n)})
        for x in rng.sample(sorted(free), len(free)):
            rows[i][j] = x
            if fill(cell + 1):
                return True
        rows[i][j] = None
        return False
    assert fill(0)
    return rows


def _relabel(table, perm):
    """The table with element a renamed perm[a]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


@st.composite
def non_group_tables(draw):
    """An n x n table on 0..n-1 that is mostly not a group: arbitrary
    entries (no identity, as a rule), a stock group with a few cells
    overwritten off its identity's row and column (a missing inverse or a
    failure of associativity), or a relabeled random loop (a Latin square
    that is not associative)."""
    kind = draw(st.sampled_from(["any", "damaged", "loop"]))
    if kind == "any":
        n = draw(st.integers(1, 6))
        return draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n,
                                      max_size=n), min_size=n, max_size=n))
    if kind == "damaged":
        g = draw(st.sampled_from([g for g in STOCK_GROUPS if 1 < g.order <= 8]))
        n, e = g.order, g.identity
        table = [list(row) for row in g.table]
        others = [a for a in range(n) if a != e]
        for _ in range(draw(st.integers(1, 3))):
            a, b = draw(st.sampled_from(others)), draw(st.sampled_from(others))
            table[a][b] = draw(st.integers(0, n - 1))
    else:
        n = draw(st.integers(5, 7))
        table = _random_loop(n, draw(st.randoms(use_true_random=False)))
    return _relabel(table, draw(st.permutations(range(n))))


@settings(max_examples=300, deadline=None)
@given(non_group_tables(), st.data())
def test_validate_group_is_the_loop_on_tables_that_are_not_groups(table, data):
    # the same exception type and message as the entry loop, or the same
    # group where a table happens to be one; with blocks of one row of a
    # as well, so that a failure past the first block is named at its a
    identity = data.draw(st.none() | st.integers(0, len(table) - 1))
    expected = _outcome(validate_group_loop, table, identity)
    assert _outcome(validate_group, table, identity) == expected
    with mock.patch.object(groups, "_BLOCK_ENTRIES", 1):
        assert _outcome(validate_group, table, identity) == expected


@pytest.mark.parametrize("identity", [2, 5, -1, -2])
def test_identity_out_of_range_is_refused(identity):
    # -2 used to pass the identity check through negative indexing and then
    # be reported as MissingInverse; 5 used to raise IndexError
    with pytest.raises(ValidationError) as info:
        validate_group([[0, 1], [1, 0]], identity=identity)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"identity {identity} out of range for order 2"


def test_identity_inference():
    g = validate_group([[1, 0], [0, 1]])
    assert g.identity == 1


def test_cyclic_structure():
    g = cyclic(6)
    assert g.order == 6 and g.is_abelian()
    assert central_series(g).hypercentral
    assert element_order(g, 1) == 6
    assert g.inv(2) == 4
    assert g.label(0) == "e" and g.label(3) == "r3"


def test_dihedral_structure():
    g = dihedral(4)
    assert g.order == 8 and not g.is_abelian()
    r, s = 1, 4
    # s r s^-1 = r^-1
    assert conj(g, r, s) == g.inv(r)
    assert group_center(g).order == 2


def test_symmetric_not_hypercentral():
    s3 = symmetric(3)
    assert s3.order == 6
    series = central_series(s3)
    assert not series.hypercentral
    assert series.chain[-1].order == 1


def test_two_groups_hypercentral():
    for g in (cyclic(8), dihedral(4), elementary_abelian_two(3),
              direct_product(cyclic(2), cyclic(4))):
        assert central_series(g).hypercentral


def test_quotient_group():
    g = cyclic(6)
    n = subgroup(g, [0, 3])
    q, proj = quotient_group(g, n)
    assert q.order == 3
    assert proj[0] == proj[3]
    # projection is a homomorphism
    for a in g.elements():
        for b in g.elements():
            assert q.mul(proj[a], proj[b]) == proj[g.mul(a, b)]


def test_quotient_requires_normal():
    s3 = symmetric(3)
    # an order-2 subgroup of S3 is not normal
    t = next(a for a in s3.elements()
             if a != s3.identity and element_order(s3, a) == 2)
    with pytest.raises(NotNormal):
        quotient_group(s3, subgroup(s3, [s3.identity, t]))


def test_elementary_abelian_xor():
    g = elementary_abelian_two(3)
    assert g.order == 8
    assert g.mul(3, 5) == 6
    assert all(g.inv(a) == a for a in g.elements())


@pytest.mark.parametrize("g", STOCK_GROUPS, ids=lambda g: f"order{g.order}")
def test_central_series_matches_the_loop(g):
    assert central_series(g) == central_series_loop(g)


@pytest.mark.parametrize("g", STOCK_GROUPS, ids=lambda g: f"order{g.order}")
def test_is_abelian_matches_the_pair_loop(g):
    want = all(g.mul(a, b) == g.mul(b, a)
               for a in g.elements() for b in g.elements())
    assert g.is_abelian() is want


@pytest.mark.parametrize("g", STOCK_GROUPS, ids=lambda g: f"order{g.order}")
def test_the_table_arrays_are_built_once_and_read_only(g):
    t, inv = g.arrays
    assert g.arrays[0] is t and g.arrays[1] is inv
    assert t.tolist() == [list(row) for row in g.table]
    assert inv.tolist() == list(g.inverses)
    assert not t.flags.writeable and not inv.flags.writeable
    # conjugation as the crossed product's equations read it: h a h^-1 at [h, a]
    assert t[t, inv[:, None]].tolist() == [[conj(g, a, h) for a in g.elements()]
                                           for h in g.elements()]


def test_a_graded_request_computes_the_central_series_once():
    # the gradation block and the simplicity equivalence both read it
    doc = json.loads((ROOT / "sample_requests/group_algebra_z2.json").read_text())
    doc["payload"]["gradation"].update(group="D4", degrees=[0, 4])
    with mock.patch.object(groups, "CentralSeries",
                           wraps=groups.CentralSeries) as spy:
        report = jsonio.run_request(jsonio.parse_request(json.dumps(doc)))
    assert report["report"]["simplicity_equivalence"] is not None
    assert spy.call_count == 1


@pytest.mark.parametrize("make", [cyclic, dihedral])
def test_a_stock_group_of_order_0_is_refused(make):
    with pytest.raises(ValidationError) as info:
        make(0)
    assert str(info.value) == "a group has order at least 1"

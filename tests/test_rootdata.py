from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from heightcount.rootdata import (
    GaloisOrbits,
    RootDataError,
    RootSystem,
    adjoint_weight_root_coords,
    is_saturated,
    manin_invariants,
    named_root_system,
    parse_config,
    root_datum,
    two_rho_coeffs,
    weight_to_root_basis,
)

SIMPLY_LACED = ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"]


# --------------------------------------------------------------------------
# an independent oracle: enumerate positive roots by root-string closure


def positive_roots(rs: RootSystem) -> set[tuple[int, ...]]:
    """All positive roots as integer vectors in the simple-root basis,
    built by closing the simple roots under root strings."""
    C = rs.cartan_matrix
    n = rs.rank

    def pairing(beta, i):  # <beta, alpha_i^vee>
        return sum(beta[j] * C[j][i] for j in range(n))

    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    changed = True
    while changed:
        changed = False
        for beta in list(roots):
            for i in range(n):
                down = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    if tuple(cur) in roots:
                        down += 1
                    else:
                        break
                if down - pairing(beta, i) > 0:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in roots and any(x > 0 for x in t):
                        roots.add(t)
                        changed = True
    return roots


@pytest.mark.parametrize("label", SIMPLY_LACED)
def test_two_rho_matches_positive_root_sum(label):
    rs = named_root_system(label)
    roots = positive_roots(rs)
    total = tuple(sum(r[i] for r in roots) for i in range(rs.rank))
    assert two_rho_coeffs(rs) == total


@pytest.mark.parametrize("label", SIMPLY_LACED)
def test_adjoint_weight_is_highest_root(label):
    rs = named_root_system(label)
    roots = positive_roots(rs)
    highest = max(roots, key=sum)
    marks = adjoint_weight_root_coords(label)
    assert marks == highest
    assert all(isinstance(m, int) and m > 0 for m in marks)
    # and converting its fundamental coordinates back reproduces it exactly
    C = rs.cartan_matrix
    fund = [sum(C[j][i] * marks[j] for j in range(rs.rank)) for i in range(rs.rank)]
    assert weight_to_root_basis(rs, fund) == tuple(Fraction(m) for m in marks)


# --------------------------------------------------------------------------
# pinned examples


def test_two_rho_a3():
    assert two_rho_coeffs(named_root_system("A3")) == (3, 4, 3)


def test_two_rho_a1():
    assert two_rho_coeffs(named_root_system("A1")) == (1,)


def test_two_rho_a2():
    # invert [[2,-1],[-1,2]] by hand: C^{-1} = 1/3 [[2,1],[1,2]], times (2,2)
    assert two_rho_coeffs(named_root_system("A2")) == (2, 2)


def test_weight_to_root_basis_a3_highest_root():
    rs = named_root_system("A3")
    assert weight_to_root_basis(rs, [1, 0, 1]) == (1, 1, 1)


def test_weight_to_root_basis_a1_adjoint():
    rs = named_root_system("A1")
    assert weight_to_root_basis(rs, [2]) == (1,)


def test_weight_to_root_basis_a2_standard():
    rs = named_root_system("A2")
    assert weight_to_root_basis(rs, [1, 0]) == (Fraction(2, 3), Fraction(1, 3))


def test_weight_to_root_basis_rejects_bad_length():
    with pytest.raises(RootDataError):
        weight_to_root_basis(named_root_system("A2"), [1])


def test_manin_invariants_pgl4_adjoint():
    rs = named_root_system("A3")
    inv = manin_invariants(rs, [1, 1, 1])
    assert inv.u == (3, 4, 3)
    assert inv.a == 5
    assert inv.b == 1
    assert inv.delta_iota == frozenset({2})
    assert inv.saturated


def test_manin_invariants_a1_adjoint():
    inv = manin_invariants(named_root_system("A1"), [1])
    assert (inv.a, inv.b, inv.delta_iota) == (2, 1, frozenset({1}))
    assert inv.saturated


def test_manin_invariants_a1xa1():
    rs = named_root_system("A1xA1")
    inv = manin_invariants(rs, [1, 1])
    assert (inv.a, inv.b) == (2, 2)
    assert inv.delta_iota == frozenset({1, 2})
    assert inv.saturated


def test_manin_invariants_a1xa1_weighted_not_saturated():
    rs = named_root_system("A1xA1")
    inv = manin_invariants(rs, [1, 2])
    assert (inv.a, inv.b) == (2, 1)
    assert inv.delta_iota == frozenset({1})
    assert not inv.saturated


def test_manin_invariants_rejects_nonpositive_weight():
    with pytest.raises(RootDataError):
        manin_invariants(named_root_system("A2"), [1, 0])
    with pytest.raises(RootDataError):
        manin_invariants(named_root_system("A2"), [1, -2])


def test_manin_invariants_rejects_straddling_orbit():
    rs = named_root_system("A1xA1")
    gal = GaloisOrbits((frozenset({1, 2}),))
    with pytest.raises(RootDataError, match="straddles"):
        manin_invariants(rs, [1, 2], gal)
    # a fully-contained orbit is fine and counts once
    inv = manin_invariants(rs, [1, 1], gal)
    assert inv.b == 1 and inv.a == 2


def test_is_saturated_cases():
    a3 = named_root_system("A3")
    assert is_saturated(a3, {2})
    prod = named_root_system("A1xA1")
    assert not is_saturated(prod, {1})
    assert is_saturated(prod, {1, 2})
    with pytest.raises(RootDataError):
        is_saturated(a3, {7})


# --------------------------------------------------------------------------
# structural validation


def test_root_system_rejects_singular_block():
    with pytest.raises(RootDataError):
        RootSystem(
            rank=2,
            cartan_matrix=((2, -2), (-2, 2)),
            factor_partition=(frozenset({1, 2}),),
        )


def test_root_system_rejects_bad_partition():
    with pytest.raises(RootDataError):
        RootSystem(
            rank=2,
            cartan_matrix=((2, -1), (-1, 2)),
            factor_partition=(frozenset({1}),),
        )


def test_root_system_rejects_cross_factor_coupling():
    with pytest.raises(RootDataError):
        RootSystem(
            rank=2,
            cartan_matrix=((2, -1), (-1, 2)),
            factor_partition=(frozenset({1}), frozenset({2})),
        )


@pytest.mark.parametrize("label", ["D2", "B1", "A0", "E5", "F3", "G3", "C1", "A1xD2"])
def test_unsupported_ranks_are_refused_by_both_readers(label):
    # the marks used to come from a table of their own: D2 gave (1, 1, 1),
    # B1 (1,), A0 () and E5, F3, G3 a bare KeyError
    with pytest.raises(RootDataError, match="unsupported type"):
        named_root_system(label)
    with pytest.raises(RootDataError, match="unsupported type"):
        adjoint_weight_root_coords(label)


def test_parse_config_named():
    rs, gal = root_datum(parse_config("type=A3\n"))
    assert rs.label == "A3" and rs.rank == 3
    assert gal.orbits == (frozenset({1}), frozenset({2}), frozenset({3}))


def test_parse_config_explicit():
    text = (
        "cartan=[[2,-1,0],[-1,2,-1],[0,-1,2]]\n"
        "factors=[[1,2,3]]\n"
        "galois=[[1],[2],[3]]\n"
    )
    rs, gal = root_datum(parse_config(text))
    assert rs.rank == 3
    assert two_rho_coeffs(rs) == (3, 4, 3)


def test_parse_config_rejects_garbage():
    with pytest.raises(RootDataError):
        parse_config("not a config")
    with pytest.raises(RootDataError):
        root_datum(parse_config("rank=3"))


# --------------------------------------------------------------------------
# properties

LABELS = st.sampled_from(["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4", "A1xA2"])


@given(
    label=LABELS,
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_fundamental_to_root_basis(label, data):
    rs = named_root_system(label)
    fund = data.draw(
        st.lists(
            st.integers(min_value=-20, max_value=20),
            min_size=rs.rank,
            max_size=rs.rank,
        )
    )
    m = weight_to_root_basis(rs, fund)
    C = rs.cartan_matrix
    back = tuple(
        sum(Fraction(C[j][i]) * m[j] for j in range(rs.rank)) for i in range(rs.rank)
    )
    assert back == tuple(Fraction(x) for x in fund)


@given(
    label=LABELS,
    num=st.integers(min_value=1, max_value=12),
    den=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_scaling_divides_a_and_fixes_argmax(label, num, den):
    rs = named_root_system(label)
    base = [Fraction(x) for x in adjoint_weight_root_coords(label)]
    c = Fraction(num, den)
    inv0 = manin_invariants(rs, base)
    inv1 = manin_invariants(rs, [c * x for x in base])
    assert inv1.a == inv0.a / c
    assert inv1.delta_iota == inv0.delta_iota
    assert inv1.b == inv0.b


def test_a1_product_height_exponent_rule():
    # for A1 with weight coefficient w the exponent is 2/w, the rule the
    # weighted product counts rely on
    rs = named_root_system("A1")
    for w in (1, 2, 3, 5):
        assert manin_invariants(rs, [w]).a == Fraction(2, w)

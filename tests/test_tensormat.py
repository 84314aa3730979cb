"""Tensor-leg matrices: the r-matrix, boundary matrices, and their checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsalg.exactalg import (
    LaurentPoly,
    complement,
    factor_canonical,
    factor_lcm,
    parameter,
    rat,
    spectral,
)
from onsalg import tensormat
from onsalg.tensormat import (
    BoundaryMat,
    TensorMat,
    build_boundary,
    build_r,
    build_rbar,
    check_cybe,
    check_M_condition,
    check_nscybe,
    check_r_symmetries,
    check_reflection,
    check_U_conditions,
    commutator_sum,
    embed_indices,
    leg_embed,
    partial_transpose,
    trace_leg,
    u_derivative,
)

U = spectral("u")
X = spectral("x")
Y = spectral("y")


def _pv(v):
    return LaurentPoly.var(v, (v,))


def _mutate_entry(m, i, j, fn):
    nums = [list(row) for row in m.nums]
    nums[i][j] = fn(nums[i][j])
    return TensorMat._raw(m.legs, m.variables, nums, m.den_factors)


def _altered_k(x=X):
    # the (1,2) entry changed from beta + gamma/x to beta + gamma*x,
    # which is not a reflection solution
    b = build_boundary("k_general", x=x)
    nums = [list(r) for r in b.mat.nums]
    be, ga = b.params["beta"], b.params["gamma"]
    nums[0][1] = _pv(be) + _pv(ga) * _pv(x)
    mat = TensorMat._raw(1, b.mat.variables, nums, b.mat.den_factors)
    return BoundaryMat("k_general", mat, x, b.params)


# -- the r-matrix itself -------------------------------------------------


def test_r_entries():
    # every entry lies over the one simple pole u - 1
    r = build_r(U)
    uu = _pv(U)
    half = rat(1, 2)
    assert r.legs == 2
    assert r.den_factors == (uu - 1,)
    expected = {
        (0, 0): -half * (uu + 1),
        (1, 1): half * (uu + 1),
        (1, 2): LaurentPoly.const(-2),
        (2, 1): -2 * uu,
        (2, 2): half * (uu + 1),
        (3, 3): -half * (uu + 1),
    }
    for i in range(4):
        for j in range(4):
            assert r.nums[i][j] == expected.get((i, j), 0), (i, j)


def test_r_derivative_cleared():
    # (u-1)^2 * u * r'(u) is polynomial with a single simple table
    r = build_r(U)
    uu = _pv(U)
    den = r.denominator()
    assert den == uu - 1
    table = {
        (0, 0): 1,
        (1, 1): -1,
        (1, 2): 2,
        (2, 1): 2,
        (2, 2): -1,
        (3, 3): 1,
    }
    for i in range(4):
        for j in range(4):
            n = r.nums[i][j]
            # the quotient rule: den^2 * (n / den)' = n' den - n den'
            got = (n.derivative(U) * den - n * den.derivative(U)) * uu
            want = uu * table.get((i, j), 0)
            assert got == want, (i, j)


def test_u_derivative_clears_to_the_table():
    # the same table as above, through the factored denominator
    pole = _pv(U) - 1
    rows = u_derivative(build_r(U)).cleared([pole, pole])
    table = {(0, 0): 1, (1, 1): -1, (1, 2): 2, (2, 1): 2, (2, 2): -1, (3, 3): 1}
    for i in range(4):
        for j in range(4):
            assert rows[i][j] == _pv(U) * table.get((i, j), 0), (i, j)


def test_cleared_needs_every_denominator_factor():
    r = build_r(U)
    with pytest.raises(ValueError, match="not covered by the clearing set"):
        r.cleared(())
    pole = _pv(U) - 1
    assert r.cleared([pole]) == r.nums
    assert r.cleared([pole, _pv(U) + 1])[1][2] == -2 * (_pv(U) + 1)
    with pytest.raises(ValueError):
        build_rbar(build_boundary("U_diag", x=X), X, Y).cleared([_pv(X) - _pv(Y)])


def test_scale_rejects_rational_functions():
    r = build_r(U)
    doubled = r.scale(2)
    assert doubled.nums[1][2] == -4 and doubled.den_factors == r.den_factors
    # 1/(u - 1) as a rational-function value: a zero-leg matrix
    inv_pole = TensorMat._raw(0, (U,), [[LaurentPoly.const(1)]], (_pv(U) - 1,))
    with pytest.raises(TypeError, match="scale takes a scalar or a LaurentPoly"):
        r.scale(inv_pole)


def test_cybe_passes():
    rep = check_cybe(build_r(U))
    assert rep.passed
    assert rep.residual_term_count == 0


def test_cybe_fails_on_doubled_entry():
    # entry (2,3) of the 4x4, i.e. zero-based (1,2), doubled
    bad = _mutate_entry(build_r(U), 1, 2, lambda p: 2 * p)
    rep = check_cybe(bad)
    assert not rep.passed
    assert rep.witnesses


def test_r_symmetries_pass():
    assert check_r_symmetries(build_r(U)).passed


def test_r_symmetries_fail_on_sign_flip():
    bad = _mutate_entry(build_r(U), 0, 0, lambda p: -1 * p)
    rep = check_r_symmetries(bad)
    assert not rep.passed
    assert rep.residual_term_count == 22
    # the trace numerator is shown over the matrix's denominator
    assert rep.witnesses[0] == {"position": "trace", "residual": "(1 + u)/(-1 + u)"}


# -- leg plumbing ---------------------------------------------------------


def test_leg_embed_uses_leg_one_as_high_bit():
    b = build_boundary("U_diag", params={"k": 2, "kstar": 3}).mat
    on1 = leg_embed(b, (1,), 2)
    on2 = leg_embed(b, (2,), 2)
    assert on1.den_factors == on2.den_factors == ()
    diag1 = [on1.nums[i][i] for i in range(4)]
    diag2 = [on2.nums[i][i] for i in range(4)]
    assert diag1 == [2, 2, -3, -3]
    assert diag2 == [2, -3, 2, -3]


def test_partial_transpose_commutes_with_disjoint_embed():
    b = build_boundary("U_offdiag").mat
    emb = leg_embed(b, (1,), 2)
    # transposing the identity leg changes nothing
    assert (partial_transpose(emb, 2) - emb).is_zero()
    # transposing the occupied leg is embedding the transpose
    want = leg_embed(b.transpose(), (1,), 2)
    assert (partial_transpose(emb, 1) - want).is_zero()


def test_trace_leg_of_embedding():
    b = build_boundary("U_diag").mat
    got = trace_leg(leg_embed(b, (1,), 2), 1)
    assert b.den_factors == ()
    tr = b.trace()
    want = TensorMat(1, [[tr, 0], [0, tr]])
    assert (got - want).is_zero()


def test_leg_operations_on_a_middle_leg_read_the_standard_order():
    # a (x) b (x) c with no symmetric factor: the legs left over keep leg 1
    # as their high bit, so tracing or transposing leg 2 of three sees it
    a, b, c = (TensorMat(1, rows) for rows in ([[1, 2], [3, 4]], [[5, 6], [7, 8]],
                                               [[9, 10], [11, 12]]))
    assert embed_indices((2,), 1, 3) == [[0, 1, 4, 5], [2, 3, 6, 7]]
    abc = leg_embed(a, (1,), 3) @ leg_embed(b, (2,), 3) @ leg_embed(c, (3,), 3)
    ac = leg_embed(a, (1,), 2) @ leg_embed(c, (2,), 2)
    assert (trace_leg(abc, 2) - ac.scale(13)).is_zero()
    abtc = leg_embed(a, (1,), 3) @ leg_embed(b.transpose(), (2,), 3) @ leg_embed(c, (3,), 3)
    assert (partial_transpose(abc, 2) - abtc).is_zero()


def test_inverse_2x2():
    b = build_boundary("k_general", x=X)
    prod = b.mat @ b.mat.inverse_2x2()
    ident = TensorMat(1, [[1, 0], [0, 1]])
    assert (prod - ident).is_zero()


def test_k_general_determinant():
    # det k(x) = alpha*delta*(x - 1/x)^2 + (beta + gamma/x)(beta + gamma*x)
    b = build_boundary("k_general", x=X)
    (a, bb), (c, d) = b.mat.nums
    det = a * d - bb * c
    al, be, ga, de = (
        _pv(b.params[n]) for n in ("alpha", "beta", "gamma", "delta")
    )
    xx = _pv(X)
    inv_x = LaurentPoly.monomial((X,), (-2,), 1)
    sx = xx - inv_x
    want = al * de * sx * sx + (be + ga * inv_x) * (be + ga * xx)
    assert det == want


# -- boundary condition checks --------------------------------------------


def test_u_conditions_both_solutions():
    assert check_U_conditions(build_boundary("U_diag"), 1).passed
    assert check_U_conditions(build_boundary("U_offdiag"), -1).passed


def test_u_conditions_fail_with_wrong_sign():
    rep = check_U_conditions(build_boundary("U_diag"), -1)
    assert not rep.passed
    # the transpose condition residual is 2U on the diagonal
    assert any("transpose" in w["position"] for w in rep.witnesses)


def test_reflection_symbolic():
    rep = check_reflection(build_boundary("k_general"))
    assert rep.passed


@pytest.mark.parametrize("family", ["U_diag", "U_offdiag", "kappa_plus", "kappa_minus"])
def test_reflection_named_families(family):
    assert check_reflection(build_boundary(family, x=X)).passed


def test_reflection_fails_on_altered_entry():
    rep = check_reflection(_altered_k())
    assert not rep.passed
    assert rep.witnesses


# -- the non-standard r-matrix --------------------------------------------


@pytest.mark.parametrize(
    "family", ["U_diag", "U_offdiag", "kappa_plus", "kappa_minus", "k_general"]
)
def test_nscybe(family):
    b = build_boundary(family, x=X)
    rep = check_nscybe(build_rbar(b, X, Y), label=family)
    assert rep.passed, rep


def test_nscybe_fails_for_non_solution():
    rep = check_nscybe(build_rbar(_altered_k(), X, Y))
    assert not rep.passed
    assert rep.witnesses


@pytest.mark.parametrize(
    "make_k",
    [*(lambda f=f: build_boundary(f, x=X)
       for f in ("U_diag", "U_offdiag", "kappa_plus", "kappa_minus", "k_general")),
     _altered_k],
    ids=["U_diag", "U_offdiag", "kappa_plus", "kappa_minus", "k_general", "altered"],
)
def test_nscybe_residual_is_the_unreduced_commutator_sum(monkeypatch, make_k):
    # check_nscybe divides rbar by its content in x and multiplies
    # g(x1) g(x2) back; the oracle commutes the undivided embeddings
    rbar = build_rbar(make_k(), X, Y)
    xs = {i: _pv(spectral(f"x{i}")) for i in (1, 2, 3)}
    rb13, rb23, rb21, rb12 = (
        leg_embed(rbar.substitute({X: xs[i], Y: xs[j]}), (i, j), 3)
        for i, j in ((1, 3), (2, 3), (2, 1), (1, 2))
    )
    oracle = commutator_sum([(rb13, rb23), (rb13, rb21), (rb12, rb23)])
    seen = []
    report = tensormat._residual_report
    monkeypatch.setattr(tensormat, "_residual_report",
                        lambda name, mat, region: seen.append(mat) or report(name, mat, region))
    rep = check_nscybe(rbar)
    (residual,) = seen
    assert residual.den_factors == oracle.den_factors
    for row, oracle_row in zip(residual.nums, oracle.nums):
        for n, m in zip(row, oracle_row):
            assert n.terms == m.terms
    assert rep.residual_term_count == oracle.term_count()
    assert rep.passed == (make_k is not _altered_k)


def test_rbar_layout():
    b = build_boundary("U_diag", x=X)
    rbar = build_rbar(b, X, Y)
    assert rbar.legs == 2
    assert rbar.variables[:2] == (X, Y)


@pytest.mark.parametrize(
    "make_k",
    [lambda x: build_boundary("k_general", x=x), _altered_k],
    ids=["k_general", "altered"],
)
def test_verdicts_ignore_variable_names(make_k):
    # t, s put rbar's arguments against name order; x, y follow it
    T, S = spectral("t"), spectral("s")

    def verdicts(x, y):
        b = make_k(x)
        rbar = build_rbar(b, x, y)
        assert rbar.variables[:2] == (x, y)
        return [
            (rep.passed, rep.residual_term_count)
            for rep in (check_nscybe(rbar), check_reflection(b))
        ]

    assert verdicts(T, S) == verdicts(X, Y)


# -- the M matrices --------------------------------------------------------


def _rbar_for(current_family):
    pinned = {
        "onsager": ("U_diag", {"k": 1, "kstar": 1}),
        "augmented": ("U_offdiag", {"sign": -1}),
        "invariant": ("kappa_plus", None),
    }
    fam, params = pinned[current_family]
    return build_rbar(build_boundary(fam, params=params, x=X), X, Y)


@pytest.mark.parametrize(
    "m_family,current",
    [("M_ons", "onsager"), ("M_aug", "augmented"), ("M_inv", "invariant")],
)
def test_m_conditions(m_family, current):
    rep = check_M_condition(build_boundary(m_family, x=X), _rbar_for(current))
    assert rep.passed, rep


def test_m_ons_allows_equal_symbolic_weights():
    # the diagonal boundary weights must agree, but need not be numeric
    kv = parameter("k")
    b = build_boundary("U_diag", params={"k": kv, "kstar": kv}, x=X)
    rep = check_M_condition(build_boundary("M_ons", x=X), build_rbar(b, X, Y))
    assert rep.passed


def test_m_ons_needs_equal_weights():
    rep = check_M_condition(build_boundary("M_ons", x=X),
                            build_rbar(build_boundary("U_diag", x=X), X, Y))
    assert not rep.passed


def test_m_ons_fails_with_mismatched_rbar():
    rep = check_M_condition(build_boundary("M_ons", x=X), _rbar_for("augmented"))
    assert not rep.passed
    assert rep.witnesses


# -- the fused kernel against the term-by-term definitions --------------------------

# canonical factors, one of them (x - 1/2) with a non-integral coefficient
_FACTORS = [
    factor_canonical(p)[1][0]
    for p in (_pv(X) - 1, _pv(X) + 1, _pv(X) - _pv(Y), _pv(X) * _pv(Y) - 1, 2 * _pv(X) - 1)
]
_COEFFS = st.one_of(st.integers(-3, 3), st.sampled_from([rat(1, 2), rat(-1, 2), rat(1, 3)]))
_ENTRIES = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), _COEFFS, max_size=3
).map(lambda terms: LaurentPoly((X, Y), terms))


@st.composite
def _mats(draw, legs):
    dim = 2 ** legs
    nums = [[draw(_ENTRIES) for _ in range(dim)] for _ in range(dim)]
    den = draw(st.lists(st.sampled_from(_FACTORS), max_size=3))
    return TensorMat._raw(legs, (X, Y), nums, den)


def _mat_pairs(count):
    return st.sampled_from([1, 2]).flatmap(
        lambda legs: st.lists(st.tuples(_mats(legs), _mats(legs)), min_size=1, max_size=count)
    )


def _ref_matmul(a, b):
    dim = a.dim
    nums = [[LaurentPoly.zero() for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                nums[i][j] = nums[i][j] + a.nums[i][k] * b.nums[k][j]
    return nums, a.den_factors + b.den_factors


def _ref_combine(a, b, sign):
    den = factor_lcm(a.den_factors, b.den_factors)
    pa, pb = complement(a.den_factors, den), complement(b.den_factors, den)
    nums = [
        [x * pa + (y * pb) * sign for x, y in zip(ra, rb)]
        for ra, rb in zip(a.nums, b.nums)
    ]
    return nums, den


def _ref(nums, den):
    return TensorMat._raw(len(nums).bit_length() - 1, (X, Y), nums, den)


def _ref_commutator_sum(pairs):
    total = None
    for a, b in pairs:
        c = _ref(*_ref_combine(_ref(*_ref_matmul(a, b)), _ref(*_ref_matmul(b, a)), -1))
        total = c if total is None else _ref(*_ref_combine(total, c, 1))
    return total.nums, total.den_factors


_RATIONAL = type(rat(1, 2))


def _same(fused, reference):
    """fused equals reference term by term, with every coefficient stored
    as an int or a non-integral Rational (by type, not by ==)."""
    nums, den = reference
    assert [f.terms for f in fused.den_factors] == [
        f.terms for f in sorted(den, key=str)
    ]
    assert [[n.terms for n in row] for row in fused.nums] == [
        [n.terms for n in row] for row in nums
    ]
    for row in fused.nums:
        for n in row:
            for c in n.terms.values():
                assert type(c) is int or (type(c) is _RATIONAL and c.denominator != 1), c


@settings(max_examples=60, deadline=None)
@given(_mat_pairs(1))
def test_guards_fused_matmul_add_sub_match_the_definitions(pairs):
    ((a, b),) = pairs
    _same(a @ b, _ref_matmul(a, b))
    _same(a + b, _ref_combine(a, b, 1))
    _same(a - b, _ref_combine(a, b, -1))


@settings(max_examples=40, deadline=None)
@given(_mat_pairs(3))
def test_guards_commutator_sum_matches_the_pairwise_chain(pairs):
    _same(commutator_sum(pairs), _ref_commutator_sum(pairs))
    a, b = pairs[0]
    _same(a.commutator(b), _ref_commutator_sum(pairs[:1]))


def _over(rows, den):
    return TensorMat._raw(1, (X, Y), TensorMat(1, rows).nums, den)


def test_guards_commutator_sum_groups_pairs_by_denominator():
    # [a, b] + [b, a] cancels within its group; a third pair over another
    # multiset is scaled into the lcm
    f, g = _FACTORS[0], _FACTORS[2]
    a = _over([[_pv(X), 1], [0, _pv(Y)]], (f,))
    b = _over([[1, _pv(Y)], [_pv(X), 0]], (g,))
    c = _over([[0, 1], [rat(1, 2), 0]], (g, g))
    assert commutator_sum([(a, b), (b, a)]).is_zero()
    total = commutator_sum([(a, b), (b, a), (a, c)])
    _same(total, _ref_commutator_sum([(a, b), (b, a), (a, c)]))
    assert sorted(map(str, total.den_factors)) == sorted(map(str, (f, g, g)))


def test_guards_int_inputs_over_a_rational_complement():
    # int numerators completed by x - 1/2: 2 * (-1/2) is stored as an int
    half = _FACTORS[4]
    two = _over([[2, 0], [0, 2]], ())
    zero = _over([[0, 0], [0, 0]], (half,))
    p, q = _over([[0, 2], [0, 0]], ()), _over([[0, 0], [1, 0]], ())
    for fused, reference in (
        (two + zero, _ref_combine(two, zero, 1)),
        (zero - two, _ref_combine(zero, two, -1)),
        (commutator_sum([(p, q), (zero, q)]), _ref_commutator_sum([(p, q), (zero, q)])),
    ):
        assert fused.nums[0][0].terms[0] in (1, -1)
        _same(fused, reference)


def test_guards_trace_sums_to_ints():
    # 1/2 + 1/2 is stored as the int 1
    m = TensorMat(1, [[rat(1, 2), 0], [0, rat(1, 2)]])
    assert type(m.trace().terms[0]) is int
    assert type(trace_leg(leg_embed(m, (1,), 2), 1).nums[0][0].terms[0]) is int


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: TensorMat(-1), "legs must be a non-negative int, not -1"),
        (lambda: TensorMat(1.0), "legs must be a non-negative int, not 1.0"),
        (lambda: TensorMat("2"), "legs must be a non-negative int, not '2'"),
        (lambda: build_rbar(build_boundary("U_diag", x=X), X, parameter("y")),
         "build_rbar needs y to be a spectral Variable other than x"),
        (lambda: build_rbar(build_boundary("U_diag", x=X), X, X),
         "build_rbar needs y to be a spectral Variable other than x"),
        # a parameter as x would stand at a negative power in k_general
        (lambda: build_boundary("k_general", x=parameter("x")),
         "build_boundary needs x to be a spectral Variable, not"),
        (lambda: build_boundary("U_diag", x="x"),
         "build_boundary needs x to be a spectral Variable, not 'x'"),
        (lambda: build_boundary("U_offdiag", x=LaurentPoly.var(X)),
         "build_boundary needs x to be a spectral Variable, not"),
        (lambda: commutator_sum([]), "commutator_sum needs at least one pair"),
        (lambda: commutator_sum([(TensorMat(1), TensorMat(2))]),
         "leg mismatch: 1 and 2 legs"),
    ],
    ids=["legs-negative", "legs-float", "legs-str", "rbar-parameter-y", "rbar-y-is-x",
         "boundary-parameter-x", "boundary-str-x", "boundary-poly-x",
         "commutator-sum-empty", "commutator-sum-legs"],
)
def test_guards_tensormat_inputs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_guards_zero_legs_is_a_scalar():
    assert TensorMat(0, [[3]]).trace() == 3


def _wide(den=()):
    # a doubled exponent of 20000: its square would spill a monomial field
    big = LaurentPoly.monomial((X,), (20000,))
    return TensorMat._raw(1, (X,), TensorMat(1, [[big, 0], [0, big]]).nums, den)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _wide() @ _wide(),
        # x^10000 - 1 completes the first denominator
        lambda: _wide() + _wide(factor_canonical(
            LaurentPoly.monomial((X,), (20000,)) - 1)[1]),
        lambda: _wide() - _wide(factor_canonical(
            LaurentPoly.monomial((X,), (20000,)) - 1)[1]),
        lambda: commutator_sum([(_wide(), _wide())]),
        lambda: _wide().commutator(_wide()),
    ],
    ids=["matmul", "add", "sub", "commutator-sum", "commutator"],
)
def test_guards_spilling_exponents_overflow(call):
    with pytest.raises(OverflowError):
        call()

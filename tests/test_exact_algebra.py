"""Exact-arithmetic core: Gaussian rationals, polynomials, resultants."""

import random
from fractions import Fraction

import pytest

from conetower.certificates import Certificate
from conetower.errors import (
    InternalInconsistencyError,
    ParseError,
    ValidationError,
    VariableMismatchError,
    ZeroInputError,
)
from conetower.gaussian import GaussianRational, I, ONE, ZERO
from conetower.laurent import LaurentPoly
from conetower.multipoly import (
    MultiPoly,
    _bareiss_determinant,
    _zi_exact_quotient,
    _zi_mul_sub,
    differentiate,
    extract_variable_power,
    parse_poly,
    poly_to_string,
    resultant,
    substitute,
)
from conetower.singular import _monic_gcd

Z = ("z1", "z2", "z3", "z4")


def P(text, variables=Z):
    return parse_poly(text, variables)


# ---------------------------------------------------------------- Gaussian rationals


def test_gaussian_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(2, 5)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(17, 4))
    assert a * b - b * a == ZERO
    assert (a / b) * b == a
    assert a * a.conjugate() == GaussianRational(Fraction(1, 4) + Fraction(9, 16))
    assert I * I == GaussianRational(-1)
    assert (ONE + I) ** 2 == 2 * I


def test_gaussian_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_gaussian_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational(0.5)


@pytest.mark.parametrize("exponent", [True, False, 2.0])
def test_gaussian_power_refuses_a_bool_exponent_as_it_does_a_non_int(exponent):
    # x ** True was once x, and x ** False was 1
    with pytest.raises(TypeError, match="unsupported operand"):
        GaussianRational(2, 1) ** exponent


@pytest.mark.parametrize("exponent", [True, False, 2.0])
def test_multipoly_power_refuses_a_bool_exponent_as_it_does_a_non_int(exponent):
    x = MultiPoly.variable(("x",), "x")
    with pytest.raises(ValueError, match="polynomial exponent must be a non-negative integer"):
        (x + MultiPoly.constant(("x",), 1)) ** exponent


@pytest.mark.parametrize("exponent", [-1, 1.5, "2", True])
def test_multipoly_power_refuses_a_bad_exponent_with_a_typed_error(exponent):
    x = MultiPoly.variable(("x",), "x")
    with pytest.raises(ValidationError, match="polynomial exponent must be a non-negative integer"):
        x ** exponent


def test_real_gaussian_rationals_hash_as_the_ints_and_fractions_they_equal():
    # equal values are one set element and one dict key, whichever type each is
    for value in (0, 2, -7, 10 ** 30, Fraction(1, 2), Fraction(-9, 4), Fraction(10 ** 30, 7)):
        g = GaussianRational(value)
        assert g == value and hash(g) == hash(value) == hash(Fraction(value))
        assert len({g, value, Fraction(value)}) == 1
        assert {value: "x"}.get(g) == "x" and {g: "x"}.get(value) == "x"
    assert len({GaussianRational(2), 2, Fraction(4, 2), GaussianRational(Fraction(6, 3)), (ONE + I) * (ONE - I)}) == 1
    assert {Fraction(3, 4): "x"}.get(GaussianRational(3) / 4) == "x"
    # a value with an imaginary part equals no int or Fraction
    assert len({I, GaussianRational(1, 1), 1, Fraction(1), 0}) == 4


def test_gaussian_str_roundtrip_through_parser():
    values = [
        GaussianRational(3),
        GaussianRational(Fraction(-1, 2)),
        I,
        -I,
        GaussianRational(0, Fraction(2, 7)),
        GaussianRational(1, 2),
        GaussianRational(Fraction(-1, 3), Fraction(-5, 2)),
    ]
    for value in values:
        poly = parse_poly(str(value), Z)
        assert poly.constant_value() == value


# ---------------------------------------------------------------- parsing and printing


def test_parse_defining_hypersurface_k2():
    # k=2 instance of the cone z1^2+z2^2+z3^2-z4^(2k)
    f = P("z1^2 + z2^2 + z3^2 - z4^4")
    assert f.terms[(2, 0, 0, 0)] == ONE
    assert f.terms[(0, 0, 0, 4)] == GaussianRational(-1)
    assert len(f.terms) == 4


def test_parse_center_generator():
    f = P("z1 - i*z2")
    assert f.terms[(1, 0, 0, 0)] == ONE
    assert f.terms[(0, 1, 0, 0)] == -I
    assert len(f.terms) == 2


def test_parse_zero():
    assert P("0").is_zero()
    assert P("0").terms == {}


def test_parse_coefficient_forms():
    f = P("2*z1 + 1/2*z2 + i*z3 + 3/4*i*z4 + (1+2*i)*z1*z2")
    assert f.terms[(1, 0, 0, 0)] == GaussianRational(2)
    assert f.terms[(0, 1, 0, 0)] == GaussianRational(Fraction(1, 2))
    assert f.terms[(0, 0, 1, 0)] == I
    assert f.terms[(0, 0, 0, 1)] == GaussianRational(0, Fraction(3, 4))
    assert f.terms[(1, 1, 0, 0)] == GaussianRational(1, 2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        P("z1 + $")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        P("z1 + w2")  # unknown variable
    with pytest.raises(ParseError):
        P("z1^-2")  # negative exponent outside laurent mode


def test_print_parse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            exps = tuple(rng.randint(0, 3) for _ in Z)
            coeff = GaussianRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            )
            terms[exps] = coeff
        f = MultiPoly(Z, terms)
        assert parse_poly(poly_to_string(f), Z) == f


# ---------------------------------------------------------------- products


def test_difference_of_squares():
    assert P("z1 - i*z2") * P("z1 + i*z2") == P("z1^2 + z2^2")


def test_monomial_product():
    u = ("u1", "u2", "u3", "u4")
    assert P("u4", u) * P("u4", u) == P("u4^2", u)


def test_one_minus_t4():
    t = ("t",)
    assert P("1 + t^2", t) * P("1 - t^2", t) == P("1 - t^4", t)


@pytest.mark.parametrize("exponent", [-1, 1.5, 2.0, "2", True, None])
def test_multipoly_rejects_bad_exponents(exponent):
    # an exponent is neither truncated (1.5) nor converted ("2", True); a
    # negative one is refused too, all with the same error type
    with pytest.raises(ValidationError, match="exponents must be non-negative ints"):
        MultiPoly(("x", "y"), {(1, exponent): 3})


@pytest.mark.parametrize("variables, message", [
    (("x", "y", "x"), "duplicate variable names"),
    (("x", "i"), "imaginary unit"),
], ids=["duplicate", "imaginary-unit"])
def test_multipoly_refuses_bad_variables_with_a_typed_error(variables, message):
    with pytest.raises(ValidationError, match=message):
        MultiPoly(variables, {})


@pytest.mark.parametrize("call, message", [
    (lambda: MultiPoly(("x", "y"), {(1,): 3}), "exponent vector (1,) has wrong length for ('x', 'y')"),
    (lambda: P("z1 + 2").constant_value(), "z1 + 2 is not constant"),
    (lambda: _bareiss_determinant([]), "empty matrix"),
    (lambda: LaurentPoly.from_multipoly(P("z1*z2"), "z1"), "z1*z2 is not univariate in z1"),
    (lambda: Certificate(command="quadric", status="MAYBE"), "unknown certificate status 'MAYBE'"),
], ids=["exponent-length", "constant-value", "empty-determinant", "laurent-not-univariate",
        "certificate-status"])
def test_refusals_are_typed_and_keep_their_messages(call, message):
    # a ValidationError is a ValueError, so callers that caught the bare one still do
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == message


def test_mul_variable_mismatch():
    with pytest.raises(VariableMismatchError):
        P("z1") * parse_poly("u1", ("u1", "u2", "u3", "u4"))


# ---------------------------------------------------------------- differentiation


def test_power_rule_on_cone_k3():
    f3 = P("z1^2 + z2^2 + z3^2 - z4^6")
    assert differentiate(f3, "z4") == P("-6*z4^5")


def test_derivative_of_perturbed_equation():
    # N=2, eps=1 perturbation of the k-cone: the z1-part is z1^2 + z1^4
    f = P("z1^2 + z2^2 + z3^2 - z4^2 + z1^4 + z2^4 + z3^4 + z4^4")
    assert differentiate(f, "z1") == P("2*z1 + 4*z1^3")


def test_derivative_constant_i():
    assert differentiate(P("z1 - i*z2"), "z2") == P("0 - i")


def test_leibniz_rule_random():
    rng = random.Random(3)
    for _ in range(30):
        f = _random_poly(rng)
        g = _random_poly(rng)
        for var in Z[:2]:
            lhs = differentiate(f * g, var)
            rhs = differentiate(f, var) * g + f * differentiate(g, var)
            assert lhs == rhs


# ---------------------------------------------------------------- substitution


def _blowup_assignment():
    u = ("u1", "u2", "u3", "u4")
    return {
        "z1": parse_poly("u1*u4", u),
        "z2": parse_poly("u2*u4", u),
        "z3": parse_poly("u3*u4", u),
        "z4": parse_poly("u4", u),
    }


def test_substitute_blowup_chart_on_f2():
    f2 = P("z1^2 + z2^2 + z3^2 - z4^4")
    total = substitute(f2, _blowup_assignment())
    u = ("u1", "u2", "u3", "u4")
    expected = parse_poly("u4^2", u) * parse_poly("u1^2 + u2^2 + u3^2 - u4^2", u)
    assert total == expected


def test_substitute_straightening_of_fk():
    # straightening z1 = p + i*a, z2 = a, z3 = q + b^k, z4 = b at k=3;
    # hand expansion via z1^2+z2^2 = (z1-i z2)(z1+i z2) gives p(p+2ia)+q(q+2b^k)
    for k in (1, 2, 3):
        v = ("p", "a", "q", "b")
        assignment = {
            "z1": parse_poly("p + i*a", v),
            "z2": parse_poly("a", v),
            "z3": parse_poly(f"q + b^{k}", v),
            "z4": parse_poly("b", v),
        }
        fk = P(f"z1^2 + z2^2 + z3^2 - z4^{2 * k}")
        expected = parse_poly("p", v) * parse_poly("p + 2*i*a", v) + parse_poly("q", v) * parse_poly(
            f"q + 2*b^{k}", v
        )
        assert substitute(fk, assignment) == expected


def test_substitute_identity():
    f = P("z1^2 - i*z2*z4 + 3/7")
    identity = {v: MultiPoly.variable(Z, v) for v in Z}
    assert substitute(f, identity) == f


def test_substitute_missing_variable():
    with pytest.raises(VariableMismatchError):
        substitute(P("z1 + z2"), {"z1": P("z1")})


def test_substitution_composes_on_triangular_maps():
    rng = random.Random(11)
    for _ in range(20):
        m1 = _random_triangular_assignment(rng)
        m2 = _random_triangular_assignment(rng)
        f = _random_poly(rng, max_terms=5, max_exp=2)
        composed = {v: substitute(m1[v], m2) for v in Z}
        assert substitute(substitute(f, m1), m2) == substitute(f, composed)


# ---------------------------------------------------------------- variable-power extraction


def test_extract_total_transform():
    u = ("u1", "u2", "u3", "u4")
    total = parse_poly("u4^2", u) * parse_poly("u1^2 + u2^2 + u3^2 - u4^2", u)
    mult, quotient = extract_variable_power(total, "u4")
    assert mult == 2
    assert quotient == parse_poly("u1^2 + u2^2 + u3^2 - u4^2", u)


def test_extract_no_power():
    f = P("z1^2 + 1")
    assert extract_variable_power(f, "z4") == (0, f)


def test_extract_pure_power():
    u = ("u1", "u2", "u3", "u4")
    mult, quotient = extract_variable_power(parse_poly("u4^3", u), "u4")
    assert mult == 3
    assert quotient == parse_poly("1", u)


def test_extract_zero_errors():
    with pytest.raises(ZeroInputError):
        extract_variable_power(MultiPoly.zero(Z), "z1")


def test_extract_roundtrip_random():
    rng = random.Random(5)
    for _ in range(40):
        f = _random_poly(rng)
        if f.is_zero():
            continue
        for var in ("z1", "z4"):
            mult, quotient = extract_variable_power(f, var)
            assert MultiPoly.variable(Z, var) ** mult * quotient == f
            idx = quotient.variables.index(var)
            assert min(exps[idx] for exps in quotient.zterms) == 0


# ---------------------------------------------------------------- resultants


def test_resultant_frozen_examples():
    x = ("x",)
    # 3x3 Sylvester determinant, expanded by hand: 2
    assert resultant(P("x^2 + 1", x), P("x - 1", x), "x").constant_value() == GaussianRational(2)

    shared = P("x", x)
    assert resultant(shared, shared, "x").is_zero()

    # lc(f)^deg(g) * prod g(roots of f) = 4 * (1/2)^2 = 1
    assert resultant(P("2*x^2 + 1", x), P("x^2 + 1", x), "x").constant_value() == ONE


def test_resultant_zero_input():
    x = ("x",)
    with pytest.raises(ZeroInputError):
        resultant(MultiPoly.zero(x), P("x", x), "x")


def test_resultant_antisymmetry_random():
    rng = random.Random(13)
    x = ("x",)
    for _ in range(25):
        f = _random_univar(rng, x)
        g = _random_univar(rng, x)
        if f.is_zero() or g.is_zero():
            continue
        sign = (-1) ** (f.degree_in("x") * g.degree_in("x"))
        assert resultant(f, g, "x").scale(GaussianRational(sign)) == resultant(g, f, "x")


def test_resultant_with_parameters_detects_shared_roots():
    # Res_x(x^2 - s, x - 1) = 1 - s vanishes exactly when x=1 is a root
    xs = ("x", "s")
    assert resultant(P("x^2 - s", xs), P("x - 1", xs), "x") == P("1 - s", xs)


def test_zi_exact_quotient_roundtrip():
    # Z[i] term maps over (x, y, w): the kernel's exact quotient undoes its product
    rng = random.Random(17)

    def term_map(max_terms):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            c = (rng.randint(-6, 6), rng.randint(-6, 6))
            if c != (0, 0):
                terms[tuple(rng.randint(0, 2) for _ in range(3))] = c
        return terms

    checked = 0
    while checked < 25:
        f, g = term_map(4), term_map(3)
        if not g:
            continue
        assert _zi_exact_quotient(_zi_mul_sub(f, g, {}, {}), g) == f
        checked += 1


def test_zi_exact_quotient_checks_exactness():
    # term maps over (x, y): exponent tuple -> (re, im) Gaussian integer
    x_plus_i = {(1, 0): (1, 0), (0, 0): (0, 1)}
    product = {(2, 0): (1, 0), (0, 0): (1, 0)}  # x^2 + 1 = (x + i)(x - i)
    assert _zi_exact_quotient(product, x_plus_i) == {(1, 0): (1, 0), (0, 0): (0, -1)}
    # 3x / 2 is exact over Q(i) but not over Z[i]
    with pytest.raises(InternalInconsistencyError):
        _zi_exact_quotient({(1, 0): (3, 0)}, {(0, 0): (2, 0)})
    # (1 + i) / 2: the norm 4 leaves a remainder
    with pytest.raises(InternalInconsistencyError):
        _zi_exact_quotient({(0, 0): (1, 1)}, {(0, 0): (2, 0)})
    # y / x: the leading monomial is not divisible
    with pytest.raises(InternalInconsistencyError):
        _zi_exact_quotient({(0, 1): (1, 0)}, {(1, 0): (1, 0)})
    # (x^2 + 2) / (x + i) leaves the remainder 1
    with pytest.raises(InternalInconsistencyError):
        _zi_exact_quotient({(2, 0): (1, 0), (0, 0): (2, 0)}, x_plus_i)


def _linear_factors(variables, roots):
    f = MultiPoly.constant(variables, 1)
    for r in roots:
        f = f * MultiPoly(variables, {(1, 0): ONE, (0, 0): -r})
    return f


def test_univar_gcd():
    # the merge of two branch factors against sympy's gcd over Q(i): pairs
    # with a planted common factor whose lead coefficient is not real, and
    # coprime pairs, which must give None
    sympy = pytest.importorskip("sympy")

    def in_sympy(f):  # f in x alone, over ("x", "y")
        x = sympy.Symbol("x")
        terms = [(sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)) * x ** e[0] for e, c in f.terms.items()]
        return sympy.Poly(sum(terms), x, domain="QQ_I")

    rng = random.Random(2029)
    variables = ("x", "y")
    roots = [_random_coeff(rng) for _ in range(6)]
    planted = coprime = 0
    for trial in range(40):
        picks = rng.sample(roots, 5)
        lead = GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), rng.choice((-3, -1, 2, 5)))
        if trial % 2:
            common = _linear_factors(variables, picks[:rng.randint(1, 2)]).scale(lead)
            a = common * _linear_factors(variables, picks[2:3]).scale(_random_coeff(rng) or ONE)
            b = common * _linear_factors(variables, picks[3:5]).scale(lead)
        else:
            a = _linear_factors(variables, picks[:2]).scale(lead)
            b = _linear_factors(variables, picks[2:rng.randint(3, 5)]).scale(_random_coeff(rng) or ONE)
        ours = _monic_gcd(a, b, "x")
        theirs = sympy.gcd(in_sympy(a), in_sympy(b)).monic()
        if theirs.degree() == 0:
            assert ours is None
            coprime += 1
        else:
            assert ours.variables == variables and ours.variables_used() == ("x",)
            assert in_sympy(ours) == theirs
            planted += 1
    assert planted == 20 and coprime == 20
    x = ("x",)
    assert _monic_gcd(parse_poly("x^2 - 1", x), parse_poly("2*x - 2", x), "x") == parse_poly("x - 1", x)


# ---------------------------------------------------------------- ring axioms


def test_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(25):
        f = _random_poly(rng)
        g = _random_poly(rng)
        h = _random_poly(rng)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


# ---------------------------------------------------------------- helpers


def _random_coeff(rng):
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    )


def _random_poly(rng, variables=Z, max_terms=8, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[exps] = _random_coeff(rng)
    return MultiPoly(variables, terms)


def _random_univar(rng, variables):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[(rng.randint(0, 4),)] = _random_coeff(rng)
    return MultiPoly(variables, terms)


def _random_triangular_assignment(rng):
    # var_i -> var_i + poly(strictly later variables); always invertible
    assignment = {}
    for idx, var in enumerate(Z):
        later = Z[idx + 1:]
        image = MultiPoly.variable(Z, var)
        for _ in range(rng.randint(0, 2)):
            exps = [0] * len(Z)
            for j in range(idx + 1, len(Z)):
                exps[j] = rng.randint(0, 2)
            image = image + MultiPoly(Z, {tuple(exps): _random_coeff(rng)})
        assignment[var] = image
        del later
    return assignment

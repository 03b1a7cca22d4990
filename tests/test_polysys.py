import re
import time

import numpy as np
import pytest

from polydeflate.polysys import (
    ParseError,
    Polynomial,
    PolyMatrix,
    PolySystem,
    check_point,
    format_system,
    parse_system,
)

from reference import compose_linear, derivative_matrix, evaluate, variable, zero


def test_parse_cubic_trio_shape(cubic_trio):
    assert cubic_trio.neqs == 3
    assert cubic_trio.nvars == 2
    assert cubic_trio.var_names == ("x1", "x2")
    f1 = cubic_trio.equations[0]
    assert f1.terms == {(3, 0): 1.0, (1, 2): 1.0}


def test_parse_single_identity():
    system = parse_system("1\nx\nx;")
    assert system.neqs == 1
    assert system.equations[0].terms == {(1,): 1.0}


def test_parse_complex_coefficient():
    system = parse_system("1\nx\n(1.5-0.5i)*x^2 - 1;")
    p = system.equations[0]
    assert p.terms[(2,)] == pytest.approx(1.5 - 0.5j)
    assert p.terms[(0,)] == pytest.approx(-1.0)


def test_parse_imaginary_j_and_bare_unit():
    p = parse_system("1\nx\n2j*x + i;").equations[0]
    assert p.terms[(1,)] == pytest.approx(2j)
    assert p.terms[(0,)] == pytest.approx(1j)


def test_parse_comments_and_blank_lines():
    text = "# heading\n\n2  # count\nx y\nx^2; # first\n\ny - 1;\n"
    system = parse_system(text)
    assert system.neqs == 2
    assert system.equations[1].terms == {(0, 1): 1.0, (0, 0): -1.0}


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_system("1\nx\nx^2 + ;")
    assert err.value.line == 3
    assert err.value.column == 7
    assert "line 3" in str(err.value)


def test_parse_error_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_system("1\nx\nx + y;")
    assert err.value.line == 3


def test_parse_error_empty_and_malformed_header():
    with pytest.raises(ParseError):
        parse_system("")
    with pytest.raises(ParseError):
        parse_system("0\nx\n")
    with pytest.raises(ParseError):
        parse_system("banana\nx\nx;")
    with pytest.raises(ParseError):
        parse_system("1\nx x\nx;")


def test_parse_error_missing_polynomials():
    with pytest.raises(ParseError):
        parse_system("2\nx\nx;")
    with pytest.raises(ParseError):
        parse_system("1\nx\nx; x^2;")


@pytest.mark.parametrize("text, line, column, message", [
    ("1\n", 1, 1, "missing variable declaration line"),
    ("# heading\n1  # count\n", 2, 1, "missing variable declaration line"),
    ("1\nx 2y\nx;", 2, 3, "invalid variable name '2y'"),
    ("1\n# names\n  x y$\nx;", 3, 5, "invalid variable name 'y$'"),
])
def test_header_errors_carry_their_location(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


X = Polynomial(1, {(1,): 1.0})
XY = Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0})


# the parser checks names before it builds a system, so these rules are
# reached by direct construction only
@pytest.mark.parametrize("build, message", [
    (lambda: PolySystem([], ["x"]), "empty system"),
    (lambda: PolySystem([X], []), "a system needs at least one variable"),
    (lambda: PolySystem([XY], ["x", "x"]), "duplicate variable names"),
    (lambda: PolySystem([X], ["2x"]), "invalid variable name '2x'"),
    (lambda: PolySystem([X], ["x", "y"]), "equation variable count does not match names"),
    (lambda: PolyMatrix([]), "a polynomial matrix needs at least one entry"),
    (lambda: PolyMatrix([[]]), "a polynomial matrix needs at least one entry"),
    (lambda: PolyMatrix([[X, X], [X]]), "ragged polynomial matrix"),
    (lambda: PolyMatrix([[X, XY]]), "matrix entries must share the variable space"),
    (lambda: PolyMatrix([[X, X]]).right_multiply(np.eye(3)), "inner dimensions do not match"),
    (lambda: X ** -1, "polynomial powers must be nonnegative integers"),
    (lambda: XY.format(["x"]), "need one name per variable"),
    (lambda: X + XY, "mixing polynomials in 1 and 2 variables"),
], ids=["system-empty", "system-no-variables", "system-duplicate-names",
        "system-invalid-name", "system-count-mismatch", "matrix-empty", "matrix-empty-row",
        "matrix-ragged", "matrix-mixed-spaces", "matrix-inner-dimension",
        "power-negative", "format-name-count", "sum-mixed-spaces"])
def test_constructions_that_break_a_rule_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_evaluate_cubic_trio_origin_and_ones(cubic_trio):
    at_origin = cubic_trio.value_at([0.0, 0.0])
    assert np.allclose(at_origin, [0, 0, 0])
    at_ones = cubic_trio.value_at([1.0, 1.0])
    # hand sum: each equation has two unit coefficient terms at (1, 1)
    assert np.allclose(at_ones, [2.0, 2.0, 2.0])


def test_evaluate_square_at_three(square):
    assert square.value_at([3.0 + 0j])[0] == pytest.approx(9.0)


def test_evaluate_dimension_mismatch(square):
    with pytest.raises(ValueError):
        square.value_at([1.0, 2.0])


def test_differentiate_examples(cubic_trio):
    f1 = cubic_trio.equations[0]
    d1 = f1.differentiate(0)
    assert d1.terms == {(2, 0): 3.0, (0, 2): 1.0}
    constant = Polynomial.constant(2, 7.5)
    assert not constant.differentiate(0).terms
    mixed = Polynomial(2, {(1, 2): 1.0})
    assert mixed.differentiate(1).terms == {(1, 1): 2.0}


def test_differentiate_index_out_of_range():
    p = variable(2, 0)
    with pytest.raises(IndexError):
        p.differentiate(2)


def test_jacobian_shapes_and_values(cubic_trio, axis_quartic):
    jac = derivative_matrix(cubic_trio, (), {})
    assert (jac.rows, jac.cols) == (3, 2)
    assert np.allclose(jac.evaluate([0.0, 0.0]), np.zeros((3, 2)))
    # evaluated partials at (1, 1), checked by hand
    assert np.allclose(
        jac.evaluate([1.0, 1.0]),
        [[4.0, 2.0], [1.0, 5.0], [3.0, 3.0]],
    )
    jac2 = derivative_matrix(axis_quartic, (), {})
    assert np.allclose(jac2.evaluate([0.0, 1.0]), [[1, 0], [0, 4]])


def test_jacobian_of_regular_quadratic():
    system = parse_system("1\nx\nx^2 - 1;")
    assert np.allclose(derivative_matrix(system, (), {}).evaluate([1.0]), [[2.0]])


def test_eval_poly_matrix_zero():
    z = zero(2)
    m = PolyMatrix([[z, z], [z, z]])
    assert np.allclose(m.evaluate([3.0, 4.0]), np.zeros((2, 2)))


def test_linear_jacobian_lists_hold_constants_only():
    system = parse_system("2\nx y\nx + 2*y;\n3*x - y;\n")
    jac = system.jacobian_at([0.5, 0.5])
    # one term without factors per entry: every point reads the coefficients
    assert [list(terms.items()) for terms in system._lists[1][0]] == [
        [((), 1 + 0j)], [((), 2 + 0j)], [((), 3 + 0j)], [((), -1 + 0j)]]
    jac[0, 0] = -7   # each evaluation returns an array of its own
    for later in (system.jacobian_at([2.0, -1.0]), system.value_and_jacobian([0.0, 1.0])[1]):
        assert later.tolist() == [[1, 2], [3, -1]]


@pytest.mark.parametrize("point,message", [
    (np.zeros((2, 1)), r"point has shape \(2, 1\), expected \(2,\)"),
    (np.zeros((1, 2)), r"point has shape \(1, 2\), expected \(2,\)"),
    (np.zeros((2, 0)), r"point has shape \(2, 0\), expected \(2,\)"),
    (np.zeros(3), "point has 3 coordinates, expected 2"),
    (0.5, "point has 0 coordinates, expected 2"),
])
def test_check_point_names_a_shape_that_is_not_a_vector(point, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_point(point, 2)


def test_constant_matrix_checks_the_point():
    system = parse_system("2\nx y\nx + 2*y;\n3*x - y;\n")
    with pytest.raises(ValueError, match="point has 4 coordinates, expected 2"):
        derivative_matrix(system, (), {}).evaluate([0.5] * 4)


def test_roundtrip_identity_on_fixtures(square, axis_quartic, cubic_trio, cross_cubes):
    for system in (square, axis_quartic, cubic_trio, cross_cubes):
        assert parse_system(format_system(system)) == system


def test_roundtrip_complex_and_negative():
    text = "2\nu v\n(0.5+0.25i)*u^3*v - 2.5;\n-u + (0-1i)*v^2;\n"
    system = parse_system(text)
    assert parse_system(format_system(system)) == system


def test_roundtrip_zero_polynomial():
    system = PolySystem([zero(1)], ["x"])
    assert parse_system(format_system(system)) == system


def test_finite_difference_matches_symbolic(cubic_trio, cross_cubes):
    rng = np.random.default_rng(7042)
    step = 1e-6
    for system in (cubic_trio, cross_cubes):
        n = system.nvars
        jac = derivative_matrix(system, (), {})
        for _ in range(20):
            point = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            exact = jac.evaluate(point)
            for j in range(n):
                offset = np.zeros(n, dtype=complex)
                offset[j] = step
                numeric = (system.value_at(point + offset)
                           - system.value_at(point - offset)) / (2 * step)
                for i in range(system.neqs):
                    err = abs(numeric[i] - exact[i, j])
                    assert err <= 1e-5 * (1 + abs(exact[i, j]))


def test_evaluation_is_linear_in_the_system():
    rng = np.random.default_rng(11)
    n = 3
    names = ["x1", "x2", "x3"]
    for _ in range(10):
        def random_poly():
            terms = {}
            for _ in range(4):
                exps = tuple(int(e) for e in rng.integers(0, 3, n))
                terms[exps] = complex(rng.normal(), rng.normal())
            return Polynomial(n, terms)

        f = [random_poly() for _ in range(2)]
        g = [random_poly() for _ in range(2)]
        fs = PolySystem(f, names)
        gs = PolySystem(g, names)
        total = PolySystem([a + b for a, b in zip(f, g)], names)
        point = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = total.value_at(point)
        rhs = fs.value_at(point) + gs.value_at(point)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_canonical_term_order_is_graded_lex():
    p = Polynomial(2, {(3, 0): 1.0, (1, 2): 2.0, (0, 0): 3.0, (0, 1): 4.0})
    ordered = list(p.terms)
    assert ordered == [(0, 0), (0, 1), (1, 2), (3, 0)]


def test_polynomial_power_and_shift():
    x = variable(1, 0)
    p = (x + 1) ** 2
    assert p.terms == {(2,): 1.0, (1,): 2.0, (0,): 1.0}
    shifted = p.shift([-1.0])
    assert shifted.terms == {(2,): 1.0}
    # shift is evaluation compatible: q(u) = p(u + c)
    q = (x ** 3 - 2 * x).shift([0.5])
    for u in (0.3, -1.2, 2.0):
        assert evaluate(q, [u], {}) == pytest.approx((u + 0.5) ** 3 - 2 * (u + 0.5))


def test_compose_linear_preserves_evaluation():
    rng = np.random.default_rng(5)
    p = Polynomial(2, {(2, 1): 1.5, (0, 3): -2.0, (1, 0): 1j})
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q = compose_linear(p, mat)
    for _ in range(5):
        y = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert evaluate(q, y, {}) == pytest.approx(evaluate(p, mat @ y, {}))


@pytest.mark.parametrize("body, column, message", [
    ("1e400*x^2;", 1, "number 1e400 is out of range"),
    ("x + (2-1e400i);", 8, "number 1e400 is out of range"),
    ("(1e200*x)^2;", 1, "polynomial has a coefficient out of range"),
    ("1e308*x + 1e308*x;", 1, "polynomial has a coefficient out of range"),
    ("(1.5e308+1.5e308i)*x;", 1, "polynomial has a coefficient out of range"),
])
def test_values_beyond_the_float_range_are_parse_errors(body, column, message):
    with pytest.raises(ParseError) as err:
        parse_system(f"2\nx\nx;\n{body}\n")
    assert (err.value.line, err.value.column) == (4, column)
    assert str(err.value) == f"line 4, column {column}: {message}"


def test_a_power_stops_at_its_first_square_out_of_range():
    # (x+1)^2048 overflows; squaring on to (x+1)^16384 took over 40 s
    begin = time.perf_counter()
    with pytest.raises(ParseError, match="^line 4, column 1: polynomial has a coefficient "
                                         "out of range$"):
        parse_system("2\nx\nx;\n(x+1)^20000;\n")
    assert time.perf_counter() - begin < 5.0


def test_syntax_errors_are_reported_before_values_out_of_range():
    with pytest.raises(ParseError, match="line 4, column 3: unexpected token ';'"):
        parse_system("2\nx\n1e400*x;\nx+;\n")


def test_tiny_literals_underflow_and_drop():
    p = parse_system("1\nx\n1e-310*x + 1e-400 + 1e-300*x^2 + 1e-200*1e-200;").equations[0]
    assert p.terms == {(2,): 1e-300 + 0j}

"""Acceptance suite: one test per top-level criterion, each with its stated
tolerance and runtime budget.  A summary line per criterion is printed at the
end of the pytest run (see conftest.pytest_terminal_summary)."""

from fractions import Fraction
import random

import mpmath as mp

from conftest import (
    QUADRATIC_COEFFS,
    RICCATI_COEFFS,
    RICCATI_DERIVS,
    assert_series_consistency,
    criterion,
    quadratic_flow,
    random_polynomial_ivp,
    riccati_flow,
)
from taylorcert import oracle
from taylorcert.cauchy import radius_for_problem
from taylorcert.certify import (
    ProblemSpec,
    centralize,
    certify_partial_sum,
    certify_polynomial,
    poly_eval,
)
from taylorcert.comparison import extract_comparison, solution_range
from taylorcert.odexpr import FlowExpr, derivative_values, taylor_coefficients
from taylorcert.ratcore import DecimalRounding, RatInterval, as_rational, pow_endpoints

F = Fraction


def _mpf(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


def riccati_spec(**overrides) -> ProblemSpec:
    params = dict(
        f=riccati_flow(), x0=F(0), y0=F(-1), degree=9, x1=F(1, 5),
        r1=F(1, 2), r2=F(1),
    )
    params.update(overrides)
    return ProblemSpec(**params)


def test_criterion_1_coefficient_exactness():
    with criterion("1 coefficient exactness (degree 10, zero tolerance)", 1.0):
        f = riccati_flow()
        assert taylor_coefficients(f, 0, -1, 10) == RICCATI_COEFFS
        assert derivative_values(f, 0, -1, 10) == RICCATI_DERIVS
        # first derivative values spot-checked against their defining formulas
        assert RICCATI_DERIVS[0] == F(1, 4)
        assert RICCATI_DERIVS[1] == F(-1, 8)
        assert RICCATI_DERIVS[2] == F(67, 32)
        # the whole list is internally consistent: c_k * k! = y^(k)(0)
        fact = 1
        for k in range(1, 11):
            fact *= k
            assert RICCATI_COEFFS[k] * fact == RICCATI_DERIVS[k - 1]
        # and independently consistent with the defining equation
        assert_series_consistency(f, F(0), F(-1), 10)


def test_criterion_2_convergence_radius():
    with criterion("2 convergence radius (width <= 1e-9, floor 0.27)", 1.0):
        rc = radius_for_problem(riccati_flow(), 0, -1, F(1, 2), 1)
        assert rc.M == F(5, 4)
        assert rc.r_enclosure.width <= F(1, 10**9)
        # 0.5*(1 - exp(-4/5)) = 0.27533551794138920428...
        assert F("0.27533551794138920428") in rc.r_enclosure
        assert rc.r_floor == F(27, 100)


def test_criterion_3_solution_range():
    with criterion("3 solution range ([-1, -0.94], U in [-0.9448, -0.9447])", 1.0):
        qc = extract_comparison(riccati_flow(), 0, F(1, 5), -1)
        sr = solution_range(qc, F(1, 10**12), DecimalRounding.outward(2), riccati_flow())
        assert sr.valid
        upper = sr.tight_upper.hi
        assert F("-0.9448") <= upper <= F("-0.9447")
        # oracle value stays below the certified upper bound
        ref = oracle.reference_solution(riccati_flow(), 0, -1, F(1, 5), F(1, 10**14))
        assert ref.value <= _mpf(upper)
        assert sr.range == RatInterval(F(-1), F(-47, 50))


def test_criterion_4_remainder_certificate():
    with criterion("4 remainder certificate (bound <= 1e-10, grid <= 2e-11)", 5.0):
        cert = certify_partial_sum(riccati_spec())
        assert cert.remainder_bound <= F(1, 10**10)
        xs = [F(1, 5) * k / 50 for k in range(1, 51)]
        values = oracle.reference_grid(riccati_flow(), 0, -1, xs, F(1, 10**18))
        with mp.workdps(45):
            worst = mp.mpf(0)
            for x, value in zip(xs, values):
                approx = poly_eval(cert.coefficients, x)
                worst = max(worst, abs(value - _mpf(approx)))
            assert worst <= mp.mpf(2) / 10**11
            assert worst <= _mpf(cert.remainder_bound)


def test_criterion_5_two_decimal_bound_table():
    with criterion("5 two-decimal bound table (orders 1-8 exact, 9-10 wider)", 5.0):
        cert = certify_partial_sum(
            riccati_spec(rounding=DecimalRounding.outward(2))
        )
        table = [
            ("0.22", "0.29"),
            ("-0.15", "0.3"),
            ("1.87", "2.12"),
            ("-1.13", "-0.74"),
            ("1.17", "1.93"),
            ("-3.38", "2.23"),
            ("14.59", "27.12"),
            ("-61.96", "-22.73"),
        ]
        for bound, (lo, hi) in zip(cert.derivative_bounds, table):
            assert bound == RatInterval(as_rational(lo), as_rational(hi))
        # orders 9 and 10: rigorous corner evaluation is wider than selective
        # per-term tabulations; the rounding note flags the widening
        assert cert.derivative_bounds[8].lo < as_rational("92.03")
        assert cert.derivative_bounds[8].hi > as_rational("146.76")
        assert cert.derivative_bounds[9].lo < as_rational("-665.9")
        assert cert.parity_notes


def test_criterion_6_error_centralization():
    with criterion("6 error centralization (-1283/24192000 exactly)", 1.0):
        coeff, halfwidth_scale = centralize(
            RatInterval(as_rational("-665.9"), as_rational("281")), 9
        )
        assert coeff == F(-1283, 24192000)
        halfwidth = halfwidth_scale * F(1, 5) ** 10
        assert abs(halfwidth - F("1.34e-11")) <= F(1, 10**13)


def test_criterion_7_quintic_example():
    with criterion("7 quintic example (grid <= 2e-5, certified bounds)", 5.0):
        p = ProblemSpec(
            f=quadratic_flow(), x0=F(0), y0=F(1), degree=5, x1=F(2, 5)
        )
        cert = certify_partial_sum(p)
        assert list(cert.coefficients) == QUADRATIC_COEFFS
        ybar = [F(1), F(1, 4), F(3, 16), F(7, 192), F(1, 96), F(1, 200)]
        bound_ybar = certify_polynomial(p, ybar, certificate=cert)

        xs = [F(2, 5) * k / 100 for k in range(1, 101)]
        values = oracle.reference_grid(quadratic_flow(), 0, 1, xs, F(1, 10**16))
        with mp.workdps(45):
            worst_ybar = mp.mpf(0)
            worst_partial = mp.mpf(0)
            for x, value in zip(xs, values):
                worst_ybar = max(worst_ybar, abs(value - _mpf(poly_eval(ybar, x))))
                worst_partial = max(
                    worst_partial, abs(value - _mpf(poly_eval(cert.coefficients, x)))
                )
            assert worst_ybar <= mp.mpf(2) / 10**5
            assert worst_ybar <= _mpf(bound_ybar)
            assert worst_partial <= _mpf(cert.remainder_bound)


def test_criterion_8_oracle_consistency():
    with criterion("8 oracle consistency (closed form vs integrator, 1e-10)", 5.0):
        with mp.workdps(oracle.ORACLE_DPS):
            for x in (F(1, 20), F(1, 10), F(3, 20), F(1, 5)):
                integ = oracle.reference_solution(
                    riccati_flow(), 0, -1, x, F(1, 10**14)
                )
                closed = oracle.riccati_exact(x)
                assert abs(integ.value - closed.value) < mp.mpf("1e-10")
            target = mp.mpf("-0.9497771")
            for ref in (
                oracle.reference_solution(riccati_flow(), 0, -1, F(1, 5)),
                oracle.riccati_exact(F(1, 5)),
            ):
                assert abs(ref.value - target) < mp.mpf("5e-8")


def test_criterion_9_property_suites():
    with criterion("9 property suites (containment, Leibniz, consistency)", 30.0):
        rng = random.Random(20260810)

        def rand_fraction(span=6, den=24):
            return F(rng.randint(-span * den, span * den), rng.randint(1, den))

        # interval containment, 10^4 random samples across the operations
        for _ in range(10**4):
            a_lo = rand_fraction()
            a = RatInterval(a_lo, a_lo + abs(rand_fraction()))
            b_lo = rand_fraction()
            b = RatInterval(b_lo, b_lo + abs(rand_fraction()))
            tx = F(rng.randint(0, 64), 64)
            ty = F(rng.randint(0, 64), 64)
            x = a.lo + tx * (a.hi - a.lo)
            y = b.lo + ty * (b.hi - b.lo)
            assert x + y in a + b
            assert x - y in a - b
            assert x * y in a * b
            k = rng.randint(0, 4)
            if k:  # pow_endpoints takes exponents >= 1
                lo, hi = pow_endpoints(a.lo, a.hi, k)
                assert lo <= x**k <= hi
            c = rand_fraction()
            assert c * x in a.scale(c)

        # flow-derivative linearity and Leibniz on 10^3 random expressions
        def rand_expr():
            table = {}
            for _ in range(rng.randint(1, 3)):
                key = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
                table[key] = F(rng.randint(-3, 3), rng.randint(1, 4))
            return FlowExpr(table)

        for _ in range(500):
            e1, e2 = rand_expr(), rand_expr()
            a = rand_fraction(2, 6)
            c = FlowExpr.constant(a)
            assert (e1 * c + e2).flow_derivative() == (
                e1.flow_derivative() * c + e2.flow_derivative()
            )
            assert (e1 * e2).flow_derivative() == e1.flow_derivative() * e2 + e1 * e2.flow_derivative()

        # series consistency for 20 random polynomial problems
        count = 0
        while count < 20:
            f, x0, y0 = random_polynomial_ivp(rng)
            if f.is_zero():
                continue
            assert_series_consistency(f, x0, y0, rng.randint(2, 7))
            count += 1

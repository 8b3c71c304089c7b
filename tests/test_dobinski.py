"""Certified moment functionals, Poisson-type pmfs, and the generating-function route."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exp_partial, naive_bell, naive_gf_coefficient_verdict, naive_q_difference
from umbraldob import dobinski
from umbraldob.dobinski import (
    GeneratingFunctionCheck,
    PsiPoissonDistribution,
    default_ratio_threshold,
    dobinski_bell,
    dobinski_bells,
    falling_moments,
    generating_function_checks,
    jackson_derivative,
    moment_functional,
    poisson_moment_exact,
    psi_exp,
    rota_bell_exact,
    verify_falling_moment,
    verify_pmf_via_generating_function,
)
from umbraldob.errors import NonConvergentError
from umbraldob.exact_core import CertifiedValue, Poly
from umbraldob.identities import RUNNERS
from umbraldob.umbral_engine import PsiSequence, q_number_symbolic

CLASSICAL = PsiSequence.classical()
FIB = PsiSequence.fibonacci()
HALF = PsiSequence.gauss_q(Fraction(1, 2))
QUARTER = PsiSequence.gauss_q(Fraction(1, 4))
THREE_HALVES = PsiSequence.gauss_q(Fraction(3, 2))

BUILTIN_SEQS = [CLASSICAL, FIB, HALF, QUARTER, THREE_HALVES]


class TestDefaultThreshold:
    def test_values(self):
        assert default_ratio_threshold(CLASSICAL, 1) == Fraction(1, 2)
        assert default_ratio_threshold(FIB, 1) == Fraction(1, 2)
        assert default_ratio_threshold(THREE_HALVES, 1) == Fraction(1, 2)
        # ratios tend to lam*(1-q); the default sits halfway between that and 1
        assert default_ratio_threshold(HALF, 1) == Fraction(3, 4)
        assert default_ratio_threshold(QUARTER, 1) == Fraction(7, 8)
        assert default_ratio_threshold(HALF, Fraction(1, 2)) == Fraction(5, 8)

    @pytest.mark.parametrize("seq", BUILTIN_SEQS, ids=lambda seq: seq.label)
    def test_rejects_non_positive_lam(self, seq):
        with pytest.raises(ValueError):
            default_ratio_threshold(seq, 0)

    @pytest.mark.parametrize("seq, lam", [(HALF, 2), (QUARTER, Fraction(4, 3))], ids=["q=1/2", "q=1/4"])
    def test_rejects_lam_outside_the_radius(self, seq, lam):
        with pytest.raises(NonConvergentError):
            default_ratio_threshold(seq, lam)

    @pytest.mark.parametrize(
        "route, seq, lam",
        [
            (psi_exp, QUARTER, Fraction(1, 2)),
            (PsiPoissonDistribution.create, HALF, Fraction(3, 2)),
            (lambda seq, lam: moment_functional(seq, lam, Poly((0, -1, 1))), QUARTER, 1),
            (lambda seq, lam: verify_falling_moment(seq, 3), HALF, 1),
            (lambda seq, lam: dobinski_bell(seq, 3), QUARTER, 1),
            (lambda seq, lam: generating_function_checks(seq, lam, 2), HALF, 1),
            (lambda seq, lam: falling_moments(seq, range(4)), HALF, 1),
            (lambda seq, lam: dobinski_bells(seq, range(4)), QUARTER, 1),
        ],
        ids=[
            "psi_exp", "create", "moment_functional", "falling", "dobinski_bell", "pmf_gf_mean",
            "falling_moments", "dobinski_bells",
        ],
    )
    def test_every_series_route_uses_it(self, monkeypatch, route, seq, lam):
        # every case has a threshold above 1/2, so a route that falls back to 1/2 shows
        thresholds, real = [], dobinski.certified_sum

        def recording(term, ratio_threshold):
            thresholds.append(ratio_threshold)
            return real(term, ratio_threshold)

        monkeypatch.setattr(dobinski, "certified_sum", recording)
        route(seq, lam)
        assert thresholds and set(thresholds) == {default_ratio_threshold(seq, lam)}


class TestPsiExp:
    def test_classical_brackets_e(self):
        got = psi_exp(CLASSICAL, 1)
        assert got.contains(exp_partial())
        assert got.lo >= 2

    @pytest.mark.parametrize("seq", BUILTIN_SEQS)
    def test_contains_deep_partial_sum(self, seq):
        got = psi_exp(seq, 1)
        partial = sum(Fraction(1) / seq.factorial(k) for k in range(60))
        assert got.lo <= partial <= got.hi

    def test_gauss_one_matches_classical(self):
        assert psi_exp(PsiSequence.gauss_q(1), 1) == psi_exp(CLASSICAL, 1)

    def test_rejects_bad_lam(self):
        with pytest.raises(ValueError):
            psi_exp(CLASSICAL, 0)
        with pytest.raises(ValueError):
            psi_exp(CLASSICAL, -1)

    def test_divergent_domain_fails_fast(self):
        with pytest.raises(NonConvergentError):
            psi_exp(HALF, 2)
        with pytest.raises(NonConvergentError):
            psi_exp(QUARTER, Fraction(4, 3))
        with pytest.raises(NonConvergentError):
            psi_exp(HALF, 5)


class TestPsiPoisson:
    def test_pmf_bounds(self):
        dist = PsiPoissonDistribution.create(HALF, 1)
        lo, hi = dist.pmf(2)
        # unnormalized weight of k=2 is 1/[2]_q! = 2/3 at q=1/2
        assert lo == Fraction(2, 3) / dist.normalizer.hi
        assert hi == Fraction(2, 3) / dist.normalizer.lo
        assert 0 < lo <= hi < 1

    def test_pmf_ordering_and_positivity(self):
        dist = PsiPoissonDistribution.create(CLASSICAL, Fraction(3, 2))
        for k in range(12):
            lo, hi = dist.pmf(k)
            assert 0 < lo <= hi

    def test_pmf_rejects_negative_k(self):
        dist = PsiPoissonDistribution.create(CLASSICAL, 1)
        with pytest.raises(ValueError):
            dist.pmf(-1)

    @pytest.mark.parametrize("seq", BUILTIN_SEQS)
    def test_mass_interval_contains_one(self, seq):
        dist = PsiPoissonDistribution.create(seq, 1)
        bounds = [dist.pmf(k) for k in range(31)]
        mass_lo = sum(b[0] for b in bounds)
        mass_hi = sum(b[1] for b in bounds)
        assert mass_lo <= 1
        # the first 31 weights already cover the certified numerator core,
        # so the optimistic normalizer bound pushes the sum past 1
        assert mass_hi >= 1

    def test_create_respects_divergence(self):
        with pytest.raises(NonConvergentError):
            PsiPoissonDistribution.create(HALF, 2)


class TestMomentFunctional:
    def test_power_moments_bracket_bell(self):
        for n in range(7):
            got = moment_functional(CLASSICAL, 1, Poly.monomial(1, n))
            assert got.contains(naive_bell(n))

    def test_constant(self):
        got = moment_functional(FIB, 1, Poly((3,)))
        assert got.contains(3)

    def test_mixed_sign_polynomial(self):
        # x**2 - x has exact normalized moment B_2 - B_1 = 1 at lam = 1
        got = moment_functional(CLASSICAL, 1, Poly((0, -1, 1)))
        assert got.contains(1)

    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5)
    )
    @settings(max_examples=40, deadline=None)
    def test_contains_exact_value(self, coeffs):
        p = Poly(tuple(coeffs))
        exact = poisson_moment_exact(p)
        got = moment_functional(CLASSICAL, 1, p)
        assert got.contains(exact)

    def test_domain_check(self):
        with pytest.raises(NonConvergentError):
            moment_functional(HALF, 2, Poly((0, 1)))

    @pytest.mark.parametrize("seq", [CLASSICAL, HALF, THREE_HALVES, FIB], ids=lambda seq: seq.label)
    def test_power_moment_equals_dobinski_bell(self, seq):
        # the same series, summed by the sign split and by the row sweep: equal endpoints, not overlap
        for n in range(9):
            assert moment_functional(seq, 1, Poly.monomial(1, n)) == dobinski_bell(seq, n)

    @pytest.mark.parametrize(
        "seq, lam, coeffs, lo, hi",
        [
            (CLASSICAL, 1, (0, -1, 1), Fraction(1, 2), Fraction(23, 12)),
            (HALF, Fraction(1, 2), (1, -2, 0, 3), Fraction(121, 112), Fraction(6071, 1008)),
            (FIB, 2, (0, -1, 1), Fraction(872, 237), Fraction(1144, 205)),
        ],
        ids=["classical", "q=1/2", "fibonacci"],
    )
    def test_mixed_sign_endpoints(self, seq, lam, coeffs, lo, hi):
        # positive part minus negative part, then one division by exp_psi(lam); dividing each
        # part before the subtraction moves these exact endpoints
        assert moment_functional(seq, lam, Poly(coeffs)) == CertifiedValue(lo, hi)


class TestFallingMoment:
    @pytest.mark.parametrize("seq", BUILTIN_SEQS)
    @pytest.mark.parametrize("n", [0, 1, 3, 7, 10])
    def test_contains_one(self, seq, n):
        assert verify_falling_moment(seq, n).contains(1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            verify_falling_moment(CLASSICAL, -1)

    # Every built-in kind, and a table with no rule behind it, whose values repeat rarely.
    WEIGHT_SEQS = [
        CLASSICAL,
        FIB,
        *(PsiSequence.gauss_q(Fraction(q)) for q in ("1/4", "1/2", "11/16", "17/16", "3/2")),
        PsiSequence.custom([0] + [Fraction(7 * j % 11 + 1, j % 4 + 1) for j in range(1, 61)], "custom-60"),
    ]

    @pytest.mark.parametrize("seq", WEIGHT_SEQS, ids=lambda seq: seq.label)
    def test_row_entries_are_their_definitions(self, seq):
        # At lam = 1 a wrong entry can still give an interval that contains 1, so every entry
        # built from the row above is checked against its definition, zeros included.
        ns = range(31)
        for n, falling, power in zip(ns, dobinski._rows(seq, ns, False), dobinski._rows(seq, ns, True)):
            ks = range(n + 31)
            assert [falling(k) for k in ks] == [seq.falling(k, n) / seq.factorial(k) for k in ks]
            assert [power(k) for k in ks] == [seq.value(k) ** n / seq.factorial(k) for k in ks]

    @pytest.mark.parametrize("seq", [CLASSICAL, FIB, HALF, THREE_HALVES], ids=lambda seq: seq.label)
    def test_sweeps_with_gaps_equal_single_calls(self, seq):
        # a row is built from the row above only when that row was summed just before it
        falling, power = falling_moments(seq, range(10)), dobinski_bells(seq, range(10))
        assert falling_moments(seq, [7]) == [verify_falling_moment(seq, 7)] == [falling[7]]
        assert falling_moments(seq, [0, 2, 5]) == [verify_falling_moment(seq, n) for n in (0, 2, 5)]
        assert falling_moments(seq, [0, 2, 5]) == [falling[n] for n in (0, 2, 5)]
        assert dobinski_bells(seq, [3, 4, 9]) == [dobinski_bell(seq, n) for n in (3, 4, 9)]
        assert dobinski_bells(seq, [3, 4, 9]) == [power[n] for n in (3, 4, 9)]

    def test_sweep_makes_few_psi_lookups(self, monkeypatch):
        # 9,173 lookups when every term was built from scratch; about 1,250 row by row
        calls = []
        for name in ("value", "factorial", "falling"):
            real = getattr(PsiSequence, name)

            def counting(self, *args, real=real):
                calls.append(1)
                return real(self, *args)

            monkeypatch.setattr(PsiSequence, name, counting)
        seq = PsiSequence.gauss_q(Fraction(11, 16))
        assert all(v.contains(1) for v in falling_moments(seq, range(81)))
        assert 0 < len(calls) <= 1500

    @pytest.mark.parametrize("seq", [CLASSICAL, FIB, HALF, THREE_HALVES], ids=lambda seq: seq.label)
    def test_runner_equals_single_calls(self, seq):
        intervals = [case.interval for case in RUNNERS["falling-moment"](seq, 30)]
        assert intervals == [verify_falling_moment(seq, n) for n in range(31)]

    @pytest.mark.parametrize("identity", ["falling-moment", "dobinski"])
    def test_runner_sums_the_normalizer_once(self, monkeypatch, identity):
        calls, real = [], dobinski.psi_exp

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(dobinski, "psi_exp", counting)
        counts = []
        for n_max in (3, 20):
            calls.clear()
            assert all(case.ok for case in RUNNERS[identity](HALF, n_max))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestDobinskiBell:
    def test_classical_values(self):
        assert dobinski_bell(CLASSICAL, 0).contains(1)
        assert dobinski_bell(CLASSICAL, 4).contains(15)
        assert dobinski_bell(CLASSICAL, 5).contains(52)

    def test_gauss_half_cubes(self):
        # Carlitz q-Bell 1 + 2q + q**2 + q**3 at q = 1/2
        assert dobinski_bell(HALF, 3).contains(Fraction(19, 8))

    def test_matches_rota_route(self):
        for n in range(9):
            assert dobinski_bell(CLASSICAL, n).contains(rota_bell_exact(n))

    def test_gauss_one_brackets_plain_bell(self):
        one = PsiSequence.gauss_q(1)
        for n in range(7):
            assert dobinski_bell(one, n).contains(rota_bell_exact(n))

    @pytest.mark.parametrize("seq", [CLASSICAL, HALF, THREE_HALVES], ids=lambda seq: seq.label)
    def test_runner_equals_single_calls(self, seq):
        intervals = [case.interval for case in RUNNERS["dobinski"](seq, 30)]
        assert intervals == [dobinski_bell(seq, n) for n in range(31)]


class TestRotaRoute:
    def test_frozen_values(self):
        assert [rota_bell_exact(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_poisson_moment_exact_scalar(self):
        assert poisson_moment_exact(Poly((0, 0, 0, 1))) == 5
        assert poisson_moment_exact(Poly(())) == 0
        assert poisson_moment_exact(Poly((0, -1, 1))) == 1

    def test_pure_powers_give_the_tower(self):
        for n in range(16):
            assert poisson_moment_exact(Poly.monomial(1, n)) == rota_bell_exact(n)

    def test_poisson_moment_exact_nested(self):
        # coefficient q at degree 2, scalar 1 at degree 0
        p = Poly((1, 0, Poly((0, 1))))
        assert poisson_moment_exact(p) == Poly((1, 2))


class TestJacksonDerivative:
    def test_jackson_examples(self):
        assert jackson_derivative((3, 1, 1), Fraction(1, 2)) == (1, Fraction(3, 2))
        assert jackson_derivative((0, 0, 1), 1) == (0, 2)
        assert jackson_derivative((7,), 1) == ()

    @given(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=1, max_size=16),
        st.fractions(min_value=0, max_value=3, max_denominator=64).filter(lambda q: 0 < q < 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_bracket_at_every_degree(self, coeffs, q):
        got = jackson_derivative(tuple(coeffs), q)
        assert got == tuple(coeffs[n] * q_number_symbolic(n).evaluate(q) for n in range(1, len(coeffs)))
        assert list(got) == naive_q_difference(coeffs, q, 1)

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=21))
    @settings(max_examples=50)
    def test_q_one_is_ordinary_derivative(self, coeffs):
        got = jackson_derivative(tuple(coeffs), 1)
        want = Poly([k * c for k, c in enumerate(coeffs)][1:])
        assert list(got)[: want.degree + 1] == list(want.coeffs)
        assert all(c == 0 for c in got[want.degree + 1 :])


class TestGeneratingFunction:
    def test_classical(self):
        check = verify_pmf_via_generating_function(CLASSICAL, 1, 3, 10)
        assert check == GeneratingFunctionCheck(True, True)

    def test_gauss_half_at_one(self):
        check = verify_pmf_via_generating_function(HALF, 1, 3, 10)
        assert check.coefficient_ok and check.mean_ok

    def test_gauss_half_on_divergence_boundary(self):
        # lam*(1-q) = 1: the normalizer has no certified interval, but the
        # coefficient identity is normalizer-free and still decidable
        check = verify_pmf_via_generating_function(HALF, 2, 3, 10)
        assert check.coefficient_ok
        assert check.mean_ok is None

    def test_mean_skipped_away_from_one(self):
        check = verify_pmf_via_generating_function(CLASSICAL, 2, 2, 8)
        assert check.mean_ok is None

    def test_rejects_unsupported_inputs(self):
        with pytest.raises(ValueError):
            verify_pmf_via_generating_function(FIB, 1, 2, 8)
        with pytest.raises(ValueError):
            verify_pmf_via_generating_function(CLASSICAL, 1, 5, 3)
        with pytest.raises(ValueError):
            verify_pmf_via_generating_function(CLASSICAL, 0, 2, 8)
        with pytest.raises(ValueError):
            verify_pmf_via_generating_function(CLASSICAL, 1, -1, 4)

    @pytest.mark.parametrize("n", range(5))
    def test_orders_zero_through_four(self, n):
        check = verify_pmf_via_generating_function(HALF, 1, n, n + 4)
        assert check.coefficient_ok and check.mean_ok

    @pytest.mark.parametrize("seq", [CLASSICAL, HALF, THREE_HALVES], ids=lambda seq: seq.label)
    @pytest.mark.parametrize("lam", [1, 2])
    def test_shared_chain_matches_definition(self, seq, lam):
        order = 16
        checks = generating_function_checks(seq, lam, 12)
        assert len(checks) == 13
        coeffs = [Fraction(lam) ** k / seq.factorial(k) for k in range(order + 1)]
        q = 1 if seq is CLASSICAL else seq.q
        for n, check in enumerate(checks):
            assert check.coefficient_ok == naive_gf_coefficient_verdict(coeffs, q, n)
            # at lam = 1 the normalized mean is exactly 1; elsewhere it is skipped
            assert check.mean_ok is (True if lam == 1 else None)
            assert check == verify_pmf_via_generating_function(seq, lam, n, order)

    def test_runner_sums_the_mean_once(self, monkeypatch):
        calls, real = [], dobinski.certified_sum

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(dobinski, "certified_sum", counting)
        counts = []
        for n_max in (3, 12):
            calls.clear()
            assert all(case.ok for case in RUNNERS["pmf-gf"](HALF, n_max))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_runner_catches_a_chain_one_step_short(self, monkeypatch):
        # the mutant returns its input on the first step of each chain, so check n
        # reads the chain after n - 1 steps; at lam = 1 every such check still passes
        stepped, real = [], dobinski.jackson_derivative

        def skip_first_step(s, q):
            if any(s is t for t in stepped):
                stepped.append(real(s, q))
                return stepped[-1]
            stepped.append(s)
            return s

        assert all(c.coefficient_ok and c.mean_ok for c in generating_function_checks(HALF, 1, 6))
        monkeypatch.setattr(dobinski, "jackson_derivative", skip_first_step)
        assert all(c.coefficient_ok and c.mean_ok for c in generating_function_checks(HALF, 1, 6))
        verdicts = [case.ok for case in RUNNERS["pmf-gf"](HALF, 6)]
        assert verdicts == [True] + [False] * 6

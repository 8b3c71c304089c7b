"""Certified moment functionals, Poisson-type pmfs, and the generating-function route."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exp_partial, naive_gf_coefficient_verdict, naive_q_difference
from umbraldob import dobinski
from umbraldob.dobinski import (
    GeneratingFunctionCheck,
    PsiPoissonDistribution,
    default_ratio_threshold,
    dobinski_bell,
    dobinski_bells,
    falling_moments,
    generating_function_checks,
    generating_function_mean_ok,
    jackson_derivative,
    psi_exp,
    rota_bell_exact,
    verify_falling_moment,
    verify_pmf_via_generating_function,
)
from umbraldob.errors import NonConvergentError
from umbraldob.exact_core import SUM_CAP, CertifiedValue, Poly, certified_sum
from umbraldob.identities import RUNNERS
from umbraldob.umbral_engine import PsiSequence, poisson_moment_exact, q_number_symbolic

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
            (lambda seq, lam: verify_falling_moment(seq, 3), HALF, 1),
            (lambda seq, lam: dobinski_bell(seq, 3), QUARTER, 1),
            (lambda seq, lam: generating_function_mean_ok(seq), HALF, 1),
            (lambda seq, lam: falling_moments(seq, range(4)), HALF, 1),
            (lambda seq, lam: dobinski_bells(seq, range(4)), QUARTER, 1),
        ],
        ids=[
            "psi_exp", "create", "falling", "dobinski_bell", "pmf_gf_mean",
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


class TestTailLemma:
    # The sequences of the lemma in default_ratio_threshold: every kind, Gauss at q below, at and above 1.
    SEQS = [
        CLASSICAL,
        FIB,
        *(PsiSequence.gauss_q(Fraction(q)) for q in ("1/16", "1/4", "1/2", "11/16", "15/16", "1", "17/16", "3/2", "3")),
    ]

    @pytest.mark.parametrize("seq", SEQS, ids=lambda seq: seq.label)
    def test_no_ratio_rises_past_the_truncation_index(self, monkeypatch, seq):
        # certified_sum's tail bound is a proof only if no term ratio past its truncation index K rises:
        # each series the package sums is read through a recording stand-in, its ratios up to K are
        # checked against the lemma's formula, and the formula is followed 200 terms past K
        reads, real = [], dobinski.certified_sum

        def recording(term, thr):
            values = []
            reads.append(values)

            def kept(k):
                values.append(term(k))
                return values[-1]

            return real(kept, thr)

        monkeypatch.setattr(dobinski, "certified_sum", recording)
        psi, ns, series = seq.value, range(31), []
        for lam in (Fraction(1, 3), Fraction(1), Fraction(2)):
            if seq.q is None or seq.q >= 1 or lam * (1 - seq.q) < 1:
                psi_exp(seq, lam)
                series.append((f"exp_psi({lam})", lambda k, lam=lam: lam / psi(k + 1), reads[-1]))
        falling_moments(seq, ns)
        series += [(f"falling row {n}", lambda k, n=n: 1 / psi(k - n + 1), v) for n, v in zip(ns, reads[-31:])]
        dobinski_bells(seq, ns)
        series += [
            (f"power row {n}", lambda k, n=n: (psi(k + 1) / psi(k)) ** n / psi(k + 1) if n else 1 / psi(k + 1), v)
            for n, v in zip(ns, reads[-31:])
        ]
        if seq != FIB:
            generating_function_mean_ok(seq)
            series.append(("pmf-gf mean", lambda k: 1 / psi(k), reads[-1]))
        for name, ratio, values in series:
            last = len(values) - 2  # the truncation index: certified_sum reads no term past it + 1
            assert all(values[k + 1] / values[k] == ratio(k) for k in range(last + 1) if values[k]), name
            ratios = [ratio(k) for k in range(last, last + 201)]
            assert all(b <= a for a, b in zip(ratios, ratios[1:])), name


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
    @pytest.mark.parametrize("seq", [CLASSICAL, HALF, THREE_HALVES, FIB], ids=lambda seq: seq.label)
    def test_power_moment_equals_dobinski_bell(self, seq):
        # the series summed term by term and by the row sweep: equal endpoints, not overlap
        thr, normalizer = default_ratio_threshold(seq, 1), psi_exp(seq, 1)
        for n in range(9):
            power = certified_sum(lambda k: seq.value(k) ** n / seq.factorial(k), thr)
            assert power.div_by_positive(normalizer) == dobinski_bell(seq, n)


class TestFallingMoment:
    @pytest.mark.parametrize("seq", BUILTIN_SEQS)
    @pytest.mark.parametrize("n", [0, 1, 3, 7, 10])
    def test_contains_one(self, seq, n):
        assert verify_falling_moment(seq, n).contains(1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            verify_falling_moment(CLASSICAL, -1)

    def test_row_past_the_cap_has_no_interval(self):
        # every term up to SUM_CAP vanishes, so no interval read up to the cap brackets the moment 1
        with pytest.raises(NonConvergentError, match=f"hard cap {SUM_CAP}"):
            verify_falling_moment(PsiSequence.classical(), SUM_CAP + 1)

    # Every kind, Gauss at q below and above 1.
    WEIGHT_SEQS = [
        CLASSICAL,
        FIB,
        *(PsiSequence.gauss_q(Fraction(q)) for q in ("1/4", "1/2", "11/16", "17/16", "3/2")),
    ]

    @pytest.mark.parametrize("seq", WEIGHT_SEQS, ids=lambda seq: seq.label)
    def test_row_entries_are_their_definitions(self, monkeypatch, seq):
        # At lam = 1 a wrong entry can still give an interval that contains 1, so every entry
        # built from the row above is checked against its definition, zeros included.
        unit, rows = CertifiedValue(Fraction(1), Fraction(1)), []

        def reading(term, thr):
            # row n is read at k = 0..n+30 in order, then again: a second read must append nothing
            ks = range(len(rows) + 31)
            rows.append([term(k) for k in ks])
            assert [term(k) for k in ks] == rows[-1]
            return unit

        monkeypatch.setattr(dobinski, "certified_sum", reading)
        # psi_exp would sum exp_psi(1) through the stand-in certified_sum, so the normalizer is a unit stand-in too
        monkeypatch.setattr(dobinski, "psi_exp", lambda seq, lam: unit)
        for sweep, w in ((falling_moments, seq.falling), (dobinski_bells, lambda k, n: seq.value(k) ** n)):
            rows.clear()
            sweep(seq, range(31))
            assert rows == [[w(k, n) / seq.factorial(k) for k in range(n + 31)] for n in range(31)]

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
        assert poisson_moment_exact((0, 0, 0, 1)) == 5
        assert poisson_moment_exact(()) == 0
        assert poisson_moment_exact((0, -1, 1)) == 1

    def test_pure_powers_give_the_tower(self):
        for n in range(16):
            assert poisson_moment_exact((0,) * n + (1,)) == rota_bell_exact(n)

    def test_poisson_moment_exact_q_polynomial_coefficients(self):
        # 1 + q*x**2 gives 1 + q*B(2)
        assert poisson_moment_exact((Poly((1,)), Poly(()), Poly((0, 1)))) == Poly((1, 2))


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
        with pytest.raises(ValueError, match="classical or gauss-q"):
            generating_function_mean_ok(FIB)  # the mean on its own, as the runner calls it

    @pytest.mark.parametrize("n", range(5))
    def test_orders_zero_through_four(self, n):
        check = verify_pmf_via_generating_function(HALF, 1, n, n + 4)
        assert check.coefficient_ok and check.mean_ok

    @pytest.mark.parametrize("seq", [CLASSICAL, HALF, THREE_HALVES], ids=lambda seq: seq.label)
    @pytest.mark.parametrize("lam", [1, 2])
    def test_shared_chain_matches_definition(self, seq, lam):
        order = 16
        checks = generating_function_checks(seq, lam, 12)
        assert len(checks) == 13 and all(type(check) is bool for check in checks)
        coeffs = [Fraction(lam) ** k / seq.factorial(k) for k in range(order + 1)]
        q = 1 if seq is CLASSICAL else seq.q
        # at lam = 1 the normalized mean is exactly 1; elsewhere it is skipped
        mean_ok = generating_function_mean_ok(seq) if lam == 1 else None
        assert mean_ok is (True if lam == 1 else None)
        for n, check in enumerate(checks):
            assert check == naive_gf_coefficient_verdict(coeffs, q, n, lam)
            assert verify_pmf_via_generating_function(seq, lam, n, order) == GeneratingFunctionCheck(check, mean_ok)

    def test_runner_calls_the_chain_and_the_mean_once(self, monkeypatch):
        # the chain is checked at lam = 2 for every n at once, the mean at lam = 1 for all n
        calls = []
        for name in ("generating_function_checks", "generating_function_mean_ok"):
            real = getattr(dobinski, name)
            spy = lambda *args, real=real, name=name: calls.append((name, args)) or real(*args)
            monkeypatch.setattr(dobinski, name, spy)
        assert [case.ok for case in RUNNERS["pmf-gf"](HALF, 5)] == [True] * 6
        assert calls == [("generating_function_mean_ok", (HALF,)), ("generating_function_checks", (HALF, 2, 5))]

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

        assert all(generating_function_checks(HALF, 1, 6)) and generating_function_mean_ok(HALF)
        monkeypatch.setattr(dobinski, "jackson_derivative", skip_first_step)
        assert all(generating_function_checks(HALF, 1, 6)) and generating_function_mean_ok(HALF)
        verdicts = [case.ok for case in RUNNERS["pmf-gf"](HALF, 6)]
        assert verdicts == [True] + [False] * 6

    def test_runner_fails_a_mean_with_no_truncation_point(self, monkeypatch):
        # psi!(n) read as (n**2 + 7)/3 leaves the lam = 1 mean no truncation point at classical and
        # q = 3/2: a kernel fault, so every case fails (exit 1) instead of the runner raising (exit 2)
        monkeypatch.setattr(PsiSequence, "factorial", lambda self, n: Fraction(n * n + 7, 3))
        for seq in (PsiSequence.classical(), PsiSequence.gauss_q(Fraction(3, 2))):
            with pytest.raises(NonConvergentError):
                generating_function_mean_ok(seq)
            assert [case.ok for case in RUNNERS["pmf-gf"](seq, 12)] == [False] * 13

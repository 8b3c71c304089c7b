"""The Bell oracle: B(n) along every independent route, one row per n."""

from fractions import Fraction

import pytest

from umbraldob import cigl, dobinski, identities, operator_calc
from umbraldob.cigl import PARTITION_CAP
from umbraldob.errors import CapExceededError
from umbraldob.exact_core import CertifiedValue
from umbraldob.identities import RUNNERS, Case, bell_oracle
from umbraldob.umbral_engine import PsiSequence

# B(0..13), OEIS A000110
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597, 27644437]


class TestBellOracle:
    def test_routes_agree_up_to_cap(self):
        rows = bell_oracle(PARTITION_CAP)
        assert [row.n for row in rows] == list(range(PARTITION_CAP + 1))
        assert [row.enumeration for row in rows] == BELL
        assert [row.rota for row in rows] == BELL
        assert [row.operator for row in rows] == BELL
        assert all(isinstance(row.operator, Fraction) for row in rows)
        assert all(row.series.contains(b) for row, b in zip(rows, BELL))
        assert all(row.ok for row in rows)

    def test_depth_zero_is_one_row(self):
        (row,) = bell_oracle(0)
        assert (row.n, row.enumeration, row.rota, row.operator, row.ok) == (0, 1, 1, 1, True)
        assert row.series.lo <= 1 <= row.series.hi

    def test_capped_by_enumeration(self):
        with pytest.raises(CapExceededError):
            bell_oracle(PARTITION_CAP + 1)

    def _break_count(self, monkeypatch):
        walk = cigl.partition_counts

        def one_off(n):
            counts = walk(n)
            counts[2] += 1
            return counts

        monkeypatch.setattr(cigl, "partition_counts", one_off)

    def _break_row_sum(self, monkeypatch):
        row_sum = identities.bell_via_sum
        monkeypatch.setattr(identities, "bell_via_sum", lambda table, m: row_sum(table, m) + (m == 2))

    def _break_operator(self, monkeypatch):
        operator = operator_calc.dobinski_specialization
        monkeypatch.setattr(operator_calc, "dobinski_specialization", lambda m: operator(m) + (m == 2))

    def _break_series(self, monkeypatch):
        sweep = dobinski.moments

        def shifted(seq, n_max, power):
            ivs = sweep(seq, n_max, power)
            ivs[2] = CertifiedValue(ivs[2].hi + 1, ivs[2].hi + 2)
            return ivs

        monkeypatch.setattr(dobinski, "moments", shifted)

    @pytest.mark.parametrize("route", ["count", "row_sum", "operator", "series"])
    def test_each_route_alone_fails_its_row(self, route, monkeypatch):
        getattr(self, f"_break_{route}")(monkeypatch)
        assert [row.ok for row in bell_oracle(4)] == [True, True, False, True, True]

    @pytest.mark.parametrize("holder, route", [(cigl, "partition_counts"), (dobinski, "moments")])
    def test_a_route_one_value_short_fails_every_row(self, holder, route, monkeypatch):
        real = getattr(holder, route)
        monkeypatch.setattr(holder, route, lambda *args, **kwargs: real(*args, **kwargs)[:-1])
        assert [row.ok for row in bell_oracle(4)] == [False] * 4


@pytest.mark.parametrize("name", RUNNERS)
def test_cases_do_not_name_their_identity(name):
    # The RUNNERS key is the identity's one name; verify writes it into each record.  A runner returns
    # one case per n = 0..n_max in order, except conjugation, whose one case reaches degree n_max.
    for seq in (PsiSequence.classical(), PsiSequence.gauss_q(Fraction(1, 2))):
        cases = RUNNERS[name](seq, 3)
        assert not [case for case in cases if "identity" in case.params]
        if name == "conjugation":
            assert [case.params for case in cases] == [{"max_degree": 3}]
        else:
            assert [case.params["n"] for case in cases] == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "ns, verdicts",
    [
        pytest.param([0, 1, 2], [True, True, True, False], id="last-n-missing"),
        pytest.param([1, 0, 2, 3], [False, False, True, True], id="out-of-order"),
        pytest.param([0, 1, 2, 3, 4], [True] * 4 + [False], id="one-case-too-many"),
        pytest.param([], [False] * 4, id="no-case"),
    ],
)
def test_a_runner_must_return_n_0_to_n_max_in_order(ns, verdicts):
    runner = identities._one_case_per_n(lambda seq, n_max: [Case({"seq": seq.label, "n": n}, True) for n in ns])
    cases = runner(PsiSequence.classical(), 3)
    assert [case.ok for case in cases] == verdicts
    assert [case.params["n"] for case in cases[len(ns):]] == list(range(len(ns), 4))  # a failed case per missing n

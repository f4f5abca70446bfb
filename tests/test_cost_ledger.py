"""A fixed-count cost ledger: four runs of the library, each counted in
calls to algebra.multiply, Element.__init__, Fraction.__mul__ and
algebra.normalize, against the counts in cost_ledger.json.  Counts do not
depend on how fast the host runs, so a change that keeps the work the same
reads the same table.  A change that lowers a count commits the new table;
one that raises a count says so where it is recorded."""
import json
import pathlib
from fractions import Fraction
from unittest import mock

from cuntzlim import algebra, homs
from cuntzlim.algebra import Element, O_INF, mono
from cuntzlim.limits import check_coherent, psi
from cuntzlim.poset import Chain
from cuntzlim.verify import verify_decomposition, verify_inverse_system, verify_state

LEDGER = pathlib.Path(__file__).resolve().parent / "cost_ledger.json"


def _psi_batch():
    for chain in ((1, 2, 6), (2, 4, 12), (3, 6, 24)):
        for n in range(1, 13):
            assert check_coherent(psi(Chain(chain), mono(O_INF, (n, 1), (n,))))


RUNS = {
    "verify_inverse_system(24)": lambda: verify_inverse_system(24),
    "verify_state(24, samples=0)": lambda: verify_state(24, samples=0),
    "verify_decomposition(2, 6)": lambda: verify_decomposition(2, 6),
    "psi batch": _psi_batch,
}


def _counts(run):
    # homs binds multiply by name, so it is wrapped there as well
    multiply = mock.Mock(wraps=algebra.multiply)
    with mock.patch.object(algebra, "multiply", multiply), \
            mock.patch.object(homs, "multiply", multiply), \
            mock.patch.object(Element, "__init__", autospec=True,
                              side_effect=Element.__init__) as init, \
            mock.patch.object(Fraction, "__mul__", autospec=True,
                              side_effect=Fraction.__mul__) as fraction_mul, \
            mock.patch.object(algebra, "normalize", wraps=algebra.normalize) as normalize:
        run()
    return {"multiply": multiply.call_count, "Element.__init__": init.call_count,
            "Fraction.__mul__": fraction_mul.call_count, "normalize": normalize.call_count}


def test_cost_ledger_counts_are_unchanged():
    got = {name: _counts(run) for name, run in RUNS.items()}
    assert got == json.loads(LEDGER.read_text()), (
        "the cost ledger changed; recomputed table:\n" + json.dumps(got, indent=2))

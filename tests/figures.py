"""Shared hand-built MSC fixtures and a random formula grammar used across
the test suite.

``fig_base`` is a 24-event MSC over processes p, q, r in which p emits a
stream of b/a events, some relayed to q through r.  ``fig_annotated`` is the
same structure with two q-labels flipped; the flipped version is the one
whose per-event path comparisons are frozen in the tests.
"""

from mscgossip.msc import Msc, SystemSignature
from mscgossip.tl import And, Atom, Not, Or, Proc, Since, Until

SIG3 = SystemSignature(processes=("p", "q", "r"), alphabet=("a", "b", "d"))

_P_LABELS = ["b", "b", "a", "b", "b", "a", "b", "a"]
_Q_LABELS_BASE = ["b", "a", "b", "b", "a", "b", "b", "a"]

_MESSAGES = [
    ("e0", "f0"),
    ("e1", "g0"),
    ("e2", "f1"),
    ("g1", "f2"),
    ("e3", "g2"),
    ("g3", "f3"),
    ("e4", "f5"),
    ("e5", "g4"),
    ("g5", "f4"),
    ("e6", "f6"),
    ("e7", "g6"),
    ("g7", "f7"),
]


def _build(q_labels):
    events = []
    events += [(f"e{i}", "p", _P_LABELS[i]) for i in range(8)]
    events += [(f"f{i}", "q", q_labels[i]) for i in range(8)]
    events += [(f"g{i}", "r", "d") for i in range(8)]
    return Msc(SIG3, events, _MESSAGES)


def fig_base() -> Msc:
    return _build(_Q_LABELS_BASE)


def fig_flipped() -> Msc:
    """fig_base with f2 and f5 relabeled from b to a."""
    q = list(_Q_LABELS_BASE)
    q[2] = "a"
    q[5] = "a"
    return _build(q)


def acceptance_formula(rng, depth):
    """A random formula over a, b, @p and @q: the acceptance grammar."""
    leaves = [Atom("a"), Atom("b"), Proc("p"), Proc("q")]
    if depth == 0:
        return rng.choice(leaves)
    k = rng.randrange(6)
    if k == 0:
        return rng.choice(leaves)
    if k == 1:
        return Not(acceptance_formula(rng, depth - 1))
    if k == 2:
        return Or(acceptance_formula(rng, depth - 1), acceptance_formula(rng, depth - 1))
    if k == 3:
        return And(acceptance_formula(rng, depth - 1), acceptance_formula(rng, depth - 1))
    if k == 4:
        return Since(acceptance_formula(rng, depth - 1), acceptance_formula(rng, depth - 1))
    return Until(acceptance_formula(rng, depth - 1), acceptance_formula(rng, depth - 1))

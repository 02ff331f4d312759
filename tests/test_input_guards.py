"""Every input guard of the library raises its own error with its own message.

The guard of ``helpers.from_columns``, which stood in ``IntMatrix`` until
the library stopped building matrices from columns, is kept here too.

One row per guard: the call that trips it, the exception type, and the
message it must carry.  Guards that other tests already trip on their way
(parsers, caps, the command line) are not repeated here.
"""

import re

import pytest

import helpers as H
from leavitt.graphs import Graph, is_hereditary, quotient
from leavitt.intlinalg import (
    CoeffGroup,
    FgAbGroup,
    GroupMap,
    IntMatrix,
    PresentedGroup,
    preimage_lattice,
)
from leavitt.ktheory import connecting_delta
from leavitt.monoid import GradedElement, MonoidElement

ONE = IntMatrix([[1]])

GUARDS = [
    ("graph edge source", lambda: Graph(["a"], [("e", "b", "a")]), ValueError,
     "edge 'e' has unknown source 'b'"),
    ("graph subset", lambda: is_hereditary(H.rose(1), {"w"}), ValueError,
     "subset contains unknown vertex 'w'"),
    ("quotient set", lambda: quotient(H.line_graph(2), {"v0"}), ValueError,
     "quotient set is not hereditary"),
    ("ragged rows", lambda: IntMatrix([[1, 2], [3]]), ValueError, "ragged rows"),
    ("declared cols", lambda: IntMatrix([[1, 2]], cols=3), ValueError, "cols mismatch"),
    ("immutable matrix", lambda: setattr(ONE, "rows", 2), AttributeError,
     "IntMatrix is immutable"),
    ("empty columns", lambda: H.from_columns([]), ValueError,
     "rows required for an empty column list"),
    ("matmul shapes", lambda: IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]]), ValueError,
     "shape mismatch (1, 2) @ (1, 2)"),
    ("add shapes", lambda: ONE + IntMatrix([[1, 2]]), ValueError, "shape mismatch"),
    ("hstack rows", lambda: ONE.hstack(IntMatrix([[1], [2]])), ValueError,
     "row count mismatch"),
    ("pow of non-square", lambda: IntMatrix([[1, 2]]).pow(2), ValueError,
     "pow needs a square matrix"),
    ("negative pow", lambda: ONE.pow(-1), ValueError, "negative power"),
    ("preimage rows", lambda: preimage_lattice(ONE, IntMatrix([[1], [2]])), ValueError,
     "row count mismatch"),
    ("negative free rank", lambda: FgAbGroup(-1), ValueError, "negative free rank"),
    ("torsion chain", lambda: FgAbGroup(0, (4, 6)), ValueError,
     "torsion not an invariant factor chain"),
    ("torsion entry", lambda: FgAbGroup(0, (1,)), ValueError,
     "torsion entries must be >= 2"),
    ("group map shape",
     lambda: GroupMap(PresentedGroup(IntMatrix([[2]])), PresentedGroup(ONE), IntMatrix([[1, 1]])),
     ValueError, "map matrix shape (1, 2) does not match (1, 1)"),
    ("cyclic order", lambda: CoeffGroup.finite_cyclic(0), ValueError, "order must be positive"),
    ("connecting map set", lambda: connecting_delta(H.line_graph(2), {"v0"}), ValueError,
     "connecting map needs a hereditary saturated set"),
    ("monoid coefficient", lambda: MonoidElement.of({"v": -1}), ValueError,
     "negative coefficient -1 at v"),
    ("zero support level", lambda: GradedElement.zero().min_level(), ValueError,
     "zero element has no support level"),
]


@pytest.mark.parametrize(
    "call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS]
)
def test_guard_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()

"""The one truncation rule: a search needing dimension d answers iff d <= top_dim.

Each guarded entry point is run on a presentation whose ``top_dim`` is one
below what it needs, where it must raise, and exactly what it needs, where
it must answer.
"""

from pathlib import Path

import pytest

import ssets as S
from ssets import BasedPresentation, GenId, HornSpec, Presentation, Simplex, SubPresentation


def _z2(top_dim):
    return S.nerve(S.cyclic(2), top_dim)


def _gen(p, dim, name):
    return Simplex((), p.generator(dim, name))


def _based(p):
    return BasedPresentation(p, p.generator(0, "*"))


def _fill(top_dim):
    p = _z2(top_dim)
    g = _gen(p, 1, "g")
    return S.fill_horn(p, HornSpec.from_faces(2, 1, {0: g, 2: g})) == _gen(p, 2, "g,g")


def _witness(top_dim):
    p = _z2(top_dim)
    g = _gen(p, 1, "g")
    return S.homotopy_witness(p, g, g) == S.degenerate(g, 1)


def _pi_rel(n):
    def run(top_dim):
        based = _based(_z2(top_dim))
        point = SubPresentation.closure(based.presentation, [based.basepoint])
        return S.pi_n_rel(based, point, n).order == (2 if n == 1 else 1)

    return run


def _cylinder(top_dim):
    x = S.standard_simplex(1, top_dim=top_dim)
    pr1, _ = S.projections(S.product(x, S.standard_simplex(1)))
    return S.homotopy_from_cylinder(S.compose(S.identity_map(x), pr1), 2).bound == 2


def _components(top_dim):
    p = Presentation([GenId(0, "a"), GenId(0, "b")], {}, top_dim=top_dim)
    return len(S.path_components(p)) == 2


# (entry point, the dimension it needs, a run on a presentation with a
# given top_dim that is true when the answer is right)
ENTRY_POINTS = [
    ("fill_horn", 2, _fill),
    ("kan_check", 2, lambda t: S.kan_check(_z2(t), 2).is_kan),
    ("normalized_complex", 2, lambda t: S.normalized_complex(_z2(t), 2).max_dim == 2),
    ("homotopy_witness", 2, _witness),
    ("pi_n n=1", 3, lambda t: S.pi_n(_based(_z2(t)), 1).order == 2),
    ("pi_n n=2", 4, lambda t: S.pi_n(_based(_z2(t)), 2).order == 1),
    ("pi_n_rel n=1", 2, _pi_rel(1)),
    ("pi_n_rel n=2", 4, _pi_rel(2)),
    ("homotopy_from_cylinder", 2, _cylinder),
    ("path_components", 1, _components),
]


@pytest.mark.parametrize(
    "needed, run", [e[1:] for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_each_search_answers_exactly_up_to_top_dim(needed, run):
    with pytest.raises(
        S.TruncationError,
        match=f" {needed} but the presentation is only trusted up to {needed - 1}$",
    ):
        run(needed - 1)
    assert run(needed)


def test_only_core_builds_a_truncation_error():
    src = Path(S.__file__).parent
    builders = {f.name for f in src.glob("*.py") if "TruncationError(" in f.read_text()}
    assert builders == {"core.py"}
    assert (src / "core.py").read_text().count("raise TruncationError(") == 1


def test_a_product_answers_past_its_factors_truncation_known_wrong():
    """ROADMAP item 3, pinned as it stands: these answers are wrong.

    An n-simplex of a product is a pair of n-simplices, so a product is
    trusted only up to its truncated factor's bound, here 2; yet it claims
    4.  The fix of item 3 re-records every value below: H_3(BZ/2) is Z/2,
    and ``kan_check`` to 3 raises ``TruncationError`` as on the factor.
    """
    factor = _z2(2)
    x = S.product(factor, S.standard_simplex(0))
    assert x.top_dim == 4
    groups = [(h.betti, h.torsion) for h in S.homology(x, 4)]
    assert groups == [(1, ()), (0, (2,)), (0, ()), (0, ())]  # H_3 should be Z/2
    report = S.kan_check(x, 3)  # should raise, as on the factor
    assert (report.horns_checked, len(report.witnesses), report.is_kan) == (46, 4, False)
    with pytest.raises(S.TruncationError):
        S.kan_check(factor, 3)

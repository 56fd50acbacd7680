"""Table 1: number of keys held by the server and by each user.

Analytic formulas cross-checked against actually constructed star, tree
and complete key graphs.
"""

from __future__ import annotations

from ..core import costs
from ..crypto import drbg
from ..keygraph.complete import CompleteGroup
from ..keygraph.flat import FlatKeyTree
from ..keygraph.star import StarGroup
from .common import QUICK, Scale, TableData


def run(scale: Scale = QUICK, n_users: int = 81, degree: int = 3,
        complete_n: int = 8) -> TableData:
    """Build all three graph classes and count keys.

    ``n_users`` defaults to a power of ``degree`` so the tree is full and
    balanced; the complete class uses a deliberately tiny ``complete_n``
    (2**n - 1 keys!).
    """
    source = drbg.make_source(b"table1")
    keygen = lambda: source.generate(8)

    star = StarGroup(keygen)
    for i in range(n_users):
        star.join(f"u{i}", keygen())

    tree = FlatKeyTree.build([(f"u{i}", keygen()) for i in range(n_users)],
                             degree, keygen)
    height = tree.height()

    complete = CompleteGroup([f"u{i}" for i in range(complete_n)], keygen)

    rows = [
        ["Star", f"n+1 = {costs.star_total_keys(n_users)}", star.n_keys,
         f"2", 2],
        ["Tree",
         f"~d/(d-1) n = {float(costs.tree_total_keys(n_users, degree)):.0f}",
         tree.n_keys,
         f"h = {costs.tree_keys_per_user(n_users, degree)}",
         len(tree.user_key_path(f"u0"))],
        ["Complete",
         f"2^n-1 = {costs.complete_total_keys(complete_n)}",
         complete.n_keys,
         f"2^(n-1) = {costs.complete_keys_per_user(complete_n)}",
         len(complete.keyset("u0"))],
    ]
    return TableData(
        title=(f"Table 1: keys held by server / per user "
               f"(n={n_users}, d={degree}; complete n={complete_n})"),
        headers=["class", "total (analytic)", "total (built)",
                 "per user (analytic)", "per user (built)"],
        rows=rows,
        notes=f"tree height h = {height}",
    )

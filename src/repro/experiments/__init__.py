"""Regeneration of every table and figure in the paper's evaluation.

============  ==========================================================
module        reproduces
============  ==========================================================
``table1``    Table 1 — number of keys (star / tree / complete)
``table2``    Table 2 — join/leave cost for server and users
``table3``    Table 3 — average cost per operation, optimal degree
``table4``    Table 4 — signing technique (per-message vs Merkle)
``table5``    Table 5 — rekey messages sent by the server
``table6``    Table 6 — rekey messages received by a client
``fig10``     Figure 10 — processing time vs group size (log scale)
``fig11``     Figure 11 — processing time vs key tree degree
``fig12``     Figure 12 — key changes by a client per request
``ablations`` §1 star-vs-tree, §6 Iolus, §7 hybrid, batch extension
============  ==========================================================

Run them all: ``python -m repro.experiments`` (quick parameters) or
``python -m repro.experiments --paper`` (the paper's full parameters).
"""

from . import (ablations, fig10, fig11, fig12, table1, table2, table3,
               table4, table5, table6)
from .common import PAPER, QUICK, Scale, TableData

ALL_EXPERIMENTS = (
    ("Table 1", table1.run),
    ("Table 2", table2.run),
    ("Table 3", table3.run),
    ("Table 4", table4.run),
    ("Table 5", table5.run),
    ("Table 6", table6.run),
    ("Figure 10", fig10.run),
    ("Figure 11", fig11.run),
    ("Figure 12", fig12.run),
    ("Ablation: star vs tree", ablations.star_vs_tree),
    ("Ablation: Iolus (§6)", ablations.iolus_comparison),
    ("Ablation: hybrid (§7)", ablations.hybrid_tradeoff),
    ("Ablation: batch rekeying", ablations.batch_saving),
    ("Ablation: tree drift", ablations.tree_drift),
    ("Ablation: client-side work", ablations.client_side_work),
    ("Ablation: multicast addresses (§7)", ablations.multicast_addresses),
    ("Ablation: feature flags", ablations.feature_flags),
)

__all__ = ["ALL_EXPERIMENTS", "QUICK", "PAPER", "Scale", "TableData",
           "table1", "table2", "table3", "table4", "table5", "table6",
           "fig10", "fig11", "fig12", "ablations"]

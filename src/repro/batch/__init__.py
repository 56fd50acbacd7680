"""Interval batch rekeying: the window planner behind
:meth:`~repro.core.server.GroupKeyServer.flush`."""

from .planner import (WindowEdit, apply_window, individual_cost_estimate,
                      plan_window)

__all__ = ["WindowEdit", "apply_window", "plan_window",
           "individual_cost_estimate"]

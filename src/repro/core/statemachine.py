"""Node state machine of the hybrid C/R model (paper Fig 5).

Encodes the legal transitions of a node's health state and provides a
guarded transition helper.  The C/R models route every state change
through :func:`transition`, so an illegal protocol interleaving fails loudly
in simulation instead of silently corrupting FT accounting — and the
property tests fuzz the machine directly.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from ..platform.node import NodeHealth

__all__ = ["ALLOWED_TRANSITIONS", "IllegalTransition", "transition", "can_transition"]


class IllegalTransition(RuntimeError):
    """Raised when a node attempts a transition Fig 5 does not permit."""


#: Legal state transitions (Fig 5), source → set of destinations.
ALLOWED_TRANSITIONS: Dict[NodeHealth, FrozenSet[NodeHealth]] = {
    NodeHealth.NORMAL: frozenset(
        {
            NodeHealth.VULNERABLE,  # failure predicted for this node
            NodeHealth.WAITING,     # p-ckpt notification from another node
            NodeHealth.FAILED,      # unpredicted failure
        }
    ),
    NodeHealth.VULNERABLE: frozenset(
        {
            NodeHealth.MIGRATING,   # enough lead time: live migration
            NodeHealth.NORMAL,      # committed / false alarm expired
            NodeHealth.FAILED,      # the predicted failure struck
        }
    ),
    NodeHealth.MIGRATING: frozenset(
        {
            NodeHealth.VULNERABLE,  # LM aborted (shorter-lead prediction)
            NodeHealth.NORMAL,      # LM completed: process vacated
            NodeHealth.FAILED,      # failure overtook the transfer
        }
    ),
    NodeHealth.WAITING: frozenset(
        {
            NodeHealth.NORMAL,      # pfs-commit received, phase 2 done
            NodeHealth.VULNERABLE,  # predicted to fail while waiting
            NodeHealth.FAILED,      # unpredicted failure while waiting
        }
    ),
    NodeHealth.FAILED: frozenset(
        {
            NodeHealth.NORMAL,      # replaced by a healthy spare
        }
    ),
}


# The same table for :func:`transition`, keyed by member identity:
# ``NodeHealth.__hash__`` is Python-level, ``id`` and an identity scan of
# a tuple are not, and every failure makes two transitions.  Members are
# singletons, so their ids are fixed for the process.
_DESTINATIONS: Dict[int, Tuple[NodeHealth, ...]] = {
    id(src): tuple(dsts) for src, dsts in ALLOWED_TRANSITIONS.items()
}


def can_transition(src: NodeHealth, dst: NodeHealth) -> bool:
    """Whether Fig 5 permits the transition *src* → *dst*."""
    return dst in ALLOWED_TRANSITIONS[src]


def transition(src: NodeHealth, dst: NodeHealth) -> NodeHealth:
    """Validate and perform a transition, returning the new state.

    Raises
    ------
    IllegalTransition
        If the move is not in :data:`ALLOWED_TRANSITIONS`.
    """
    if dst not in _DESTINATIONS[id(src)]:
        raise IllegalTransition(f"illegal node transition {src.value} -> {dst.value}")
    return dst

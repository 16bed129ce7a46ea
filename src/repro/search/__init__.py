"""Search strategies over the symbolic execution tree."""

from ..obs.observer import EventCallback, SynthesisEvent
from .engine import (
    GoalPredicate,
    SearchBudget,
    SearchOutcome,
    SearchStats,
    Searcher,
    StopPredicate,
    explore,
    explore_frontier,
)
from .esd import SCHEDULE_WEIGHT, GoalSpec, ProximityGuidedSearcher
from .strategies import BFSSearcher, DFSSearcher, RandomPathSearcher

__all__ = [
    "BFSSearcher",
    "DFSSearcher",
    "EventCallback",
    "GoalPredicate",
    "GoalSpec",
    "ProximityGuidedSearcher",
    "RandomPathSearcher",
    "SCHEDULE_WEIGHT",
    "SearchBudget",
    "SearchOutcome",
    "SearchStats",
    "Searcher",
    "StopPredicate",
    "SynthesisEvent",
    "explore",
    "explore_frontier",
]

"""Classifiers that fix :class:`~repro.xbfs.linalg_batch.LinAlgBatchBFS`'s
per-level direction.

The engine takes its direction from its classifier alone; these stand-ins
pin it for the direction-mode, fault and charge tests.
"""

from repro.xbfs.classifier import BOTTOM_UP, AdaptiveClassifier, Decision

#: Never pulls: a level's frontier edges never exceed the graph's, so
#: the edge ratio never passes alpha = 1.
PUSH_ONLY = AdaptiveClassifier(alpha=1.0)


class _PullOnly:
    """Answers bottom-up at every level."""

    def choose(self, **signals):
        return Decision(BOTTOM_UP, "always pull")


PULL_ONLY = _PullOnly()

#: The classifier behind each direction mode (``"auto"``: the engine's own).
BY_MODE = {"auto": None, "push": PUSH_ONLY, "pull": PULL_ONLY}

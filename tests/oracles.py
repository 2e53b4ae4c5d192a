"""Reference checks shared by the test modules."""

import numpy as np


def is_forest(leader) -> bool:
    """Whether a follower-to-leader array (-1 for no leader) is a forest.

    Every fish has at most one leader by construction, so the graph is a
    forest exactly when every leader chain ends at a leaderless fish.
    """
    leader = np.asarray(leader)
    for start in range(len(leader)):
        seen = set()
        node = start
        while node >= 0:
            if node in seen:
                return False
            seen.add(node)
            node = int(leader[node])
    return True

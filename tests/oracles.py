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


def probe_candidates(violation_rows, positions, phase, step_ind, variant, e, rng, lower, upper):
    """Per-fish reference of the engine's probe-gated candidates.

    Fish by fish: a gated fish scores its own D+1 forward-difference rows,
    draws and normalizes ``k_directions`` normal samples, picks the one with
    the smallest (phase 1) or smallest absolute (phase 2) directional
    derivative, and steps step_ind * rand(0, 1) along it; every other fish
    takes the plain uniform step. At ``p_g = 0`` no gate is drawn, as the
    engine draws none for a variant that cannot probe. Candidates are clipped
    into the box.
    """
    n, d = positions.shape
    gate = rng.random(n) if variant.p_g > 0.0 else np.ones(n)
    candidates = np.empty_like(positions)
    for i in range(n):
        x = positions[i]
        if gate[i] < variant.p_g:
            values = violation_rows(np.concatenate([x[None, :], x[None, :] + np.diag(e)]))
            grad = (values[1:] - values[0]) / e
            u = rng.normal(size=(variant.k_directions, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            derivs = u @ grad
            idx = int(np.argmin(derivs)) if phase == 1 else int(np.argmin(np.abs(derivs)))
            candidates[i] = x + step_ind * rng.random() * u[idx]
        else:
            candidates[i] = x + rng.uniform(-1.0, 1.0, d) * step_ind
    return np.clip(candidates, lower, upper, out=candidates)


def feasible_ratio_reference(problem, samples: int, seed: int = 0) -> float:
    """Sequential reference of ``cec2010.feasible_ratio``.

    Draws 2048-row blocks of uniform samples from one generator, one after
    another, and counts the rows whose violation is exactly zero.
    """
    from wrfss.problem import violation_many

    rng = np.random.default_rng(seed)
    feasible = 0
    remaining = samples
    while remaining > 0:
        n = min(2048, remaining)
        pts = rng.random((n, problem.dimension))
        pts *= problem.range_width
        pts += problem.lower
        feasible += int(np.count_nonzero(violation_many(problem, pts) == 0.0))
        remaining -= n
    return feasible / samples


def record_differences(a, b) -> list[str]:
    """The fields of two run records that differ, ``wall_time`` aside.

    Arrays compare by dtype, shape and bytes, and every other field by
    ``repr``, so a NaN equals itself and -0.0 differs from 0.0.
    """
    import dataclasses

    differ = []
    for f in dataclasses.fields(a):
        if f.name == "wall_time":
            continue
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            same = (isinstance(y, np.ndarray) and x.dtype == y.dtype and x.shape == y.shape
                    and x.tobytes() == y.tobytes())
        else:
            same = repr(x) == repr(y)
        if not same:
            differ.append(f.name)
    return differ

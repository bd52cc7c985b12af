"""Independent brute-force implementations used as test oracles.

Everything here recomputes quantities from first principles, in plain linear
arithmetic with literal nested loops: simple paths by exhaustive DFS, k-step
transitions as explicit sums over all intermediate class sequences, and
posteriors as normalized products of exhaustively computed conditionals.
No matrix powers, no log space, no caching, no imports from the engine's
computation path -- except :func:`log_conditionals_per_path`, the engine's
earlier per-path scorer, kept as the bit-for-bit reference for scoring once
per evidence key, and :func:`forward_arrival_logs`, the forward recursion's
earlier arrival fold, kept as the bit-for-bit reference for its rewrite.
"""

import itertools
import math

import numpy as np


def all_simple_paths_to_edge(edges, source, target_edge, max_len):
    """All simple paths from ``source`` ending with ``target_edge``.

    ``edges`` is an iterable of (u, v) pairs; returns vertex tuples sorted
    lexicographically.
    """
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    for children in adj.values():
        children.sort()
    u_t, v_t = target_edge
    results = []

    def walk(node, visited, path):
        if node == u_t:
            # the only legal continuation is closing the path with (u_t, v_t)
            if v_t not in visited and len(path) <= max_len:
                results.append(tuple(path) + (v_t,))
            return
        for child in adj.get(node, []):
            if child in visited or child == v_t:
                continue
            if len(path) >= max_len:  # descending + the closing edge would exceed the bound
                continue
            visited.add(child)
            path.append(child)
            walk(child, visited, path)
            path.pop()
            visited.discard(child)

    walk(source, {source}, [source])
    return sorted(results)


def kstep_brute(alpha, k, frm, to):
    """Sum over all class sequences of length k-1 between ``frm`` and ``to``."""
    num = len(alpha)
    total = 0.0
    for mids in itertools.product(range(num), repeat=k - 1):
        seq = (frm,) + mids + (to,)
        prob = 1.0
        for a, b in zip(seq[:-1], seq[1:]):
            prob *= alpha[a][b]
        total += prob
    return total


def marginal_brute(eta, alpha, position, cls):
    """Class marginal at path depth ``position``, anchored at the source."""
    if position == 1:
        return eta[cls]
    return sum(eta[z] * kstep_brute(alpha, position - 1, z, cls) for z in range(len(eta)))


def conditional_prob_brute(eta, alpha, edges, source, prefix, obs, max_len):
    """One hypothesis' conditional probability of ``obs`` given ``prefix``.

    ``prefix`` and ``obs`` carry ``.edge`` and ``.cls``; ``eta``/``alpha`` are
    plain nested lists for one hypothesis.
    """
    if obs.edge[0] == source:
        return eta[obs.cls]
    paths = all_simple_paths_to_edge(edges, source, obs.edge, max_len)
    if not paths:
        raise ValueError(f"no path to {obs.edge!r}")
    weights = []
    arrivals = []
    for path in paths:
        path_edges = list(zip(path[:-1], path[1:]))
        pos = {e: i + 1 for i, e in enumerate(path_edges)}
        on_path = sorted((pos[o.edge], o.cls) for o in prefix if o.edge in pos)
        weight = 1.0
        if on_path:
            weight *= marginal_brute(eta, alpha, on_path[0][0], on_path[0][1])
        for (p1, c1), (p2, c2) in zip(on_path[:-1], on_path[1:]):
            weight *= kstep_brute(alpha, p2 - p1, c1, c2) if p2 > p1 else (1.0 if c1 == c2 else 0.0)
        if on_path:
            last_pos, last_cls = on_path[-1]
            gap = len(path_edges) - last_pos
            arrival = kstep_brute(alpha, gap, last_cls, obs.cls) if gap else (
                1.0 if last_cls == obs.cls else 0.0
            )
        else:
            arrival = marginal_brute(eta, alpha, len(path_edges), obs.cls)
        weights.append(weight)
        arrivals.append(arrival)
    denom = sum(weights)
    if denom == 0.0:
        return sum(arrivals) / len(arrivals)
    return sum(w * a for w, a in zip(weights, arrivals)) / denom


def posterior_brute(model, edges, source, observations, max_len, prior=None):
    """Bayes posterior of the fake hypothesis from exhaustively computed
    likelihoods: posterior = prior * L1 / (prior * L1 + (1 - prior) * L0)."""
    if prior is None:
        prior = model.prior_fake
    eta = [[float(x) for x in row] for row in model.initial_probs]
    alpha = [[[float(x) for x in row] for row in mat] for mat in model.transition_probs]
    likelihood = [1.0, 1.0]
    prefix = []
    for obs in observations:
        for hyp in (0, 1):
            likelihood[hyp] *= conditional_prob_brute(
                eta[hyp], alpha[hyp], edges, source, prefix, obs, max_len
            )
        prefix.append(obs)
    num = prior * likelihood[1]
    return num / (num + (1.0 - prior) * likelihood[0])


def path_contexts_brute(paths, prefix):
    """Per path (a vertex tuple), the ``(position, index, cls)`` of every
    prefix observation lying on it, found by scanning the whole prefix, sorted
    by position and then stream index."""
    result = []
    for path in paths:
        path_edges = list(zip(path[:-1], path[1:]))
        entries = []
        for index, obs in enumerate(prefix):
            for position, edge in enumerate(path_edges, start=1):
                if obs.edge == edge:
                    entries.append((position, index, obs.cls))
        result.append(sorted(entries))
    return result


def log_conditionals_per_path(tables, paths, prefix, obs):
    """(log a_genuine, log a_fake) of ``obs`` scored path by path.

    ``paths`` are the candidate paths, each with its ``edges``, and ``tables``
    a ``ChainTables``.  Each path's context comes from ``build_path_contexts``
    and its chain and arrival logs are computed on their own, in the same
    order of float operations the engine used before it scored each distinct
    evidence key once, so the two must agree bit for bit.
    """
    from cascaudit.inference import _logsumexp, build_path_contexts

    def log_chain(hyp, ctx):
        if not ctx.on_path:
            return 0.0
        first = ctx.on_path[0]
        total = tables.log_marginal(hyp, first.position, first.cls)
        for prev, cur in zip(ctx.on_path[:-1], ctx.on_path[1:]):
            total += tables.log_gap(hyp, cur.position - prev.position, prev.cls, cur.cls)
        return total

    def log_arrival(hyp, ctx):
        depth = len(ctx.path.edges)
        if not ctx.on_path:
            return tables.log_marginal(hyp, depth, obs.cls)
        last = ctx.on_path[-1]
        return tables.log_gap(hyp, depth - last.position, last.cls, obs.cls)

    contexts = build_path_contexts(paths, prefix)
    result = []
    for hyp in (0, 1):
        log_nums = np.array([log_chain(hyp, ctx) for ctx in contexts])
        log_denom = _logsumexp(log_nums)
        log_arrivals = np.array([log_arrival(hyp, ctx) for ctx in contexts])
        if log_denom == float("-inf"):
            result.append(_logsumexp(log_arrivals) - math.log(len(contexts)))
        else:
            result.append(_logsumexp(log_nums + log_arrivals) - log_denom)
    return tuple(result)


def forward_arrival_logs(engine, obs):
    """(log a_genuine, log a_fake) of ``obs`` from the forward messages that
    ``engine._forward_logs(obs)`` left, or None when the chain mass is not
    finite: the arrival fold as the engine ran it before it started from the
    first row, with a ``np.logaddexp`` from -inf for every row of the tail, a
    log of a two-row list, and ``np.errstate`` entered per row."""
    rows = engine._ball.node_rows[obs.u]
    transition = engine._tables.stacked()[0]
    log_sums = np.full((2, 2), -np.inf)
    for depth, row in rows:
        msg, log_scale = engine._messages[depth - 1]
        vec = (msg[row] @ transition).reshape(2, -1)
        with np.errstate(divide="ignore"):
            logs = log_scale + np.log([vec[:, obs.cls], vec.sum(axis=1)])
        log_sums = np.logaddexp(log_sums, logs)
    if not np.isfinite(log_sums[1]).all():
        return None
    log_a = log_sums[0] - log_sums[1]
    return float(log_a[0]), float(log_a[1])


def solve_thresholds_interp(costs, outcomes, grid_step, max_sweeps=10_000, tol=1e-7):
    """``(values, sweeps, converged, pi_low, pi_up)`` of the stationary
    stopping recursion over fixed ``(a_genuine, a_fake)`` outcomes, with one
    ``np.interp`` call per outcome and sweep: the threshold solver as it was
    before it found each outcome's interpolation bracket once per solve."""
    n = round(1.0 / grid_step)
    grid = np.linspace(0.0, 1.0, n + 1)
    stop_values = np.minimum(costs.miss * grid, costs.false_alarm * (1.0 - grid))
    moves = []
    for a_genuine, a_fake in np.asarray(outcomes, dtype=float):
        weight = grid * a_fake + (1.0 - grid) * a_genuine
        with np.errstate(invalid="ignore", divide="ignore"):
            moves.append((weight, np.where(weight > 0, grid * a_fake / weight, grid)))
    values = stop_values.copy()
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        continuation = costs.per_step * grid
        for weight, updated in moves:
            continuation += weight * np.interp(updated, grid, values)
        new_values = np.minimum(stop_values, continuation)
        delta = float(np.abs(new_values - values).max())
        values = new_values
        if delta < tol:
            converged = True
            break
    ratio = costs.decision_ratio
    atol = max(10.0 * tol, 1e-9) * max(1.0, costs.false_alarm, costs.miss)
    low_side = (grid <= ratio + 1e-15) & (np.abs(values - costs.miss * grid) <= atol)
    up_side = (grid >= ratio - 1e-15) & (np.abs(values - costs.false_alarm * (1.0 - grid)) <= atol)
    pi_low = float(grid[low_side].max()) if low_side.any() else 0.0
    pi_up = float(grid[up_side].min()) if up_side.any() else 1.0
    return values, sweeps, converged, pi_low, pi_up

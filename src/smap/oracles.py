"""Independent brute-force reference implementations.

These deliberately avoid the code paths they are used to verify: path counts
are enumerated edge by edge over the layered graph instead of via matrix
products, the dense attention reference is plain numpy softmax attention
(no masks, no tape), and the gridworld oracles are dynamic programs over the
exact deterministic MDPs.

DodgeGrid has one DP table, ``dodge_q_values``: a single backward pass over
the level's hazard table fills the action values ``q[t, a, r, c]`` and the
state values ``values[t] = q[t].max(0)``. The survival check, the greedy
rollout and the sparse-dependence fraction all read that table; a blanked
level (``blanked_level``) gets its own table from ``start_t`` on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import autodiff as ad
from . import envs
from . import paths as pathmod
from .attention import TrunkConfig, forward_trunk
from .autodiff import Tensor
from .envs import DELTAS, GRID, LevelSpec
from .policies import make_policy
from .tokenizer import RECEPTIVE_FIELDS


# ---------------------------------------------------------------------------
# path counting


def count_paths_bruteforce(layer_masks: list[np.ndarray], out_mask: np.ndarray) -> np.ndarray:
    """Paths from each input token to the output node, enumerated one edge
    instance at a time (residual self-edges carry their own multiplicity)."""
    n = out_mask.shape[-1]
    out_row = np.asarray(out_mask).reshape(n)
    counts = np.zeros(n, dtype=np.int64)
    for start in range(n):
        stack = [(0, start, 1)]
        total = 0
        while stack:
            depth, node, mult = stack.pop()
            if depth == len(layer_masks):
                if out_row[node] > 0:
                    total += mult
                continue
            m = layer_masks[depth]
            for nxt in range(n):
                edges = int(m[nxt, node] > 0) + (1 if nxt == node else 0)
                if edges:
                    stack.append((depth + 1, nxt, mult * edges))
        counts[start] = total
    return counts


# ---------------------------------------------------------------------------
# dense attention reference (numpy only)


def _np_softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _np_layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    m = x.mean(axis=-1, keepdims=True)
    v = ((x - m) ** 2).mean(axis=-1, keepdims=True)
    return (x - m) / np.sqrt(v + eps) * g + b


def dense_reference_stack(tokens: np.ndarray, params: dict, n_layers: int) -> np.ndarray:
    """Mask-free attention trunk on (B, n, d) tokens; returns (B, d) features."""
    x = np.asarray(tokens, dtype=np.float64)
    d = x.shape[-1]

    def p(name):
        return np.asarray(params[name].data, dtype=np.float64)

    for l in range(n_layers):
        pre = f"layer{l}."
        q = x @ p(pre + "wq")
        k = x @ p(pre + "wk")
        v = x @ p(pre + "wv")
        attn = _np_softmax_rows(q @ np.swapaxes(k, -1, -2) / np.sqrt(d))
        y = _np_layer_norm(x + attn @ v, p(pre + "ln1_g"), p(pre + "ln1_b"))
        hidden = np.maximum(y @ p(pre + "ffn_w1") + p(pre + "ffn_b1"), 0.0)
        ff = hidden @ p(pre + "ffn_w2") + p(pre + "ffn_b2")
        x = _np_layer_norm(y + ff, p(pre + "ln2_g"), p(pre + "ln2_b"))

    k = x @ p("agg.wk")
    v = x @ p("agg.wv")
    attn = _np_softmax_rows(p("agg.q") @ np.swapaxes(k, -1, -2) / np.sqrt(d))
    feat = attn @ v
    return feat[:, 0, :]


# ---------------------------------------------------------------------------
# DodgeGrid dynamic programming


def _moves(walls: np.ndarray) -> np.ndarray:
    """(5, GRID * GRID): the flat cell r * GRID + c that each action leads to
    from each cell; a move into a wall or off the grid stays put."""
    rr, cc = np.indices((GRID, GRID))
    deltas = np.asarray(DELTAS)[:, :, None, None]
    tr = np.clip(rr + deltas[:, 0], 0, GRID - 1)
    tc = np.clip(cc + deltas[:, 1], 0, GRID - 1)
    blocked = walls[tr, tc]
    return np.where(blocked, rr * GRID + cc, tr * GRID + tc).reshape(len(DELTAS), -1)


def _projectiles(level: LevelSpec, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat cells of the projectiles at t, and their next cells (negative
    when leaving); the rows of t are one slice of the t-sorted table."""
    lo, hi = np.searchsorted(level.hazards[:, 0], (t, t + 1))
    rows = level.hazards[lo:hi]
    cells = rows[:, 1:5:2] * GRID + rows[:, 2:5:2]
    return cells[:, 0], cells[:, 1]


def _deaths(level: LevelSpec, t: int, moves: np.ndarray) -> np.ndarray:
    """(5, GRID * GRID): action a from a cell at t dies, landing on a
    projectile at t + 1 or swapping cells with one (moving from q into p
    while it flies p -> q)."""
    occupied = np.zeros(GRID * GRID, dtype=bool)
    occupied[_projectiles(level, t + 1)[0]] = True
    dead = occupied[moves]
    cur, nxt = _projectiles(level, t)
    p, q = cur[nxt >= 0], nxt[nxt >= 0]
    a, j = np.nonzero(moves[:, q] == p)
    dead[a, q[j]] = True
    return dead


def dodge_q_values(level: LevelSpec, start_t: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The one backward pass: ``q[t, a, r, c]``, the return of action a from
    (r, c) at time t with optimal play after it, shape (horizon, 5, 16, 16);
    and ``values[t] = q[t].max(0)``, 0 on walls and at the horizon. Rows
    before ``start_t`` stay 0. The greedy action is ``q[t, :, r, c].argmax()``,
    the first maximum."""
    moves = _moves(level.walls)
    collects = moves == level.item[0] * GRID + level.item[1]
    q = np.zeros((level.horizon, len(DELTAS), GRID, GRID))
    values = np.zeros((level.horizon + 1, GRID, GRID))
    for t in range(level.horizon - 1, start_t - 1, -1):
        q_t = envs.TICK_REWARD + values[t + 1].ravel()[moves]
        q_t[_deaths(level, t, moves)] = 0.0
        q_t[collects] = envs.GOAL_REWARD
        q[t] = q_t.reshape(len(DELTAS), GRID, GRID)
        values[t] = q[t].max(axis=0)
        values[t][level.walls] = 0.0
    return q, values


def dodge_survives_horizon(level: LevelSpec) -> bool:
    """Whether some policy survives the whole horizon from the start.

    With the item moved onto the border wall at (0, 0), where no move lands,
    the DP pays TICK_REWARD per survived step and nothing else, so only a
    full-horizon survivor is worth TICK_REWARD * horizon."""
    value = dodge_q_values(replace(level, item=(0, 0)))[1][0][level.agent_start]
    return bool(abs(value - envs.TICK_REWARD * level.horizon) < 1e-9)


def dodge_reachable_states(level: LevelSpec, max_t: int | None = None) -> list[tuple[tuple[int, int], int]]:
    """(pos, t) pairs reachable without dying, by forward expansion."""
    horizon = max_t if max_t is not None else level.horizon
    moves = _moves(level.walls)
    reach = np.zeros((GRID, GRID), dtype=bool)
    reach[level.agent_start] = True
    out = [(level.agent_start, 0)]
    for t in range(horizon):
        alive = reach.ravel() & ~_deaths(level, t, moves)
        reach = np.zeros((GRID, GRID), dtype=bool)
        reach.flat[moves[alive]] = True
        reach[level.item] = False          # collecting ends the episode
        if not reach.any():
            break
        for r, c in np.argwhere(reach):
            out.append(((int(r), int(c)), t + 1))
    return out


def blanked_level(level: LevelSpec, pos: tuple[int, int], t: int,
                  radius: int = 2) -> LevelSpec:
    """Blank everything beyond Chebyshev ``radius`` of ``pos`` (item exempt).

    Interior wall blocks outside the window disappear; only projectiles
    currently inside the window survive, and they continue their flight until
    the first remaining wall. The border stays (it frames every level), so
    every flight ends inside the grid.
    """
    rr, cc = np.indices((GRID, GRID))
    window = np.maximum(np.abs(rr - pos[0]), np.abs(cc - pos[1])) <= radius
    walls = level.walls.copy()
    walls[1:-1, 1:-1] &= window[1:-1, 1:-1]
    rows = []
    for cur, nxt in zip(*_projectiles(level, t)):
        (r, c), (nr, nc) = divmod(int(cur), GRID), divmod(int(nxt), GRID)
        if nxt < 0 or not window[r, c]:
            continue
        dr, dc, behind = nr - r, nc - c, (-1, -1)
        for s in range(t, level.horizon + 1):
            if walls[r, c]:
                break               # the flight ends at the first remaining wall
            ahead = (-1, -1) if walls[r + dr, c + dc] else (r + dr, c + dc)
            rows.append((s, r, c) + ahead + behind)
            behind, r, c = (r, c), r + dr, c + dc
    rows.sort(key=lambda row: row[0])       # stable: a timestep keeps flight order
    hazards = np.array(rows, dtype=np.int16).reshape(-1, 7)
    walls.setflags(write=False)
    hazards.setflags(write=False)
    return replace(level, walls=walls, emitters=(), hazards=hazards)


def dodge_sparse_dependence_fraction(level: LevelSpec, sample: int = 300,
                                     radius: int = 2, rng=None) -> float:
    """Fraction of (sampled) reachable states whose optimal action is
    unchanged after blanking everything beyond the local window."""
    rng = rng or np.random.default_rng(0)
    states = dodge_reachable_states(level, max_t=level.horizon - 2)
    if len(states) > sample:
        idx = rng.choice(len(states), size=sample, replace=False)
        states = [states[i] for i in sorted(idx)]
    full_q, _ = dodge_q_values(level)
    same = 0
    for (r, c), t in states:
        blank_q, _ = dodge_q_values(blanked_level(level, (r, c), t, radius=radius), start_t=t)
        same += int(full_q[t, :, r, c].argmax() == blank_q[t, :, r, c].argmax())
    return same / len(states)


def dodge_rollout_optimal(level: LevelSpec) -> float:
    """Roll the greedy DP policy through the real env; cross-checks both."""
    q, _ = dodge_q_values(level)
    s = envs.reset(level)
    total = 0.0
    while not s.done:
        s, r, _ = envs.step(s, int(q[s.t, :, s.pos[0], s.pos[1]].argmax()))
        total += r
    return total


# ---------------------------------------------------------------------------
# MazeGrid analysis


def _maze_adjacency(walls: np.ndarray) -> dict[tuple[int, int], list[tuple[int, tuple[int, int]]]]:
    """Cell graph from the pixel walls: (action, neighbor) pairs per cell."""
    adj = {}
    for r in range(envs.MAZE_CELLS):
        for c in range(envs.MAZE_CELLS):
            px = (2 * r + 1, 2 * c + 1)
            moves = []
            for a, (dr, dc) in enumerate(DELTAS[:4]):
                between = (px[0] + dr, px[1] + dc)
                nr, nc = r + dr, c + dc
                if 0 <= nr < envs.MAZE_CELLS and 0 <= nc < envs.MAZE_CELLS \
                        and not walls[between]:
                    moves.append((a, (nr, nc)))
            adj[(r, c)] = moves
    return adj


def maze_bfs_distances(adj: dict, goal_cell: tuple[int, int]) -> np.ndarray:
    dist = np.full((envs.MAZE_CELLS, envs.MAZE_CELLS), np.inf)
    dist[goal_cell] = 0
    queue = [goal_cell]
    while queue:
        cell = queue.pop(0)
        for _, nxt in adj[cell]:
            if dist[nxt] == np.inf:
                dist[nxt] = dist[cell] + 1
                queue.append(nxt)
    return dist


def maze_optimal_actions(walls: np.ndarray, goal_cell: tuple[int, int]) -> dict[tuple[int, int], int]:
    """First step along a shortest path per cell (first-min tie-break)."""
    adj = _maze_adjacency(walls)
    dist = maze_bfs_distances(adj, goal_cell)
    return {cell: min(moves, key=lambda move: dist[move[1]])[0]
            for cell, moves in adj.items() if cell != goal_cell and dist[cell] < np.inf}


def maze_blank_quadrant(level: LevelSpec, quadrant: int) -> np.ndarray:
    """Open every wall pixel strictly inside one quadrant of the maze area."""
    walls = level.walls.copy()
    walls[slice(1, 9) if quadrant in (0, 1) else slice(8, 15),
          slice(1, 9) if quadrant in (0, 2) else slice(8, 15)] = False
    return walls


def maze_dense_dependence_fraction(level: LevelSpec, quadrant: int) -> float:
    """Fraction of cells whose BFS-optimal action changes when a quadrant of
    the maze is opened up."""
    goal_cell = ((level.item[0] - 1) // 2, (level.item[1] - 1) // 2)
    base = maze_optimal_actions(level.walls, goal_cell)
    blanked = maze_optimal_actions(maze_blank_quadrant(level, quadrant), goal_cell)
    cells = [c for c in base if c in blanked]
    changed = sum(base[c] != blanked[c] for c in cells)
    return changed / max(1, len(cells))


def maze_count_simple_paths(level: LevelSpec) -> int:
    """Number of simple start->goal paths (1 for a perfect maze)."""
    start = ((level.agent_start[0] - 1) // 2, (level.agent_start[1] - 1) // 2)
    goal = ((level.item[0] - 1) // 2, (level.item[1] - 1) // 2)
    adj = _maze_adjacency(level.walls)
    count = 0
    stack = [(start, frozenset([start]))]
    while stack:
        cell, seen = stack.pop()
        if cell == goal:
            count += 1
            continue
        for _, nxt in adj[cell]:
            if nxt not in seen:
                stack.append((nxt, seen | {nxt}))
    return count


# ---------------------------------------------------------------------------
# influence blocking


def influence_blocking_trial(seed: int) -> tuple[int, bool]:
    """Check that tokens with zero surviving paths cannot move the output.

    Uses eval-mode deterministic masks (betas biased negative so zero-path
    tokens exist), then perturbs the observation inside one token's receptive
    field, three times per token, while holding the masks fixed. Returns
    (tokens tested, all exactly invariant). Exactness is bitwise at the active
    precision.
    """
    rng = np.random.default_rng(seed)
    cfg = TrunkConfig()
    policy = make_policy("sparse_masked", cfg, seed=seed)
    for name, t in policy.params.items():
        if name.endswith("beta"):
            t.data = np.asarray(rng.uniform(-3.0, -0.5), dtype=t.data.dtype)
    obs = rng.random((1, envs.OBS_CHANNELS, GRID, GRID))
    out = policy.output(obs, mode="eval")
    relevance = pathmod.effective_input_relevance(pathmod.path_matrix(out.mask_set))[0]

    def features(x: np.ndarray) -> np.ndarray:
        return forward_trunk(Tensor(x.astype(ad.get_default_dtype())), policy.params, cfg,
                             mode="eval", masks_override=out.mask_set)[0].data

    base = features(obs)
    tested = 0
    for i in np.flatnonzero(~relevance):
        r0, r1, c0, c1 = RECEPTIVE_FIELDS[i]
        for _ in range(3):
            perturbed = obs.copy()
            perturbed[0, :, r0:r1, c0:c1] += rng.standard_normal(
                (obs.shape[1], r1 - r0, c1 - c0)) * 10.0
            if not np.array_equal(base, features(perturbed)):
                return tested, False
            tested += 1
    return tested, True


# ---------------------------------------------------------------------------
# oracle suite (used by the CLI and the acceptance tests)


def run_oracle_suite(patterns: int = 10_000, progress=None) -> list[tuple[str, bool, str]]:
    """``(name, passed, detail)`` checks pairing fast implementations with brute
    force; each goes to ``progress(name, passed, detail)`` once decided."""
    checks: list[tuple[str, bool, str]] = []

    def record(name, ok, detail=""):
        checks.append((name, ok, detail))
        if progress:
            progress(name, ok, detail)

    rng = np.random.default_rng(20_240_601)
    mismatches = 0
    for _ in range(patterns):
        n = int(rng.integers(1, 5))
        layers = int(rng.integers(0, 4))
        layer_masks = [(rng.random((n, n)) < rng.random()).astype(float)
                       for _ in range(layers)]
        out_mask = (rng.random((1, n)) < rng.random()).astype(float)
        pm = pathmod.path_matrix([Tensor(m[None]) for m in layer_masks + [out_mask]])
        brute = count_paths_bruteforce(layer_masks, out_mask)
        if not np.array_equal(pm.a_out.data[0, 0].astype(np.int64), brute):
            mismatches += 1
    record("path_bruteforce_equivalence", mismatches == 0,
           f"{patterns} random mask patterns, {mismatches} mismatches")

    mu_ok = all(float(pathmod.path_matrix([Tensor(np.ones((1, n, n)))] * layers
                                          + [Tensor(np.ones((1, 1, n)))]).total.data[0])
                == pathmod.max_paths(n, layers)
                for n in range(1, 9) for layers in range(0, 5))
    record("mu_closed_form", mu_ok, "n in 1..8, L in 0..4, exact")

    worst = 0.0
    for seed in range(5):
        level = envs.generate_level(envs.KIND_DODGE, seed)
        v0 = dodge_q_values(level)[1][0][level.agent_start]
        worst = max(worst, abs(v0 - dodge_rollout_optimal(level)))
    record("dodge_dp_vs_rollout", worst <= 1e-9, f"5 seeds, worst |diff| {worst:.2e}")

    safe_ok = all(len(level.emitters) >= 1 and dodge_survives_horizon(level)
                  for level in (envs.generate_level(envs.KIND_DODGE, s) for s in range(1000)))
    record("dodge_safe_policy_validator", safe_ok,
           "1000 seeds, survival DP with the item removed")

    maze_ok = all(maze_count_simple_paths(envs.generate_level(envs.KIND_MAZE, s)) == 1
                  for s in range(100))
    record("maze_unique_path", maze_ok, "100 seeds, exactly one start->goal path")

    split_ok = all(set(tr).isdisjoint(te)
                   for tr, te in (envs.make_split(kind, 200, 100) for kind in envs.KINDS))
    record("split_disjoint", split_ok, "200 train / 100 test, both env kinds")

    with ad.precision(np.float64):
        blocked_ok = True
        tested_total = 0
        for seed in range(100):
            tested, ok = influence_blocking_trial(seed)
            tested_total += tested
            if not ok:
                blocked_ok = False
                break
    record("influence_blocking", blocked_ok,
           f"100 trials, {tested_total} zero-path perturbations, exact equality")

    return checks

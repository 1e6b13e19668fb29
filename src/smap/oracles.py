"""Independent brute-force reference implementations.

These deliberately avoid the code paths they are used to verify: path counts
are enumerated edge by edge over the layered graph instead of via matrix
products, the dense attention reference is plain numpy softmax attention
(no masks, no tape), and the gridworld oracles are dynamic programs over the
exact deterministic MDPs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import envs
from .envs import DELTAS, GRID, LevelSpec


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


def _dodge_q_values(level: LevelSpec, next_values: np.ndarray, t: int,
                    moves: np.ndarray) -> np.ndarray:
    """Q[a, r, c]: return of action a from (r, c) at time t, then V[t + 1]."""
    q_values = envs.TICK_REWARD + next_values.ravel()[moves]
    q_values[_deaths(level, t, moves)] = 0.0
    # a removed item, (-1, -1), flattens to no cell
    q_values[moves == level.item[0] * GRID + level.item[1]] = envs.GOAL_REWARD
    return q_values.reshape(len(DELTAS), GRID, GRID)


def dodge_optimal_values(level: LevelSpec, start_t: int = 0) -> np.ndarray:
    """V[t, r, c]: best achievable return from (r, c) at time t (free cells)."""
    moves = _moves(level.walls)
    values = np.zeros((level.horizon + 1, GRID, GRID))
    for t in range(level.horizon - 1, start_t - 1, -1):
        best = _dodge_q_values(level, values[t + 1], t, moves).max(axis=0)
        best[level.walls] = 0.0
        values[t] = best
    return values


def dodge_optimal_actions(level: LevelSpec, values: np.ndarray, t: int) -> np.ndarray:
    """Greedy action grid at time t under the given value table (first-max)."""
    return np.argmax(_dodge_q_values(level, values[t + 1], t, _moves(level.walls)), axis=0)


def dodge_survives_horizon(level: LevelSpec) -> bool:
    """Whether some policy survives the whole horizon from the start.

    With the item removed, the value DP pays TICK_REWARD per survived step
    and nothing else, so only a full-horizon survivor is worth
    TICK_REWARD * horizon."""
    no_item = replace(level, item=(-1, -1))
    value = dodge_optimal_values(no_item)[0][level.agent_start]
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
    the first remaining wall. The border stays (it frames every level).
    """
    rr, cc = np.meshgrid(np.arange(GRID), np.arange(GRID), indexing="ij")
    window = np.maximum(np.abs(rr - pos[0]), np.abs(cc - pos[1])) <= radius
    walls = level.walls.copy()
    interior = np.ones_like(walls)
    interior[0, :] = interior[-1, :] = interior[:, 0] = interior[:, -1] = False
    walls[interior & ~window] = False

    kept = []
    cur, nxt = _projectiles(level, t)
    for j in range(cur.shape[0]):
        p, q = divmod(int(cur[j]), GRID), divmod(int(nxt[j]), GRID)
        if nxt[j] < 0 or not window[p]:
            continue
        kept.append((p, (q[0] - p[0], q[1] - p[1])))

    horizon = level.horizon
    rows = []
    dead = (-1, -1)
    for s in range(t, horizon + 1):
        k = s - t
        flying = []
        for (p, d) in kept:
            cell = (p[0] + k * d[0], p[1] + k * d[1])
            if not (0 <= cell[0] < GRID and 0 <= cell[1] < GRID) or walls[cell]:
                continue            # the flight ends at the first remaining wall
            flying.append((p, d))
            nxt_cell = (cell[0] + d[0], cell[1] + d[1])
            if not (0 <= nxt_cell[0] < GRID and 0 <= nxt_cell[1] < GRID) or walls[nxt_cell]:
                nxt_cell = dead
            prev_cell = (cell[0] - d[0], cell[1] - d[1])
            if k == 0 or not (0 <= prev_cell[0] < GRID and 0 <= prev_cell[1] < GRID):
                prev_cell = dead
            rows.append((s,) + cell + nxt_cell + prev_cell)
        kept = flying
    hazards = np.array(rows, dtype=np.int16).reshape(-1, 7)
    walls.setflags(write=False)
    hazards.setflags(write=False)
    return LevelSpec(kind=level.kind, seed=level.seed, walls=walls,
                     agent_start=level.agent_start, palette=level.palette,
                     horizon=horizon, emitters=(), item=level.item,
                     hazards=hazards)


def dodge_sparse_dependence_fraction(level: LevelSpec, sample: int = 300,
                                     radius: int = 2, rng=None) -> float:
    """Fraction of (sampled) reachable states whose optimal action is
    unchanged after blanking everything beyond the local window."""
    rng = rng or np.random.default_rng(0)
    states = dodge_reachable_states(level, max_t=level.horizon - 2)
    if len(states) > sample:
        idx = rng.choice(len(states), size=sample, replace=False)
        states = [states[i] for i in sorted(idx)]
    full_values = dodge_optimal_values(level)
    same = 0
    for pos, t in states:
        full_action = dodge_optimal_actions(level, full_values, t)[pos]
        blanked = blanked_level(level, pos, t, radius=radius)
        blank_values = dodge_optimal_values(blanked, start_t=t)
        blank_action = dodge_optimal_actions(blanked, blank_values, t)[pos]
        same += int(full_action == blank_action)
    return same / len(states)


def dodge_rollout_optimal(level: LevelSpec) -> float:
    """Roll the greedy DP policy through the real env; cross-checks both."""
    values = dodge_optimal_values(level)
    s = envs.reset(level)
    total = 0.0
    while not s.done:
        action = dodge_optimal_actions(level, values, s.t)[s.pos]
        s, r, _ = envs.step(s, int(action))
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


def maze_bfs_distances(walls: np.ndarray, goal_cell: tuple[int, int]) -> np.ndarray:
    adj = _maze_adjacency(walls)
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
    """First step along a shortest path per cell (first-max tie-break)."""
    adj = _maze_adjacency(walls)
    dist = maze_bfs_distances(walls, goal_cell)
    actions = {}
    for cell, moves in adj.items():
        if cell == goal_cell or dist[cell] == np.inf:
            continue
        best_a, best_d = None, np.inf
        for a, nxt in moves:
            if dist[nxt] < best_d:
                best_a, best_d = a, dist[nxt]
        actions[cell] = best_a
    return actions


def maze_blank_quadrant(level: LevelSpec, quadrant: int) -> np.ndarray:
    """Open every wall pixel strictly inside one quadrant of the maze area."""
    walls = level.walls.copy()
    half_r = (0, 8) if quadrant in (0, 1) else (8, 15)
    half_c = (0, 8) if quadrant in (0, 2) else (8, 15)
    for r in range(max(1, half_r[0]), min(14, half_r[1]) + 1):
        for c in range(max(1, half_c[0]), min(14, half_c[1]) + 1):
            walls[r, c] = False
    # cell pixels are always open; keep non-maze padding intact
    walls[15, :] = True
    walls[:, 15] = True
    walls[0, :] = True
    walls[:, 0] = True
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
    from . import paths as pathmod
    from .attention import TrunkConfig
    from .policies import make_policy

    rng = np.random.default_rng(seed)
    cfg = TrunkConfig()
    policy = make_policy("sparse_masked", cfg, seed=seed)
    for name, t in policy.params.items():
        if name.endswith("beta"):
            t.data = np.asarray(rng.uniform(-3.0, -0.5), dtype=t.data.dtype)
    obs = rng.random((1, envs.OBS_CHANNELS, GRID, GRID))
    out = policy.output(obs, mode="eval")
    relevance = pathmod.effective_input_relevance(pathmod.path_matrix(out.mask_set))[0]
    dead = [i for i in range(relevance.size) if not relevance[i]]
    if not dead:
        return 0, True

    from .attention import forward_trunk
    from .tokenizer import RECEPTIVE_FIELDS
    from . import autodiff as ad_mod

    base, _, _ = forward_trunk(ad_mod.Tensor(obs.astype(ad_mod.get_default_dtype())),
                         policy.params, cfg, mode="eval",
                         masks_override=out.mask_set)
    tested = 0
    for i in dead:
        r0, r1, c0, c1 = RECEPTIVE_FIELDS[i]
        for _ in range(3):
            perturbed = obs.copy()
            perturbed[0, :, r0:r1, c0:c1] += rng.standard_normal(
                (obs.shape[1], r1 - r0, c1 - c0)) * 10.0
            alt, _, _ = forward_trunk(
                ad_mod.Tensor(perturbed.astype(ad_mod.get_default_dtype())),
                policy.params, cfg, mode="eval", masks_override=out.mask_set)
            if not np.array_equal(base.data, alt.data):
                return tested, False
            tested += 1
    return tested, True


# ---------------------------------------------------------------------------
# oracle suite (used by the CLI and the acceptance tests)


def run_oracle_suite(patterns: int = 10_000, progress=None) -> list[tuple[str, bool, str]]:
    """``(name, passed, detail)`` checks pairing fast implementations with brute
    force; each goes to ``progress(name, passed, detail)`` once decided."""
    from . import autodiff as ad_mod
    from . import paths as pathmod
    from .autodiff import Tensor

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

    mu_ok = True
    for n in range(1, 9):
        for layers in range(0, 5):
            ms = [Tensor(np.ones((1, n, n)))] * layers + [Tensor(np.ones((1, 1, n)))]
            total = float(pathmod.path_matrix(ms).total.data[0])
            if total != pathmod.max_paths(n, layers):
                mu_ok = False
    record("mu_closed_form", mu_ok, "n in 1..8, L in 0..4, exact")

    dp_ok = True
    worst = 0.0
    for seed in range(5):
        level = envs.generate_level(envs.KIND_DODGE, seed)
        v0 = dodge_optimal_values(level)[0][level.agent_start]
        ret = dodge_rollout_optimal(level)
        worst = max(worst, abs(v0 - ret))
        if abs(v0 - ret) > 1e-9:
            dp_ok = False
    record("dodge_dp_vs_rollout", dp_ok, f"5 seeds, worst |diff| {worst:.2e}")

    safe_ok = True
    for seed in range(1000):
        level = envs.generate_level(envs.KIND_DODGE, seed)
        if len(level.emitters) < 1 or not dodge_survives_horizon(level):
            safe_ok = False
            break
    record("dodge_safe_policy_validator", safe_ok,
           "1000 seeds, survival DP with the item removed")

    maze_ok = all(maze_count_simple_paths(envs.generate_level(envs.KIND_MAZE, s)) == 1
                  for s in range(100))
    record("maze_unique_path", maze_ok, "100 seeds, exactly one start->goal path")

    split_ok = True
    for kind in envs.KINDS:
        tr, te = envs.make_split(kind, 200, 100)
        if set(tr) & set(te):
            split_ok = False
    record("split_disjoint", split_ok, "200 train / 100 test, both env kinds")

    with ad_mod.precision(np.float64):
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

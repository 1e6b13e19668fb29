"""Procedurally generated gridworld families, played as one level model.

A level (``LevelSpec``) is walls, a start, an item whose collection ends the
episode at +10, and an optional hazard table. Per kind, ``_RULES`` holds
only a move's stride and the reward of a surviving step.

DodgeGrid: a 16x16 arena with bordered walls, a few wall blocks, 2-4 hazard
projectiles bouncing deterministically along rows or columns, and the item.
Surviving a step earns +0.1, collision ends the episode at 0. Admits a
sparse-dependent policy: dodging is decided by the agent's immediate
surroundings plus the item location.

MazeGrid: a perfect maze carved by seeded depth-first search on a 7x7 cell
lattice, rendered to 16x16 pixels; a move crosses a passage to the next cell,
two pixels on, and earns 0. The item is the cell farthest from the start.
Optimal play requires most of the layout, i.e. a dense-dependent policy.

Layouts are pure functions of (kind, seed). Generation rejects DodgeGrid
layouts without a provably safe full-horizon policy, resampling from a
seed-derived substream, so every exposed level is solvable.

An observation is stored as a (16, 16) uint8 code frame, one byte per cell,
and decoded to the (4, 16, 16) float frame only where a network reads it
(``decode_obs``). Rollouts keep the codes: a quarter of a float32 frame's
cells at one byte each. The observation code of a cell:

- bit 0: wall (channel 0 is 1.0);
- bit 1: agent (channel 1 is 1.0);
- bits 2-3: channel 2's shade index into (0, 0.3, 0.6, 1.0): 3 at the item,
  else the brighter of a projectile (2) and its trail (1);
- bits 4-7: the palette index; channel 3 is the tint 0.15 + 0.8 p / 9.

Each level is compiled once into two read-only tables, derived lazily from
its fields on first use, so a spec that is never stepped costs nothing:

- ``LevelSpec.base_codes``, what stays: the (16, 16) uint8 observation codes
  of walls, palette and the item (256 bytes).
- ``LevelSpec.codes``, what moves, None without hazards: a (horizon + 1, 16,
  16) uint8 array (33 KB at the default horizon of 128), one code per cell
  and timestep: bits 0-1 are the shade an observation ORs in, with trails
  not drawn on walls and the brighter of trail and projectile kept; bit 2 is
  set where a projectile is; bits 3-6 where it moves up, down, left or right
  next step.

``step``, ``obs_codes``, ``render_ppm`` and generation's safe-policy check
read only these tables. The check runs its forward reach set on 256-bit
Python ints, bit ``r * 16 + c`` for cell (r, c), because numpy's fixed cost
per call, not the work, dominated on 16x16 grids; column masks keep a
one-column shift from carrying a cell across a row boundary. ``codes`` is
built from ``hazards``, one read-only int16 (N, 7) array of projectile rows
sorted by t (12 KB a level), which the oracles decode on their own. The
tables must stay dense arrays: a layout of per-timestep sets and index
arrays raised the peak memory of a DodgeGrid training run by 13.6%.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, UsageError

GRID = 16
OBS_CHANNELS = 4            # walls, agent, item and hazards, palette tint
MAZE_CELLS = 7
DODGE_HORIZON = 128
MAZE_HORIZON = 256
TICK_REWARD = 0.1
GOAL_REWARD = 10.0
N_PALETTES = 10

KIND_DODGE = "DodgeGrid"
KIND_MAZE = "MazeGrid"
KINDS = (KIND_DODGE, KIND_MAZE)

ACTIONS = ("up", "down", "left", "right", "stay")
DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))
N_ACTIONS = len(ACTIONS)

# per kind: a move's stride in pixels, the reward of a surviving step, the horizon
_RULES = {KIND_DODGE: (1, TICK_REWARD, DODGE_HORIZON), KIND_MAZE: (2, 0.0, MAZE_HORIZON)}
# collecting the item ends the episode, so at most horizon - 1 ticks precede it
RETURN_BOUNDS = {kind: (0.0, GOAL_REWARD + tick * (horizon - 1))
                 for kind, (_, tick, horizon) in _RULES.items()}

# bit layout of LevelSpec.codes
SHADE = 0b11
HAZARD = 1 << 2
MOVE_BITS = (1 << 3, 1 << 4, 1 << 5, 1 << 6)      # a projectile moves by DELTAS[a]
SHADES = (0.0, 0.3, 0.6, 1.0)                     # channel 2 by shade index
# bit layout of observation codes (module docstring)
WALL_BIT = 1
AGENT_BIT = 1 << 1
SHADE_SHIFT = 2
PALETTE_SHIFT = 4
# moving by DELTAS[a] swaps cells with a projectile moving the opposite way
_SWAP_BITS = (MOVE_BITS[1], MOVE_BITS[0], MOVE_BITS[3], MOVE_BITS[2], 0)
# move bit by (dr + 1) * 3 + dc + 1
_MOVE_BIT_BY_STEP = np.zeros(9, dtype=np.uint8)
_MOVE_BIT_BY_STEP[[(dr + 1) * 3 + dc + 1 for dr, dc in DELTAS[:4]]] = MOVE_BITS
# reach-set boards without column 0 or 15, for one-column shifts
_NOT_COL0 = sum(1 << i for i in range(GRID * GRID) if i % GRID != 0)
_NOT_COL15 = sum(1 << i for i in range(GRID * GRID) if i % GRID != GRID - 1)

_SPLIT_ENTROPY = 0x5EEDB10C
TEST_SEED_BASE = 10 ** 6
TEST_SEED_SPAN = 10 ** 4


@dataclass(frozen=True)
class Emitter:
    """Fires a projectile along its line every ``period`` steps.

    Projectiles travel one cell per step from the span's firing end to the
    far wall and vanish there, so several are usually in flight at once.
    """
    axis: int          # 0: projectiles travel along a row, 1: along a column
    line: int          # the fixed row (axis 0) or column (axis 1)
    span_start: int
    span_len: int
    period: int
    phase: int
    direction: int     # +1: fired from span_start end, -1: from the far end


@dataclass(frozen=True)
class LevelSpec:
    kind: str
    seed: int
    walls: np.ndarray                   # (16, 16) bool
    agent_start: tuple[int, int]
    palette: int
    horizon: int
    # reaching it ends the episode at GOAL_REWARD; a level without an item puts
    # it on a wall no move lands on, such as the border cell (0, 0)
    item: tuple[int, int]
    emitters: tuple[Emitter, ...] = ()
    # (N, 7) int16, a row per projectile in flight, sorted by t: (t, cell, next
    # cell (-1,-1 when it leaves the arena), cell just behind it (-1,-1 if none))
    hazards: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("agent_start", "item"):
            cell = getattr(self, name)
            if not (0 <= cell[0] < GRID and 0 <= cell[1] < GRID):
                raise ValueError(f"{name} {cell} lies outside the {GRID}x{GRID} grid")

    @cached_property
    def base_codes(self) -> np.ndarray:
        """(16, 16) uint8 observation codes: walls, palette and the item."""
        base = np.full((GRID, GRID), self.palette << PALETTE_SHIFT, dtype=np.uint8)
        base[self.walls] |= WALL_BIT
        base[self.item] |= SHADE << SHADE_SHIFT
        base.setflags(write=False)
        return base

    @cached_property
    def codes(self) -> Optional[np.ndarray]:
        """(horizon + 1, 16, 16) uint8 cell codes from ``hazards`` (module
        docstring); None without hazards."""
        if self.hazards is None:
            return None
        t, r, c, nr, nc, tr, tc = self.hazards.T.astype(np.intp)
        codes = np.zeros((self.horizon + 1, GRID, GRID), dtype=np.uint8)
        drawn = tr >= 0
        drawn[drawn] = ~self.walls[tr[drawn], tc[drawn]]
        # shade 1 (trail) before 2 (projectile), so the brighter one wins
        codes[t[drawn], tr[drawn], tc[drawn]] = 1
        codes[t, r, c] = 2 | HAZARD
        moving = nr >= 0
        dr, dc = nr[moving] - r[moving], nc[moving] - c[moving]
        if np.any(np.abs(dr) + np.abs(dc) != 1):
            raise ValueError("projectiles must move one cell per step")
        np.bitwise_or.at(codes, (t[moving], r[moving], c[moving]),
                         _MOVE_BIT_BY_STEP[(dr + 1) * 3 + dc + 1])
        codes.setflags(write=False)
        return codes


@dataclass(frozen=True)
class EnvState:
    level: LevelSpec
    pos: tuple[int, int]
    t: int
    done: bool


def _emitter_cell(e: Emitter, x: int) -> tuple[int, int]:
    coord = e.span_start + x if e.direction > 0 else e.span_start + e.span_len - 1 - x
    return (e.line, coord) if e.axis == 0 else (coord, e.line)


def _hazard_tables(emitters: tuple[Emitter, ...], horizon: int) -> np.ndarray:
    """``LevelSpec.hazards`` for t = 0..horizon: the projectiles in flight,
    emitter by emitter in flight order, the cells they move to next ((-1, -1)
    at the span's end) and the cells just behind them ((-1, -1) at its start)."""
    dead = (-1, -1)
    slots = [(e, x) for e in emitters for x in range(e.span_len)]
    cells = np.array([_emitter_cell(e, x)
                      + (_emitter_cell(e, x + 1) if x + 1 < e.span_len else dead)
                      + (_emitter_cell(e, x - 1) if x >= 1 else dead)
                      for e, x in slots], dtype=np.int16).reshape(-1, 6)
    offset = np.array([x for _, x in slots])
    period = np.array([e.period for e, _ in slots])
    phase = np.array([e.phase for e, _ in slots])
    t = np.arange(horizon + 1).reshape(-1, 1)
    flying = (t >= offset) & ((t - offset - phase) % period == 0)
    t, slot = np.nonzero(flying)
    rows = np.column_stack((t.astype(np.int16), cells[slot]))
    rows.setflags(write=False)
    return rows


def _line_runs(free_line: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs (start, length) of free cells along one grid line."""
    runs = []
    start = None
    for i, f in enumerate(free_line):
        if f and start is None:
            start = i
        elif not f and start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, len(free_line) - start))
    return runs


def _dodge_safe_policy_exists(level: LevelSpec) -> bool:
    """Forward reach-set check: can the agent provably avoid all collisions?

    A blocked move has the same effect as staying, so the transitions reduce
    to stay plus the four unblocked moves. A move also dies when it swaps
    cells with a projectile moving the opposite way. Each board is a 256-bit
    int with bit ``r * 16 + c`` for cell (r, c), so a step is a few int ops
    where numpy's fixed cost per call dominated on 16x16 grids. A one-column
    shift is masked so it cannot carry column 15 of one row into column 0 of
    the next, or back.
    """
    codes = level.codes
    if codes[0][level.agent_start] & HAZARD:
        return False
    horizon = level.horizon
    survive = (codes[1:] & HAZARD) == 0                 # no projectile at t + 1
    enter = [survive & ~level.walls & ((codes[:-1] & _SWAP_BITS[a]) == 0)
             for a in range(4)]
    # a 32-byte board per step: stay, then entered by up, down, left, right
    raw = np.packbits(np.stack([survive] + enter).reshape(5 * horizon, GRID * GRID),
                      axis=1, bitorder="little").tobytes()
    from_bytes = int.from_bytes             # looked up once, not per board
    boards = [from_bytes(raw[i:i + 32], "little") for i in range(0, len(raw), 32)]
    stay, up, down, left, right = (boards[a * horizon:(a + 1) * horizon] for a in range(5))
    reach = 1 << (level.agent_start[0] * GRID + level.agent_start[1])
    for t in range(horizon):
        # a move by DELTAS[a] enters cell (r, c) from (r - dr, c - dc)
        reach = ((reach & stay[t]) | (reach >> GRID & up[t]) | (reach << GRID & down[t])
                 | (reach >> 1 & _NOT_COL15 & left[t]) | (reach << 1 & _NOT_COL0 & right[t]))
        if not reach:
            return False
    return True


def _generate_dodge(seed: int) -> LevelSpec:
    for attempt in range(64):
        ss = np.random.SeedSequence(entropy=(seed & 0xFFFFFFFFFFFFFFFF),
                                    spawn_key=(0xD0D6E, attempt))
        rng = np.random.default_rng(ss)
        walls = np.zeros((GRID, GRID), dtype=bool)
        walls[0, :] = walls[-1, :] = walls[:, 0] = walls[:, -1] = True
        palette = int(rng.integers(0, N_PALETTES))

        n_blocks = int(rng.integers(0, 7))
        for _ in range(n_blocks):
            r = int(rng.integers(2, GRID - 2))
            c = int(rng.integers(2, GRID - 2))
            walls[r, c] = True

        free = ~walls
        open_cells = [tuple(cell) for cell in np.argwhere(free).tolist()]
        rng.shuffle(open_cells)
        # spawn away from the border so there is room to dodge from step one
        interior = [c for c in open_cells if 3 <= c[0] <= 12 and 3 <= c[1] <= 12]
        if not interior:
            continue
        start = interior[0]

        # emitter lines stay close to the spawn so projectiles actually
        # threaten the agent; both axes are used
        emitters = []
        n_emit = int(rng.integers(2, 5))
        guard = 0
        while len(emitters) < n_emit and guard < 100:
            guard += 1
            axis = int(rng.integers(0, 2))
            anchor = start[0] if axis == 0 else start[1]
            line = int(np.clip(anchor + int(rng.integers(-3, 4)), 1, GRID - 2))
            if any(e.axis == axis and e.line == line for e in emitters):
                continue
            line_cells = free[line, :] if axis == 0 else free[:, line]
            runs = [run for run in _line_runs(line_cells) if run[1] >= 6]
            if not runs:
                continue
            span_start, span_len = max(runs, key=lambda run: run[1])
            period = int(rng.integers(4, 8))
            phase = int(rng.integers(0, period))
            direction = 1 if rng.random() < 0.5 else -1
            emitters.append(Emitter(axis, line, span_start, span_len,
                                    period, phase, direction))
        if len(emitters) < 2:
            continue
        item = None
        for cell in open_cells:
            if cell != start and abs(cell[0] - start[0]) + abs(cell[1] - start[1]) >= 6:
                item = cell
                break
        if item is None:
            continue
        emitters = tuple(emitters)
        walls.setflags(write=False)
        level = LevelSpec(kind=KIND_DODGE, seed=seed, walls=walls, agent_start=start,
                          palette=palette, horizon=DODGE_HORIZON, emitters=emitters,
                          item=item, hazards=_hazard_tables(emitters, DODGE_HORIZON))
        if _dodge_safe_policy_exists(level):
            return level
    raise RuntimeError(f"could not generate a valid DodgeGrid level for seed {seed}")


def _generate_maze(seed: int) -> LevelSpec:
    ss = np.random.SeedSequence(entropy=(seed & 0xFFFFFFFFFFFFFFFF), spawn_key=(0xA7E,))
    rng = np.random.default_rng(ss)
    palette = int(rng.integers(0, N_PALETTES))

    visited = np.zeros((MAZE_CELLS, MAZE_CELLS), dtype=bool)
    open_h = np.zeros((MAZE_CELLS, MAZE_CELLS - 1), dtype=bool)   # (r,c)-(r,c+1)
    open_v = np.zeros((MAZE_CELLS - 1, MAZE_CELLS), dtype=bool)   # (r,c)-(r+1,c)
    start_cell = (int(rng.integers(0, MAZE_CELLS)), int(rng.integers(0, MAZE_CELLS)))
    stack = [start_cell]
    visited[start_cell] = True
    while stack:
        r, c = stack[-1]
        options = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < MAZE_CELLS and 0 <= nc < MAZE_CELLS and not visited[nr, nc]:
                options.append((nr, nc))
        if not options:
            stack.pop()
            continue
        nr, nc = options[int(rng.integers(0, len(options)))]
        if nr == r:
            open_h[r, min(c, nc)] = True
        else:
            open_v[min(r, nr), c] = True
        visited[nr, nc] = True
        stack.append((nr, nc))

    # cell (r, c) is grid square (2r+1, 2c+1); an open passage clears the square between
    walls = np.ones((GRID, GRID), dtype=bool)
    walls[1:2 * MAZE_CELLS:2, 1:2 * MAZE_CELLS:2] = False
    walls[1:2 * MAZE_CELLS:2, 2:2 * MAZE_CELLS - 1:2][open_h] = False
    walls[2:2 * MAZE_CELLS - 1:2, 1:2 * MAZE_CELLS:2][open_v] = False

    agent_cell = (int(rng.integers(0, MAZE_CELLS)), int(rng.integers(0, MAZE_CELLS)))
    dists = maze_cell_distances(open_h, open_v, agent_cell)
    item_cell = tuple(int(v) for v in np.unravel_index(np.argmax(dists), dists.shape))

    walls.setflags(write=False)
    return LevelSpec(kind=KIND_MAZE, seed=seed, walls=walls,
                     agent_start=(2 * agent_cell[0] + 1, 2 * agent_cell[1] + 1),
                     palette=palette, horizon=MAZE_HORIZON,
                     item=(2 * item_cell[0] + 1, 2 * item_cell[1] + 1))


def maze_cell_distances(open_h: np.ndarray, open_v: np.ndarray,
                        source: tuple[int, int]) -> np.ndarray:
    """BFS distances over maze cells from a source cell."""
    dist = np.full((MAZE_CELLS, MAZE_CELLS), -1, dtype=np.int32)
    dist[source] = 0
    queue = [source]
    while queue:
        r, c = queue.pop(0)
        moves = []
        if c + 1 < MAZE_CELLS and open_h[r, c]:
            moves.append((r, c + 1))
        if c - 1 >= 0 and open_h[r, c - 1]:
            moves.append((r, c - 1))
        if r + 1 < MAZE_CELLS and open_v[r, c]:
            moves.append((r + 1, c))
        if r - 1 >= 0 and open_v[r - 1, c]:
            moves.append((r - 1, c))
        for nxt in moves:
            if dist[nxt] < 0:
                dist[nxt] = dist[r, c] + 1
                queue.append(nxt)
    return dist


@lru_cache(maxsize=4096)
def generate_level(kind: str, seed: int) -> LevelSpec:
    """Deterministically expand (kind, seed) into a level layout."""
    if kind == KIND_DODGE:
        return _generate_dodge(int(seed))
    if kind == KIND_MAZE:
        return _generate_maze(int(seed))
    raise ConfigError(f"unknown environment kind {kind!r}")


def reset(level: LevelSpec) -> EnvState:
    return EnvState(level=level, pos=level.agent_start, t=0, done=False)


def step(state: EnvState, action: int) -> tuple[EnvState, float, bool]:
    """Advance one step. Moves into walls are no-ops."""
    if state.done:
        raise UsageError("step() called on a terminated episode")
    if not 0 <= action < N_ACTIONS:
        raise UsageError(f"action must be in [0, {N_ACTIONS}), got {action}")
    level = state.level
    stride, tick, _ = _RULES[level.kind]
    dr, dc = DELTAS[action]
    r, c = state.pos
    t2 = state.t + 1
    # the pixel beside the agent blocks a move; a maze move crosses it to the next cell
    blocked = level.walls[r + dr, c + dc]
    new_pos = state.pos if blocked else (r + stride * dr, c + stride * dc)
    if new_pos == level.item:
        return EnvState(level, new_pos, t2, True), GOAL_REWARD, True
    codes = level.codes
    if codes is not None:
        nr, nc = new_pos
        if codes[t2, nr, nc] & HAZARD or \
                not blocked and codes[state.t, nr, nc] & _SWAP_BITS[action]:
            return EnvState(level, new_pos, t2, True), 0.0, True
    done = t2 >= level.horizon
    return EnvState(level, new_pos, t2, done), tick, done


def obs_codes(state: EnvState) -> np.ndarray:
    """(16, 16) uint8 observation codes of ``state`` (module docstring)."""
    level = state.level
    if level.codes is not None:
        codes = level.base_codes | (level.codes[state.t] & SHADE) << SHADE_SHIFT
    else:
        codes = level.base_codes.copy()
    codes[state.pos] |= AGENT_BIT
    return codes


@lru_cache(maxsize=None)
def _decode_table(dtype) -> np.ndarray:
    """(4, 256) read-only table: channel values of every observation code."""
    code = np.arange(256)
    table = np.stack([code & WALL_BIT, (code & AGENT_BIT) >> 1,
                      np.array(SHADES)[code >> SHADE_SHIFT & SHADE],
                      0.15 + 0.8 * (code >> PALETTE_SHIFT) / (N_PALETTES - 1)]).astype(dtype)
    table.setflags(write=False)
    return table


def decode_obs(codes: np.ndarray) -> np.ndarray:
    """(..., 4, 16, 16) working-dtype frames of (..., 16, 16) observation codes,
    a view over a (4, ..., 16, 16) array."""
    frames = np.take(_decode_table(ad.get_default_dtype()), codes, axis=1)
    return np.moveaxis(frames, 0, -3)


def render_obs(state: EnvState) -> np.ndarray:
    """(4, 16, 16) working-dtype observation: walls, agent, item and hazards, palette tint."""
    return decode_obs(obs_codes(state))


def check_split_sizes(n_train: int, n_test: int) -> None:
    """``ConfigError`` unless the train seeds [0, n_train) stay below the test
    range [TEST_SEED_BASE, TEST_SEED_BASE + TEST_SEED_SPAN) and it holds n_test."""
    if not 1 <= n_train <= TEST_SEED_BASE:
        raise ConfigError(f"n_train_levels must lie in [1, {TEST_SEED_BASE}], got {n_train}")
    if not 1 <= n_test <= TEST_SEED_SPAN:
        raise ConfigError(f"n_test_levels must lie in [1, {TEST_SEED_SPAN}], got {n_test}")


def make_split(kind: str, n_train: int, n_test: int) -> tuple[list[int], list[int]]:
    """Disjoint train/test level seeds: [0, n_train) vs draws from [1e6, 1e6+1e4)."""
    if kind not in KINDS:
        raise ConfigError(f"unknown environment kind {kind!r}")
    check_split_sizes(n_train, n_test)
    train = list(range(n_train))
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=_SPLIT_ENTROPY, spawn_key=(zlib.crc32(kind.encode("utf-8")),)))
    draws = rng.choice(TEST_SEED_SPAN, size=n_test, replace=False)
    test = sorted(int(TEST_SEED_BASE + d) for d in draws)
    return train, test


_PALETTE_RGB = [
    (40, 42, 54), (68, 71, 90), (98, 114, 164), (80, 250, 123), (255, 184, 108),
    (255, 121, 198), (139, 233, 253), (241, 250, 140), (189, 147, 249), (255, 85, 85),
]


def render_ppm(state: EnvState, path) -> None:
    """Export the current frame as a binary portable pixmap (P6)."""
    level = state.level
    img = np.zeros((GRID, GRID, 3), dtype=np.uint8)
    bg = _PALETTE_RGB[level.palette % len(_PALETTE_RGB)]
    img[:, :] = [max(8, v // 3) for v in bg]
    img[level.walls] = (200, 200, 200)
    if level.codes is not None:
        img[(level.codes[state.t] & HAZARD) != 0] = (230, 60, 60)
    img[level.item] = (250, 220, 60)
    img[state.pos] = (80, 240, 120)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{GRID} {GRID}\n255\n".encode("ascii"))
        fh.write(img.tobytes())

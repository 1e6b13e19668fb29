import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smap import autodiff as ad
from smap import envs, oracles
from smap.envs import (DELTAS, GRID, KIND_DODGE, KIND_MAZE, RETURN_BOUNDS,
                       Emitter, EnvState, LevelSpec, generate_level, make_split,
                       render_obs, render_ppm, reset, step)
from smap.errors import ConfigError, UsageError


def test_layouts_are_deterministic():
    for kind in envs.KINDS:
        a = envs._generate_dodge(3) if kind == KIND_DODGE else envs._generate_maze(3)
        b = envs._generate_dodge(3) if kind == KIND_DODGE else envs._generate_maze(3)
        assert np.array_equal(a.walls, b.walls)
        assert a.agent_start == b.agent_start
        assert a.palette == b.palette
        assert a.item == b.item


def test_dodge_layout_contract():
    for seed in range(25):
        level = generate_level(KIND_DODGE, seed)
        assert 2 <= len(level.emitters) <= 4
        assert not level.walls[level.agent_start]
        assert not level.walls[level.item]
        dist = abs(level.item[0] - level.agent_start[0]) + \
            abs(level.item[1] - level.agent_start[1])
        assert dist >= 6
        assert oracles.dodge_survives_horizon(level)


def test_maze_seed0_has_unique_path():
    level = generate_level(KIND_MAZE, 0)
    assert oracles.maze_count_simple_paths(level) == 1


def test_maze_levels_are_perfect():
    for seed in range(12):
        assert oracles.maze_count_simple_paths(generate_level(KIND_MAZE, seed)) == 1


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        generate_level("Nope", 0)


def test_dodge_survival_tick():
    level = generate_level(KIND_DODGE, 0)
    state = reset(level)
    # find a stay step that survives (validator guarantees survivability,
    # not that stay survives; try one step)
    nxt, reward, done = step(state, 4)
    if not done:
        assert reward == envs.TICK_REWARD


def test_move_into_wall_is_noop():
    level = generate_level(KIND_DODGE, 0)
    state = EnvState(level=level, pos=(1, 1), t=0, done=False)
    # up and left from (1,1) hit the border
    for action in (0, 2):
        nxt, _, _ = step(state, action)
        assert nxt.pos == (1, 1)


def test_dodge_collect_gives_ten_and_done():
    level = generate_level(KIND_DODGE, 0)
    r, c = level.item
    state = EnvState(level=level, pos=(r, c - 1), t=20, done=False)
    nxt, reward, done = step(state, 3)      # move right onto the item
    assert reward == envs.GOAL_REWARD and done and nxt.done


def test_maze_goal_gives_ten_and_done():
    level = generate_level(KIND_MAZE, 0)
    gr, gc = level.item
    # find an open neighbor cell two pixels away with an open passage
    for action, (dr, dc) in enumerate(envs.DELTAS[:4]):
        pr, pc = gr - 2 * dr, gc - 2 * dc
        if 0 < pr < 15 and 0 < pc < 15 and not level.walls[pr, pc] \
                and not level.walls[gr - dr, gc - dc]:
            state = EnvState(level=level, pos=(pr, pc), t=0, done=False)
            nxt, reward, done = step(state, action)
            assert reward == envs.GOAL_REWARD and done
            return
    pytest.fail("no open neighbor next to the goal")


def test_step_after_done_raises():
    level = generate_level(KIND_MAZE, 0)
    state = EnvState(level=level, pos=level.agent_start, t=5, done=True)
    with pytest.raises(UsageError):
        step(state, 0)


def _play_to_the_end(state, policy):
    """Step ``policy(state)`` until done; the final state and last reward."""
    while True:
        state, reward, done = step(state, policy(state))
        assert done == state.done
        if done:
            return state, reward
        assert state.t < state.level.horizon


def test_horizon_terminates():
    """An episode that neither collects the item nor dies ends at exactly
    t == horizon, on the kind's tick: MazeGrid staying put, and DodgeGrid
    without its item (moved onto the border wall at (0, 0)), playing the
    oracle's greedy survival actions."""
    for seed in (1, 2):
        maze = generate_level(KIND_MAZE, seed)
        state, reward = _play_to_the_end(reset(maze), lambda s: 4)
        assert state.t == maze.horizon == envs.MAZE_HORIZON and reward == 0.0
        no_item = replace(generate_level(KIND_DODGE, seed), item=(0, 0))
        q, _ = oracles.dodge_q_values(no_item)
        state, reward = _play_to_the_end(reset(no_item), lambda s: int(
            q[s.t, :, s.pos[0], s.pos[1]].argmax()))
        assert state.t == no_item.horizon == envs.DODGE_HORIZON
        assert reward == envs.TICK_REWARD


def test_return_bounds():
    assert RETURN_BOUNDS == {KIND_DODGE: (0.0, 22.700000000000003), KIND_MAZE: (0.0, 10.0)}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 40), st.integers(0, 2 ** 16))
def test_episode_returns_within_bounds(seed, policy_bits):
    rng = np.random.default_rng(policy_bits)
    for kind in envs.KINDS:
        level = generate_level(kind, seed)
        state = reset(level)
        total = 0.0
        while not state.done:
            state, r, _ = step(state, int(rng.integers(0, 5)))
            total += r
        lo, hi = RETURN_BOUNDS[kind]
        assert lo <= total <= hi + 1e-9
        if kind == KIND_MAZE:
            assert total in (0.0, 10.0)


def test_obs_contract():
    for kind in envs.KINDS:
        level = generate_level(kind, 2)
        obs = render_obs(reset(level))
        assert obs.shape == (4, 16, 16)
        assert obs.min() >= 0.0 and obs.max() <= 1.0
        assert (obs[1] > 0).sum() == 1


def test_obs_palette_varies_by_level():
    tints = {render_obs(reset(generate_level(KIND_DODGE, s)))[3, 0, 0]
             for s in range(10)}
    assert len(tints) > 3


def test_make_split_defaults_disjoint():
    train, test = make_split(KIND_DODGE, 20, 20)
    assert len(train) == 20 and len(test) == 20
    assert not set(train) & set(test)
    assert all(s >= envs.TEST_SEED_BASE for s in test)


def test_make_split_single_train_seed():
    train, _ = make_split(KIND_MAZE, 1, 1)
    assert train == [0]


def test_make_split_always_disjoint():
    for kind in envs.KINDS:
        for n in (1, 7, 200):
            train, test = make_split(kind, n, 100)
            assert not set(train) & set(test)


@pytest.mark.parametrize("n_train,n_test", [
    (envs.TEST_SEED_BASE + envs.TEST_SEED_SPAN, 5),
    (envs.TEST_SEED_BASE + 1, 1),
    (1, envs.TEST_SEED_SPAN + 1),
], ids=["train_covers_test_range", "train_reaches_test_base", "test_beyond_its_range"])
def test_make_split_rejects_sizes_that_would_overlap(n_train, n_test):
    """Train seeds [0, n_train) must stay below the test range, and the test
    range must hold n_test distinct seeds."""
    with pytest.raises(ConfigError, match="levels must lie in"):
        make_split(KIND_DODGE, n_train, n_test)


def test_split_size_bounds_are_inclusive():
    envs.check_split_sizes(envs.TEST_SEED_BASE, envs.TEST_SEED_SPAN)
    train, test = make_split(KIND_MAZE, 3, envs.TEST_SEED_SPAN)
    assert test == list(range(envs.TEST_SEED_BASE, envs.TEST_SEED_BASE + envs.TEST_SEED_SPAN))


def test_dodge_optimal_policy_matches_dp_value():
    for seed in range(3):
        level = generate_level(KIND_DODGE, seed)
        dp_value = oracles.dodge_q_values(level)[1][0][level.agent_start]
        rollout = oracles.dodge_rollout_optimal(level)
        assert abs(dp_value - rollout) < 1e-9


def test_dodge_upper_return_bound_is_reached():
    """The optimal policy collects the item, which ends the episode before
    the last tick, and earns exactly the upper bound."""
    hi = RETURN_BOUNDS[KIND_DODGE][1]
    for seed in range(5):
        assert abs(oracles.dodge_rollout_optimal(generate_level(KIND_DODGE, seed)) - hi) < 1e-9


def test_dodge_is_sparse_dependent():
    fractions = []
    for seed in range(2):
        level = generate_level(KIND_DODGE, seed)
        fractions.append(oracles.dodge_sparse_dependence_fraction(
            level, sample=120, rng=np.random.default_rng(seed)))
    assert np.mean(fractions) >= 0.90


def test_maze_is_dense_dependent():
    fracs = {q: [] for q in range(4)}
    for seed in range(8):
        level = generate_level(KIND_MAZE, seed)
        for q in range(4):
            fracs[q].append(oracles.maze_dense_dependence_fraction(level, q))
    for q in range(4):
        assert np.mean(fracs[q]) >= 0.30


def test_render_ppm(tmp_path):
    """Level 3 of each kind, rendered at reset and after each of four steps,
    writes pinned bytes."""
    path = tmp_path / "level.ppm"
    digest = hashlib.sha256()
    for kind in envs.KINDS:
        state = reset(generate_level(kind, 3))
        for action in (None, 0, 3, 2, 4):
            if action is not None:
                state = step(state, action)[0]
            render_ppm(state, path)
            data = path.read_bytes()
            assert data.startswith(b"P6\n16 16\n255\n")
            assert len(data) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3
            digest.update(data)
    assert digest.hexdigest() == \
        "9aba3aeca101bfd1839db738ebad07d4996b11717704ff1add190d7e4c54c820"


def test_item_is_what_stays_and_hazards_are_what_moves():
    """Every level has an item and no second goal field; ``base_codes`` marks
    the item at shade 3, and ``codes`` holds only projectiles and trails."""
    assert "goal" not in {f.name for f in fields(LevelSpec)}
    item_shade = envs.SHADE << envs.SHADE_SHIFT
    for kind in envs.KINDS:
        for seed in range(10):
            level = generate_level(kind, seed)
            assert not level.walls[level.item] and level.item != level.agent_start
            assert level.base_codes[level.item] & item_shade == item_shade
            if level.codes is None:
                continue
            r, c = level.item
            hit = level.hazards[((level.hazards[:, 1] == r) & (level.hazards[:, 2] == c))
                                | ((level.hazards[:, 5] == r) & (level.hazards[:, 6] == c))]
            lit = np.zeros(level.horizon + 1, dtype=bool)
            lit[hit[:, 0]] = True
            assert not np.any(level.codes[~lit, r, c] & envs.SHADE)
            assert np.array_equal(replace(level, item=(1, 1)).codes, level.codes)


# ---------------------------------------------------------------------------
# reference: the per-projectile implementations the level tables replaced


def _ref_hazard_tables(emitters, horizon):
    rows = []
    dead = (-1, -1)
    for t in range(horizon + 1):
        for e in emitters:
            for x in range(e.span_len):
                if t - x >= 0 and (t - x - e.phase) % e.period == 0:
                    rows.append((t,) + envs._emitter_cell(e, x)
                                + (envs._emitter_cell(e, x + 1) if x + 1 < e.span_len else dead)
                                + (envs._emitter_cell(e, x - 1) if x - 1 >= 0 else dead))
    return np.array(rows, dtype=np.int16).reshape(-1, 7)


def _frame(hazards, t):
    """(cells, next cells, trail cells) of the projectiles in flight at t."""
    rows = hazards[hazards[:, 0] == t]
    return rows[:, 1:3], rows[:, 3:5], rows[:, 5:7]


def _ref_shift(grid, dr, dc):
    out = np.zeros_like(grid)
    out[max(0, dr):GRID + min(0, dr), max(0, dc):GRID + min(0, dc)] = \
        grid[max(0, -dr):GRID + min(0, -dr), max(0, -dc):GRID + min(0, -dc)]
    return out


def _ref_safe_policy_exists(walls, hazards, start, horizon):
    free = ~walls
    if any(tuple(p) == start for p in _frame(hazards, 0)[0]):
        return False
    reach = np.zeros_like(free)
    reach[start] = True
    for t in range(horizon):
        cur, nxt, _ = _frame(hazards, t)
        occ2 = np.zeros_like(free)
        at2 = _frame(hazards, t + 1)[0]
        occ2[at2[:, 0], at2[:, 1]] = True
        new_reach = reach & ~occ2
        for dr, dc in DELTAS[:4]:
            tgt = _ref_shift(reach, dr, dc) & free
            for j in range(cur.shape[0]):
                p, q = tuple(cur[j]), tuple(nxt[j])
                if q != (-1, -1) and (p[0] - q[0], p[1] - q[1]) == (dr, dc) and reach[q]:
                    tgt[p] = False
            new_reach |= tgt & ~occ2
        reach = new_reach
        if not reach.any():
            return False
    return True


def _ref_step(state, action):
    level = state.level
    dr, dc = DELTAS[action]
    r, c = state.pos
    if level.kind == KIND_MAZE:
        between = (r + dr, c + dc)
        target = (r + 2 * dr, c + 2 * dc)
        new_pos = state.pos if (dr, dc) == (0, 0) or level.walls[between] else target
    else:
        target = (r + dr, c + dc)
        new_pos = state.pos if level.walls[target] else target
    t2 = state.t + 1

    if level.kind == KIND_DODGE:
        if new_pos == level.item:
            return replace(state, pos=new_pos, t=t2, done=True), envs.GOAL_REWARD, True
        cur, nxt, _ = _frame(level.hazards, state.t)
        at2 = _frame(level.hazards, t2)[0]
        hit = any(tuple(p) == new_pos for p in at2)
        if not hit:
            for j in range(cur.shape[0]):
                if tuple(cur[j]) == new_pos and tuple(nxt[j]) == state.pos:
                    hit = True
                    break
        if hit:
            return replace(state, pos=new_pos, t=t2, done=True), 0.0, True
        done = t2 >= level.horizon
        return replace(state, pos=new_pos, t=t2, done=done), envs.TICK_REWARD, done

    if new_pos == level.item:
        return replace(state, pos=new_pos, t=t2, done=True), envs.GOAL_REWARD, True
    done = t2 >= level.horizon
    return replace(state, pos=new_pos, t=t2, done=done), 0.0, done


def _ref_render_obs(state, dtype):
    level = state.level
    obs = np.zeros((4, GRID, GRID), dtype=dtype)
    obs[0][level.walls] = 1.0
    obs[1][state.pos] = 1.0
    if level.kind == KIND_DODGE:
        obs[2][level.item] = 1.0
        cur, _, trail = _frame(level.hazards, state.t)
        for j in range(trail.shape[0]):
            cell = tuple(trail[j])
            if cell != (-1, -1) and not level.walls[cell]:
                obs[2][cell] = max(obs[2][cell], 0.3)
        for j in range(cur.shape[0]):
            cell = tuple(cur[j])
            obs[2][cell] = max(obs[2][cell], 0.6)
    else:
        obs[2][level.item] = 1.0
    obs[3][:] = 0.15 + 0.8 * level.palette / (envs.N_PALETTES - 1)
    return obs


def _assert_same_obs(state):
    for dtype in (np.float32, np.float64):
        with ad.precision(dtype):
            got = render_obs(state)
        want = _ref_render_obs(state, dtype)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_decoded_codes_equal_the_reference_render(dtype):
    """Random walks on 12 levels per kind: the codes of every visited state,
    decoded as one batch, equal the reference frames byte for byte."""
    rng = np.random.default_rng(17)
    states = []
    for kind in envs.KINDS:
        for seed in range(12):
            state = reset(generate_level(kind, seed))
            while not state.done and state.t < 64:
                states.append(state)
                state = step(state, int(rng.integers(0, envs.N_ACTIONS)))[0]
            states.append(state)
    codes = np.stack([envs.obs_codes(s) for s in states])
    assert codes.dtype == np.uint8 and codes.shape == (len(states), GRID, GRID)
    with ad.precision(dtype):
        got = envs.decode_obs(codes)
    want = np.stack([_ref_render_obs(s, dtype) for s in states])
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_same_step(state, action):
    got, want = step(state, action), _ref_step(state, action)
    assert (got[0].pos, got[0].t, got[0].done) == (want[0].pos, want[0].t, want[0].done)
    assert got[1:] == want[1:]
    return got


def _run_against_reference(state, rng):
    """Random actions to termination, comparing every step and frame."""
    _assert_same_obs(state)
    while not state.done:
        state, _, _ = _assert_same_step(state, int(rng.integers(0, envs.N_ACTIONS)))
        _assert_same_obs(state)


@pytest.mark.parametrize("kind,n_train,n_test", [(KIND_DODGE, 60, 40), (KIND_MAZE, 10, 10)])
def test_step_and_render_match_reference(kind, n_train, n_test):
    train, test = make_split(kind, n_train, n_test)
    for seed in train + test:
        _run_against_reference(reset(generate_level(kind, seed)), np.random.default_rng(seed))


def test_hazard_tables_match_reference():
    for seed in list(range(20)) + [envs.TEST_SEED_BASE + 7]:
        level = generate_level(KIND_DODGE, seed)
        got = envs._hazard_tables(level.emitters, level.horizon)
        want = _ref_hazard_tables(level.emitters, level.horizon)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert 0 <= got[:, 0].min() and got[:, 0].max() == level.horizon


def _arena(extra_walls=()):
    walls = np.zeros((GRID, GRID), dtype=bool)
    walls[0, :] = walls[-1, :] = walls[:, 0] = walls[:, -1] = True
    for cell in extra_walls:
        walls[cell] = True
    return walls


def _handmade(flights, start, item=(12, 12), walls=None, horizon=4):
    """A DodgeGrid spec from {t: [(cell, next cell, trail cell), ...]}."""
    hazards = np.array([(t,) + cur + nxt + trail for t in sorted(flights)
                        for cur, nxt, trail in flights[t]], dtype=np.int16).reshape(-1, 7)
    hazards.setflags(write=False)
    return LevelSpec(kind=KIND_DODGE, seed=0, walls=_arena() if walls is None else walls,
                     agent_start=start, palette=4, horizon=horizon, item=item,
                     hazards=hazards)


def test_swap_collision():
    # the projectile goes (5, 6) -> (5, 5) while the agent goes (5, 5) -> (5, 6)
    level = _handmade({0: [((5, 6), (5, 5), (5, 7))], 1: [((5, 5), (5, 4), (5, 6))]},
                      start=(5, 5))
    _, reward, done = _assert_same_step(reset(level), 3)
    assert done and reward == 0.0
    _, reward, done = _assert_same_step(reset(level), 4)      # stay: hit in place
    assert done and reward == 0.0
    _, reward, done = _assert_same_step(reset(level), 0)      # up: dodged
    assert not done and reward == envs.TICK_REWARD


def test_projectile_on_item_item_wins():
    level = _handmade({0: [((5, 7), (5, 6), (5, 8))], 1: [((5, 6), (5, 5), (5, 7))]},
                      start=(5, 5), item=(5, 6))
    state, reward, done = _assert_same_step(reset(level), 3)
    assert done and reward == envs.GOAL_REWARD
    _assert_same_obs(state)
    assert render_obs(state)[2][5, 6] == 1.0


def test_trail_over_wall_is_not_drawn():
    level = _handmade({0: [((5, 7), (5, 6), (5, 8)), ((7, 7), (7, 6), (7, 8))]},
                      start=(10, 10), walls=_arena([(5, 8)]))
    _assert_same_obs(reset(level))
    with ad.precision(np.float64):
        obs = render_obs(reset(level))
    assert obs[2][5, 8] == 0.0 and obs[0][5, 8] == 1.0
    assert obs[2][7, 8] == 0.3 and obs[2][5, 7] == obs[2][7, 7] == 0.6


def test_two_projectiles_on_one_cell():
    # both sit on (6, 6): one moves up, one moves right
    level = _handmade({0: [((6, 6), (5, 6), (7, 6)), ((6, 6), (6, 7), (6, 5))],
                       1: [((5, 6), (4, 6), (6, 6)), ((6, 7), (6, 8), (6, 6))]},
                      start=(5, 6))
    for pos, action, hit in (((5, 6), 1, True), ((6, 7), 2, True), ((7, 6), 0, False)):
        state = EnvState(level=level, pos=pos, t=0, done=False)
        _assert_same_obs(state)
        _, reward, done = _assert_same_step(state, action)
        assert done == hit and reward == (0.0 if hit else envs.TICK_REWARD)
    assert level.codes[0][6, 6] == 2 | envs.HAZARD | envs.MOVE_BITS[0] | envs.MOVE_BITS[3]


def test_blocked_move_and_stay_do_not_swap():
    # a projectile leaves the agent's own cell opposite to the blocked move
    level = _handmade({0: [((5, 5), (5, 4), (5, 6))], 1: [((5, 4), (5, 3), (5, 5))]},
                      start=(5, 5), walls=_arena([(5, 6)]))
    for action in (3, 4):
        state, reward, done = _assert_same_step(reset(level), action)
        assert state.pos == (5, 5) and not done and reward == envs.TICK_REWARD


def test_blanked_level_renders_and_steps_like_reference():
    level = generate_level(KIND_DODGE, 0)
    rng = np.random.default_rng(0)
    states = oracles.dodge_reachable_states(level, max_t=level.horizon - 2)
    for i in rng.choice(len(states), size=6, replace=False):
        pos, t = states[i]
        blanked = oracles.blanked_level(level, pos, t)
        _run_against_reference(EnvState(level=blanked, pos=pos, t=t, done=False), rng)


def test_blanked_projectile_stops_at_first_wall():
    # the projectile at (7, 7) flies left into the interior wall at (7, 5),
    # which lies inside the window and so remains
    level = generate_level(KIND_DODGE, 4)
    blanked = oracles.blanked_level(level, (7, 7), 18)
    assert blanked.walls[7, 5]
    cells = [{tuple(map(int, c)) for c in _frame(blanked.hazards, s)[0]} for s in range(18, 23)]
    assert (7, 7) in cells[0] and (7, 6) in cells[1]
    assert not any(c[0] == 7 and c[1] < 6 for frame in cells[2:] for c in frame)


def _random_candidate(rng):
    """A one-cell-wide corridor with dead-end side passages, each swept by a
    projectile stream: unsafe far more often than a generated level."""
    walls = np.ones((GRID, GRID), dtype=bool)
    walls[5, 1:GRID - 1] = False
    period = int(rng.integers(4, 160))
    emitters = [Emitter(0, 5, 1, GRID - 2, period, int(rng.integers(0, period)),
                        int(rng.choice([-1, 1])))]
    for col in rng.choice(np.arange(1, GRID - 1), size=int(rng.integers(0, 3)), replace=False):
        walls[2:5, col] = False
        period = int(rng.integers(2, 6))
        emitters.append(Emitter(1, int(col), 2, 4, period, int(rng.integers(0, period)), 1))
    return LevelSpec(kind=KIND_DODGE, seed=0, walls=walls,
                     agent_start=(5, int(rng.integers(1, GRID - 1))), palette=0,
                     horizon=envs.DODGE_HORIZON, emitters=tuple(emitters), item=(5, 1),
                     hazards=_ref_hazard_tables(tuple(emitters), envs.DODGE_HORIZON))


def _row_wrap_level(row, col, direction):
    """Three open cells: two on ``row`` at the grid's edge, swept from the
    start cell (row, col) every other step, and the start's neighbour in
    row-major order across the row boundary. Only a move that wraps a row
    would escape, so no safe policy exists."""
    edge = (row, 14 if col == 15 else 1)
    other = (row + 1, 0) if col == 15 else (row - 1, 15)
    walls = np.ones((GRID, GRID), dtype=bool)
    for cell in ((row, col), edge, other):
        walls[cell] = False
    emitters = (Emitter(0, row, min(col, edge[1]), 2, 2, 1, direction),)
    return LevelSpec(kind=KIND_DODGE, seed=0, walls=walls, agent_start=(row, col),
                     palette=0, horizon=16, emitters=emitters, item=other,
                     hazards=_ref_hazard_tables(emitters, 16))


def test_safe_policy_check_matches_reference():
    rng = np.random.default_rng(5)
    candidates = [_random_candidate(rng) for _ in range(40)]
    candidates += [generate_level(KIND_DODGE, s) for s in range(5)]
    # a projectile on the start cell at t = 0, gone from then on
    candidates.append(_handmade({0: [((5, 5), (5, 6), (-1, -1))]}, start=(5, 5)))
    candidates += [_row_wrap_level(5, 15, -1), _row_wrap_level(6, 0, 1)]
    verdicts = []
    for level in candidates:
        want = _ref_safe_policy_exists(level.walls, level.hazards, level.agent_start,
                                       level.horizon)
        assert envs._dodge_safe_policy_exists(level) == want
        verdicts.append(want)
    assert 5 <= sum(verdicts) <= len(verdicts) - 5     # both outcomes are exercised


def _trap_level():
    """A one-cell-wide corridor swept by projectiles: no policy survives."""
    walls = np.ones((GRID, GRID), dtype=bool)
    walls[5, 1:GRID - 1] = False
    emitters = (Emitter(axis=0, line=5, span_start=1, span_len=GRID - 2, period=20,
                        phase=0, direction=1),)
    return LevelSpec(kind=KIND_DODGE, seed=0, walls=walls, agent_start=(5, 7), palette=0,
                     horizon=envs.DODGE_HORIZON, emitters=emitters, item=(5, 3),
                     hazards=envs._hazard_tables(emitters, envs.DODGE_HORIZON))


def test_survival_dp_accepts_generated_and_rejects_trap():
    for seed in range(10):
        assert oracles.dodge_survives_horizon(generate_level(KIND_DODGE, seed))
    trap = _trap_level()
    assert not oracles.dodge_survives_horizon(trap)
    assert not envs._dodge_safe_policy_exists(trap)
    assert not _ref_safe_policy_exists(trap.walls, trap.hazards, trap.agent_start,
                                       trap.horizon)


def test_layouts_match_pinned_digest():
    digest = hashlib.sha256()
    for seed in range(200):
        level = generate_level(KIND_DODGE, seed)
        digest.update(level.walls.tobytes())
        digest.update(repr((level.agent_start, level.item, level.emitters,
                            level.palette)).encode())
    assert digest.hexdigest() == \
        "83994a15ac118002c2826be8d4e46b3871a7c4273a1b34ae13476e01a8ad0198"


def test_maze_layouts_match_pinned_digest():
    digest = hashlib.sha256()
    for seed in range(200):
        level = generate_level(KIND_MAZE, seed)
        digest.update(level.walls.tobytes())
        digest.update(repr((level.agent_start, level.item, level.palette)).encode())
    assert digest.hexdigest() == \
        "a0e28a6966347c677e84c7be220b8ad30564a8c5a1713247d989e99cff456aea"


def test_level_codes_match_pinned_digest():
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update(generate_level(KIND_DODGE, seed).codes.tobytes())
    assert digest.hexdigest() == \
        "4461a3fe16f2e57cf0b83a9dd7dc04f73f6d509c7893944bf9cb2e279fb0f696"
    # the held-out levels every evaluation runs on
    _, test_seeds = make_split(KIND_DODGE, 20, 20)
    assert min(test_seeds) >= envs.TEST_SEED_BASE
    digest = hashlib.sha256()
    for seed in test_seeds:
        level = generate_level(KIND_DODGE, seed)
        digest.update(level.codes.tobytes())
        digest.update(level.walls.tobytes())
        digest.update(repr((level.agent_start, level.item, level.emitters)).encode())
    assert digest.hexdigest() == \
        "659fa5ae994b7b3576b59f2ec3eab68f4a46d13294eeded8c9234a4e751c210c"


def test_dodge_oracle_matches_pinned_digest():
    digest = hashlib.sha256()
    for seed in range(20):
        digest.update(oracles.dodge_q_values(generate_level(KIND_DODGE, seed))[1].tobytes())
    digest.update(oracles.dodge_q_values(_trap_level())[1].tobytes())
    blanked = oracles.blanked_level(generate_level(KIND_DODGE, 4), (7, 7), 18)
    digest.update(oracles.dodge_q_values(blanked, start_t=18)[1].tobytes())
    assert digest.hexdigest() == \
        "6a90c291f61dd3a2ec30928ee71e8381f5836d5c41d626bbd8f01011f363027e"
    digest = hashlib.sha256()
    for seed in range(3):
        digest.update(repr(oracles.dodge_reachable_states(generate_level(KIND_DODGE, seed))).encode())
    assert digest.hexdigest() == \
        "d1c562716c27e0ef822fd90bce64a50401fea29fb049cfc3a629ff355862ca86"


def test_dodge_greedy_actions_match_pinned_digest():
    """The int64 greedy-action grid of every timestep, first maximum."""
    digest = hashlib.sha256()
    for seed in range(3):
        q, _ = oracles.dodge_q_values(generate_level(KIND_DODGE, seed))
        for t in range(q.shape[0]):
            digest.update(q[t].argmax(axis=0).astype(np.int64).tobytes())
    assert digest.hexdigest() == \
        "946ff8b9f71d7bfa32ea65c566dc7c5fcdf2235c9979e00501fdecaf943a208b"


def test_blanked_levels_match_pinned_digest():
    digest = hashlib.sha256()
    for seed in range(10):
        level = generate_level(KIND_DODGE, seed)
        states = oracles.dodge_reachable_states(level, level.horizon - 2)
        for i in np.random.default_rng(seed).choice(len(states), size=10, replace=False):
            pos, t = states[i]
            for radius in (1, 2, 3):
                blanked = oracles.blanked_level(level, pos, t, radius=radius)
                digest.update(blanked.hazards.tobytes())
                digest.update(blanked.walls.tobytes())
    assert digest.hexdigest() == \
        "fb7a77ef359a8ad3fda199238f256d02ba9db1b7760e9522fc7281f415b24e76"


def test_dodge_q_values_table():
    """values[t] is q[t].max(0) off the walls from start_t on; the rows
    before start_t, and values on walls and at the horizon, stay 0."""
    level = generate_level(KIND_DODGE, 5)
    start_t = 40
    q, values = oracles.dodge_q_values(level, start_t)
    assert q.shape == (level.horizon, len(DELTAS), GRID, GRID)
    assert values.shape == (level.horizon + 1, GRID, GRID)
    for t in range(start_t, level.horizon):
        assert np.array_equal(values[t][~level.walls], q[t].max(axis=0)[~level.walls])
    assert not values[:, level.walls].any() and not values[level.horizon].any()
    assert not q[:start_t].any() and not values[:start_t].any()
    assert values[start_t].max() > 0


def test_maze_blank_quadrant_opens_the_interior_only():
    """Each quadrant opens one corner block of the interior and closes
    nothing; the four blocks cover the interior and never reach the border."""
    level = generate_level(KIND_MAZE, 0)
    solid = replace(level, walls=np.ones((GRID, GRID), dtype=bool))
    opened = [~oracles.maze_blank_quadrant(solid, quadrant) for quadrant in range(4)]
    corners = ((1, 1), (1, GRID - 2), (GRID - 2, 1), (GRID - 2, GRID - 2))
    for quadrant, corner in enumerate(corners):
        assert opened[quadrant][corner]
        assert np.array_equal(oracles.maze_blank_quadrant(level, quadrant),
                              level.walls & ~opened[quadrant])
    interior = np.zeros((GRID, GRID), dtype=bool)
    interior[1:-1, 1:-1] = True
    assert np.array_equal(np.logical_or.reduce(opened), interior)


def test_level_item_must_lie_on_the_grid():
    """The item and the agent's start both lie on the grid."""
    level = generate_level(KIND_DODGE, 0)
    for field in ("item", "agent_start"):
        for cell in ((-1, -1), (0, GRID), (GRID, 3)):
            with pytest.raises(ValueError, match=f"{field}.*outside"):
                replace(level, **{field: cell})
        assert getattr(replace(level, **{field: (0, 0)}), field) == (0, 0)


def _assert_hazard_table(level):
    hazards = level.hazards
    assert hazards.dtype == np.int16 and hazards.ndim == 2 and hazards.shape[1] == 7
    assert np.all(np.diff(hazards[:, 0]) >= 0)
    with pytest.raises(ValueError):
        hazards[0, 0] = 1


def test_hazards_are_one_small_read_only_table():
    sizes = []
    for seed in range(200):
        level = generate_level(KIND_DODGE, seed)
        _assert_hazard_table(level)
        sizes.append(level.hazards.nbytes)
    assert np.mean(sizes) <= 16 * 1024
    level = generate_level(KIND_DODGE, 0)
    _assert_hazard_table(oracles.blanked_level(level, level.agent_start, 3))
    _assert_hazard_table(_handmade({0: [((5, 6), (5, 5), (5, 7))]}, start=(9, 9)))
    assert generate_level(KIND_MAZE, 0).hazards is None


def test_level_tables_are_small_and_read_only():
    level = generate_level(KIND_DODGE, 0)
    assert level.codes.shape == (level.horizon + 1, GRID, GRID)
    assert level.codes.nbytes + level.base_codes.nbytes <= 48 * 1024
    maze = generate_level(KIND_MAZE, 0)
    assert maze.codes is None
    assert maze.base_codes.shape == (GRID, GRID) and maze.base_codes.dtype == np.uint8
    for table in (level.codes, level.base_codes, maze.base_codes):
        with pytest.raises(ValueError):
            table[0, 0] = 1
    jump = _handmade({0: [((5, 5), (5, 7), (-1, -1))]}, start=(9, 9))
    with pytest.raises(ValueError):
        jump.codes

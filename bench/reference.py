"""Plain-Python reference computations the workload checks compare against.

Nothing here calls into segrl's estimators, oracles or file readers: the
checkpoint, value-table and JSON-Lines files are read by their documented
formats, and every expected number is recomputed from first principles.
Environment dynamics come from `env.transition`, the one program interface
the checks trust.
"""

from __future__ import annotations

import json
import math

KEEP, SWITCH = 0, 1

METRICS_HEADER = ("iter,mean_return,success,mean_segments,mean_seg_len,"
                  "switch_rate,actor_loss,critic_loss,kl")


# -- file formats -------------------------------------------------------------

def read_policy(path) -> dict:
    """`segrl-policy v1` checkpoint as nested lists."""
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    if lines[0] != "segrl-policy v1":
        raise ValueError(f"{path}: not a policy checkpoint")
    n_s, n_o, n_a = (int(x) for x in lines[1].split())
    pos, flat = 2, {}
    for name in ("switch", "subgoal", "action"):
        tag, got, count = lines[pos].split()
        if (tag, got) != ("table", name):
            raise ValueError(f"{path}: expected table {name}, got {lines[pos]!r}")
        flat[name] = [float(v) for v in lines[pos + 1:pos + 1 + int(count)]]
        pos += 1 + int(count)
    sw, sg, ac = flat["switch"], flat["subgoal"], flat["action"]
    return {
        "switch": [[sw[(s * n_o + o) * 2:(s * n_o + o) * 2 + 2] for o in range(n_o)]
                   for s in range(n_s)],
        "subgoal": [sg[s * n_o:(s + 1) * n_o] for s in range(n_s)],
        "action": [[ac[(s * n_o + o) * n_a:(s * n_o + o + 1) * n_a]
                    for o in range(n_o)] for s in range(n_s)],
    }


def read_values(path) -> tuple[list[float], list[list[float]]]:
    """`segrl-values v1` checkpoint as (v_high, v_low)."""
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    if lines[0] != "segrl-values v1":
        raise ValueError(f"{path}: not a value-table checkpoint")
    n_s, n_o = (int(x) for x in lines[1].split())
    count = int(lines[2].split()[2])
    v_high = [float(v) for v in lines[3:3 + count]]
    pos = 3 + count
    count = int(lines[pos].split()[2])
    flat = [float(v) for v in lines[pos + 1:pos + 1 + count]]
    return v_high, [flat[s * n_o:(s + 1) * n_o] for s in range(n_s)]


def read_episodes(path) -> list[list[dict]]:
    """Trajectory JSON-Lines grouped into episodes (terminal episodes only:
    the shipped environments never truncate)."""
    episodes, turns = [], []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("truncated"):
                raise ValueError(f"{path}: unexpected truncation sentinel")
            turns.append(rec)
            if rec["done"]:
                episodes.append(turns)
                turns = []
    if turns:
        raise ValueError(f"{path}: dangling turns after the last episode")
    return episodes


def read_metrics_csv(path) -> tuple[str, list[dict]]:
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    keys = lines[0].split(",")
    return lines[0], [dict(zip(keys, map(float, row.split(","))))
                      for row in lines[1:]]


# -- policy arithmetic ----------------------------------------------------------

def argmax(row) -> int:
    """First index of the maximum: ties break toward the lowest index."""
    best = 0
    for i in range(1, len(row)):
        if row[i] > row[best]:
            best = i
    return best


def softmax(row) -> list[float]:
    top = max(row)
    e = [math.exp(v - top) for v in row]
    z = sum(e)
    return [v / z for v in e]


def greedy_success(env, pol: dict) -> float:
    """Replay the argmax policy over `env.transition`; 1.0 if it delivers."""
    (state, _), = env.initial_states()
    prev = None
    for t in range(env.horizon):
        q = SWITCH if t == 0 else argmax(pol["switch"][state][prev])
        o = argmax(pol["subgoal"][state]) if q == SWITCH else prev
        state, _, done = env.transition(state, argmax(pol["action"][state][o]))
        if done:
            return 1.0 if state == env.goal_state else 0.0
        prev = o
    return 0.0


def enumerated_objective(env, pol: dict, gamma: float) -> float:
    """E[sum_t gamma^t r_t] by literal enumeration of every decision path."""
    def expand(t, state, prev, discount):
        if t == env.horizon:
            return 0.0
        total = 0.0
        if t == 0:
            switch_probs = [(SWITCH, 1.0)]
        else:
            switch_probs = list(enumerate(softmax(pol["switch"][state][prev])))
        for q, p_q in switch_probs:
            if q == SWITCH:
                options = list(enumerate(softmax(pol["subgoal"][state])))
            else:
                options = [(prev, 1.0)]
            for o, p_o in options:
                for a, p_a in enumerate(softmax(pol["action"][state][o])):
                    nxt, r, done = env.transition(state, a)
                    value = discount * r
                    if not done:
                        value += expand(t + 1, nxt, o, discount * gamma)
                    total += p_q * p_o * p_a * value
        return total

    (start, _), = env.initial_states()
    return expand(0, start, None, 1.0)


# -- episode checks ---------------------------------------------------------------

def invariant_problems(episode: list[dict]) -> list[str]:
    """The documented turn invariants: q_0 = 1, prev_subgoal chains, KEEP
    keeps the subgoal, done only on the last turn."""
    problems = []
    if episode[0]["q"] != SWITCH or episode[0]["prev_subgoal"] is not None:
        problems.append("first turn does not switch from no subgoal")
    for i, turn in enumerate(episode):
        if turn["t"] != i:
            problems.append(f"turn {i}: index {turn['t']}")
        if i > 0:
            prev = episode[i - 1]
            if turn["prev_subgoal"] != prev["subgoal"]:
                problems.append(f"turn {i}: prev_subgoal does not chain")
            if turn["q"] == KEEP and turn["subgoal"] != prev["subgoal"]:
                problems.append(f"turn {i}: KEEP changed the subgoal")
        if turn["done"] != (i == len(episode) - 1):
            problems.append(f"turn {i}: done flag misplaced")
    return problems


def replay_problems(env, episode: list[dict]) -> list[str]:
    """Replay the recorded (state, action) pairs through env.transition."""
    problems = []
    (start, _), = env.initial_states()
    if episode[0]["state"] != start:
        problems.append("episode does not start in the initial state")
    for i, turn in enumerate(episode):
        nxt, r, done = env.transition(turn["state"], turn["action"])
        if r != turn["raw_reward"]:
            problems.append(f"turn {i}: raw_reward {turn['raw_reward']} != {r}")
        if done != turn["done"]:
            problems.append(f"turn {i}: done {turn['done']} != {done}")
        if not done and i + 1 < len(episode) and episode[i + 1]["state"] != nxt:
            problems.append(f"turn {i}: next state {episode[i + 1]['state']} != {nxt}")
    return problems


def closed_form_advantages(episode: list[dict], v_high, v_low, pol: dict,
                           gamma: float) -> list[dict]:
    """Per-turn advantages at mixing weights 1, in telescoped closed form.

    A_low(t)  = sum_{l=t}^{end-1} gamma^(l-t) r_l + gamma^(end-t) V(end) - v_low
    A_high(b) = sum_{l>=b} gamma^(l-b) r_l - v_high(s_b)   (terminal episodes)
    A_switch  = (q - beta) * (v_high(s) - v_low(s, o_prev))
    where V(end) is v_high at the next boundary and 0 past the terminal turn.
    """
    n = len(episode)
    r = [turn["reward"] for turn in episode]
    bounds = [t for t in range(n) if t == 0 or episode[t]["q"] == SWITCH] + [n]
    seg_end = {}
    for k in range(len(bounds) - 1):
        for t in range(bounds[k], bounds[k + 1]):
            seg_end[t] = bounds[k + 1]
    out = []
    for t, turn in enumerate(episode):
        s, o = turn["state"], turn["subgoal"]
        end = seg_end[t]
        tail = sum(gamma ** (l - t) * r[l] for l in range(t, end))
        v_end = v_high[episode[end]["state"]] if end < n else 0.0
        rec = {"t": t, "A_low": tail + gamma ** (end - t) * v_end - v_low[s][o],
               "A_high": None, "A_switch": None}
        if t in bounds[:-1]:
            ret = sum(gamma ** (l - t) * r[l] for l in range(t, n))
            rec["A_high"] = ret - v_high[s]
        if t > 0:
            prev = turn["prev_subgoal"]
            beta = softmax(pol["switch"][s][prev])[SWITCH]
            rec["A_switch"] = (turn["q"] - beta) * (v_high[s] - v_low[s][prev])
        out.append(rec)
    return out


# -- transcripts ----------------------------------------------------------------------

def render_transcript(decisions: list[tuple[int, str, str, float]]) -> str:
    """Three-block records separated by blank lines; `@reward` per record and
    `@done` on the last."""
    records = []
    for i, (q, subgoal, action, reward) in enumerate(decisions):
        token = "SWITCH" if q == SWITCH else "KEEP"
        lines = [f"Thought: turn {i}, working on {subgoal}.",
                 f"<switch>{token}</switch>", f"<subgoal>{subgoal}</subgoal>",
                 f"<action>{action}</action>", f"@reward {reward!r}"]
        if i == len(decisions) - 1:
            lines.append("@done")
        records.append("\n".join(lines))
    return "\n\n".join(records) + "\n"


def intern(texts) -> list[int]:
    """Ids by order of first appearance, as the transcript parser assigns them."""
    ids: dict[str, int] = {}
    return [ids.setdefault(x, len(ids)) for x in texts]

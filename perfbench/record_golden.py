"""Record the benchmark's expected answers that have no closed form.

    PYTHONPATH=src python3 perfbench/record_golden.py

Writes perfbench/golden.json: the answer for every input a seed can draw
(solvable() per placement, first_new_source and attractor ranks per
placement, a trace digest per pool game) plus the pool of 500-round greedy
games. Run it only on a commit whose answers are trusted, and say so in the
file's provenance; the workloads check every run against it. Takes a few
minutes on one core.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import dynbroadcast as db
from dynbroadcast import cli

import workloads as w

THETA_RANDOM_POOL = 1000
GRID_POOL = 48


def record_kstar() -> dict:
    out = {}
    for label, family, params, k_max, expected, _ in w.KSTAR:
        g = w.FAMILIES[family](params)
        out[label] = {}
        for k in w.kstar_query_ks(k_max, expected):
            att = db.compute_attractor(g, k + 1)
            out[label][str(k)] = "".join(
                "1" if att.wins(db.CanonicalState(ig, src)) else "0"
                for ig, src in w.placements(g.node_count, k)
            )
    return out


def record_optimal_play() -> dict:
    theta_broadcast = {}
    for lengths in w.THETA_POLICY_CHECKS:
        g, state = w.theta_start(lengths)
        r = db.model_check_policy(g, state, db.ThetaBroadcastPolicy(k=len(lengths)))
        theta_broadcast[f"theta_broadcast {w.theta_label(lengths)}"] = w._value(r.optimal_rounds)
    g33 = db.make_theta([3, 3])
    fns = [
        w._value(db.game_value(g33, db.Configuration(ig, src), "first_new_source"))
        for ig, src in w.placements(g33.node_count, 2)
    ]
    g44 = db.make_theta([4, 4])
    att = db.compute_attractor(g44, 3)
    ranks = [att.rank.get(db.CanonicalState(ig, src)) for ig, src in w.placements(g44.node_count, 2)]
    return {"theta_broadcast": theta_broadcast, "first_new_source_theta33": fns, "solved_rank_theta44": ranks}


def record_simulate() -> dict:
    g, start = w.theta_start(w.THETA_RANDOM_LENGTHS)
    k = len(w.THETA_RANDOM_LENGTHS)
    theta_random = [
        w.play(g, start, db.ThetaBroadcastPolicy(k=k), db.RandomTreeAdversary(s), w.MAX_ROUNDS)[4]
        for s in range(THETA_RANDOM_POOL)
    ]
    blocker = []
    for lengths in w.BLOCKER_GAMES:
        bg, bstart = w.theta_start(lengths)
        game = w.play(bg, bstart, db.ThetaBroadcastPolicy(k=len(lengths)), db.ThetaBlocker(), w.MAX_ROUNDS)
        blocker.append([game[1], game[4]])

    # Greedy agents against random trees on grid(5,5): keep only games that
    # run the full round limit, so every draw is the same amount of work.
    grid = db.make_grid(5, 5)
    rng = random.Random("grid-pool")
    pool = []
    while len(pool) < GRID_POOL:
        nodes = rng.sample(range(grid.node_count), 5)
        adv_seed = rng.randrange(10**6)
        game = w.play(grid, db.initial_state(nodes[:4], nodes[4:]), db.GreedyPathPolicy(),
                      db.RandomTreeAdversary(adv_seed), w.MAX_ROUNDS)
        if game[0] == "round_limit_reached":
            pool.append([nodes[:4], nodes[4], adv_seed, game[4]])

    path = db.make_path(60)
    path60 = w.play(path, db.initial_state([0], [59]), db.TowardSourcePolicy(),
                    db.PassiveAdversary(), w.MAX_ROUNDS)[4]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["verify", "all", "--output", tmp]) != 0:
            raise RuntimeError("verify all failed; not recording its traces")
        verify = {p.name: w.digest(p.read_text()) for p in sorted(Path(tmp).glob("*.trace.json"))}
    return {"theta_random_digests": theta_random, "theta_blocker": blocker,
            "grid_greedy_pool": pool, "path60": path60, "verify_all": verify}


def main() -> int:
    golden = {
        "provenance": w.RECORDED,
        "kstar": record_kstar(),
        "optimal_play": record_optimal_play(),
        "simulate": record_simulate(),
    }
    out = Path(__file__).resolve().parent / "golden.json"
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Smoke checks of the installed `dcgrid-lab` console script: every subcommand
# runs, reruns of rootlocus, simulate and compare are byte-identical, the dense,
# mixed-L/R and other sweep-end root loci are those of a one-step-at-a-time
# scalar path, tune's and bode's frequency responses those of a
# one-frequency-at-a-time one, the full-size timeseries follows the per-cell
# %.12g rule whether one process or two format it, the proposed scheme wins
# every ordering of a bench-default compare, and
# a verbose run logs its events, its periods and its CSV.  Needs
# `dcgrid-lab` and `taskset` on PATH and `python` able to import dcgridlab;
# writes only into a fresh temporary directory.
#
#   bash .github/scripts/smoke.sh
set -euo pipefail
cd "$(mktemp -d)"

# every subcommand, and a closed-inner rootlocus reproduced from its echoed
# config_effective.ini
dcgrid-lab tune --out o
dcgrid-lab simulate --out o
dcgrid-lab compare --out o
dcgrid-lab rootlocus --out o
printf '[tuning]\nouter_plant_mode = closed-inner\n' > closed-inner.ini
dcgrid-lab rootlocus --config closed-inner.ini --out ci1
dcgrid-lab rootlocus --config ci1/config_effective.ini --out ci2
cmp ci1/rootlocus_voltage.csv ci2/rootlocus_voltage.csv
dcgrid-lab bode --plant voltage-loop --out o

# reruns of the batched root-locus build and stacked solve are bit-identical,
# in both outer-plant modes
printf '[sweep]\nsteps = 1000\n' > dense.ini
printf '[tuning]\nouter_plant_mode = closed-inner\n' | cat dense.ini - > dense-ci.ini
# equal L/R at 741 of the 1000 steps: the batched divider's padded branch
printf '[sweep]\nr_min = 0.1\nratio_r_over_l = 166.66666683333332\nsteps = 1000\n' > mixed.ini
printf '[tuning]\nouter_plant_mode = closed-inner\n' | cat mixed.ini - > mixed-ci.ini
# the sweep ends of perfbench's design-sweep seeds 57 and 91
for r in 2.039 2.323; do
  printf "[sweep]\nr_max = $r\nsteps = 1000\n" > r$r.ini
  printf '[tuning]\nouter_plant_mode = closed-inner\n' | cat r$r.ini - > r$r-ci.ini
done
for c in dense dense-ci mixed mixed-ci r2.039 r2.039-ci r2.323 r2.323-ci; do
  dcgrid-lab rootlocus --config $c.ini --out ${c}1
  dcgrid-lab rootlocus --config $c.ini --out ${c}2
  cmp ${c}1/rootlocus_power.csv ${c}2/rootlocus_power.csv
  cmp ${c}1/rootlocus_voltage.csv ${c}2/rootlocus_voltage.csv
done

# the stacked solve's array Newton step, the per-step arrays and the array
# L/R decision change no bit: the dense loci, the mixed ones whose steps have
# 3/4 or 4/5 poles, and those of two other sweep ends, in both outer-plant
# modes, must be those of a scalar path, one step at a time: the step's own
# characteristic polynomial, then np.roots, then one Newton step per root in
# that root's own type, then %.12g
for c in dense dense-ci mixed mixed-ci r2.039 r2.039-ci r2.323 r2.323-ci; do
  for loop in power voltage; do
    python - $c.ini $loop > ${c}1/scalar_$loop.csv <<'PY'
import cmath, dataclasses, sys
import numpy as np
from dcgridlab.config import load_config
from dcgridlab.grid import CableParams, pi_tf, power_plant_tf, voltage_loop_plant_tf
from dcgridlab.lti import Polynomial, tf, tf_feedback, tf_series
cfg = load_config(sys.argv[1])
rs = cfg.sweep.resistances()
for r, l in zip(rs.tolist(), (rs / cfg.sweep.ratio_r_over_l).tolist()):
    c0 = dataclasses.replace(cfg.grid.converters[0], cable=CableParams(r, l))
    grid = dataclasses.replace(cfg.grid, converters=(c0,) + cfg.grid.converters[1:])
    if sys.argv[2] == "power":
        loop = tf_series(pi_tf(cfg.power_pi), power_plant_tf(grid, 0))
    else:
        loop = tf_series(pi_tf(cfg.voltage_pi), voltage_loop_plant_tf(
            grid, 0, cfg.power_pi, mode=cfg.tuning.outer_plant_mode))
    char = tf_feedback(loop, tf([1.0], [1.0])).den
    deriv = Polynomial([k * c for k, c in enumerate(char.coeffs)][1:] or [0.0])
    poles = []
    for root in np.roots(char.coeffs[::-1]):
        dv = deriv(root)
        if abs(dv) > 0.0:
            step = char(root) / dv
            if cmath.isfinite(step):
                root = root - step
        poles.append(complex(root))
    stable = int(all(p.real < 0 for p in poles))
    for p in poles:
        print(f"{r:.12g},{l:.12g},{p.real:.12g},{p.imag:.12g},{stable}")
PY
    tail -n +3 ${c}1/rootlocus_$loop.csv | cmp - ${c}1/scalar_$loop.csv
  done
done

# the array frequency responses change no bit: in both outer-plant modes
# tune's gains.json and two Bode files, and bode for every plant on both
# converters, must be those of a scalar path: each response one frequency at
# a time in Python complex arithmetic, then freq_response's own
# post-processing, written by cli.write_csv, and the crossover grid one _db
# call per frequency
# (closed-inner tuning is feasible at a 100 deg voltage-loop margin, not at 70)
: > defaults.ini
printf '[tuning]\nouter_plant_mode = closed-inner\nvoltage_margin = 100.0\n' > ci-100.ini
for c in defaults ci-100; do
  dcgrid-lab tune --config $c.ini --out bode-$c/tune
  for plant in power voltage power-loop voltage-loop unity; do
    for k in 0 1; do
      dcgrid-lab bode --config $c.ini --plant $plant --converter $k --out bode-$c/$plant-$k
    done
  done
  python - $c.ini scalar-$c <<'PY'
import math, sys
import numpy as np
from dcgridlab import cli, lti

def response(g, w):
    resp, flagged = np.empty(len(w), complex), np.zeros(len(w), bool)
    for i, wi in enumerate(w.tolist()):
        dv = g.den(1j * wi)
        flagged[i] = math.hypot(dv.real, dv.imag) < lti._den_floor(g)
        resp[i] = complex(math.inf, 0.0) if flagged[i] else g.num(1j * wi) / dv
    return resp, flagged

lti._response = response
lti._grid_db = lambda g: np.array([lti._db(g, w) for w in lti.FREQUENCY_GRID.tolist()])
config, out = sys.argv[1:]
assert cli.main(["tune", "--config", config, "--out", f"{out}/tune"]) == 0
for plant in ("power", "voltage", "power-loop", "voltage-loop", "unity"):
    for k in "01":
        assert cli.main(["bode", "--config", config, "--plant", plant, "--converter", k,
                         "--out", f"{out}/{plant}-{k}"]) == 0
PY
  diff -r bode-$c scalar-$c
done

# the scenario engine's reruns are bit-identical too: the time series, the
# ITAE scores and the three-case comparison
dcgrid-lab simulate --out s1
dcgrid-lab simulate --out s2
cmp s1/timeseries.csv s2/timeseries.csv
cmp s1/itae.json s2/itae.json
dcgrid-lab compare --out c1 > compare.txt
dcgrid-lab compare --out c2
cmp c1/comparison.csv c2/comparison.csv

# the paper's claim on bench defaults: the proposed scheme leads all three
# orderings (itae_v, itae_i, settling) at both scored events
cat compare.txt
test "$(grep -c ': PASS$' compare.txt)" = 6
if grep -q FAIL compare.txt; then exit 1; fi

# and where periods fall back to tick-by-tick stepping: a 20 kW step that
# drives PIs to their clamps, an activation off the secondary grid whose
# first bus-voltage update lands one period after it, and a clamp first met
# by the second period of a block of mapped periods (converter 2's power
# reference clamps through periods 51 and 53 after the 1 s step, not 52)
printf '[scenario]\nload_steps = 1.0:2000.0, 20.0:20000.0\n' > clamped.ini
printf '[scenario]\nactivation_time = 5.005\n' > late.ini
printf '[scheme]\nvoltage_kp = 300.0\nvoltage_ki = 2000.0\n[scenario]\nactivation_time = 0.5\nduration = 3.0\nload_steps = 0.2:2000.0, 1.0:11800.0\n' > midblock.ini
for c in clamped late midblock; do
  dcgrid-lab simulate --config $c.ini --out ${c}1
  dcgrid-lab simulate --config $c.ini --out ${c}2
  cmp ${c}1/timeseries.csv ${c}2/timeseries.csv
  cmp ${c}1/itae.json ${c}2/itae.json
done
DCGRIDLAB_VERBOSE=1 dcgrid-lab simulate --config midblock.ini --out midblock3 2> midblock.txt
grep -q "DEBUG dcgridlab.sim: run: 145 secondary periods advanced by period maps, 5 ticked; blocks cut short by a test: 2" midblock.txt
cmp midblock1/timeseries.csv midblock3/timeseries.csv

# the writer formats each distinct float of a chunk once; on the full 250k-row
# bench-default timeseries (tier-1 runs a 30k-row one) its rows must be those
# of one %.12g per cell
python - > s1/rows.csv <<'PY'
import sys
from dcgridlab.config import load_config
from dcgridlab.sim import run
r = run(load_config(None).scenario())
columns = (r.time, r.power[:, 0], r.power[:, 1], r.bus_voltage,
           r.current[:, 0], r.current[:, 1], r.terminal_voltage[:, 0],
           r.terminal_voltage[:, 1], r.regulated_voltage,
           r.voltage_reference[:, 0], r.voltage_reference[:, 1])
for row in zip(*(c.tolist() for c in columns)):
    sys.stdout.write(",".join(format(v, ".12g") for v in row) + "\n")
PY
tail -n +3 s1/timeseries.csv | cmp - s1/rows.csv

# on one CPU the writer formats every chunk itself, with the same bytes as
# when a forked helper formats the odd chunks
DCGRIDLAB_VERBOSE=1 taskset -c 0 dcgrid-lab simulate --out one 2> one.txt
grep -q "DEBUG dcgridlab: wrote timeseries.csv: 250000 rows in 250 chunks, all in-process" one.txt
cmp one/timeseries.csv s1/timeseries.csv

# with one control tick a secondary period (secondary_dt = control_dt), the
# tick after a period's own is the next period's: a verbose run logs each of
# its events once, a load step 2 ms after activation included
printf '[scenario]\nsecondary_dt = 0.001\nactivation_time = 0.5\nduration = 2.6\nload_steps = 0.2:2000.0, 0.502:4000.0\n' > onetick.ini
DCGRIDLAB_VERBOSE=1 dcgrid-lab simulate --config onetick.ini --out onetick 2> onetick.txt
test "$(grep -c 'DEBUG dcgridlab.sim: tick .*: load ' onetick.txt)" = 2
test "$(grep -c 'DEBUG dcgridlab.sim: tick .*: secondary control activated' onetick.txt)" = 1

# a verbose run logs each applied event on stderr, then the run's periods
# (advanced by maps, ticked, and blocks of mapped periods cut short), then
# each CSV it writes
DCGRIDLAB_VERBOSE=1 dcgrid-lab simulate --out v 2> stderr.txt
cat stderr.txt
grep -q "DEBUG dcgridlab.sim: tick 5000 (t = 5 s): secondary control activated" stderr.txt
grep -q "DEBUG dcgridlab.sim: run: 1247 secondary periods advanced by period maps, 3 ticked; blocks cut short by a test: 0" stderr.txt
grep -q "DEBUG dcgridlab: wrote timeseries.csv: 250000 rows in 250 chunks, odd chunks formatted by a helper process" stderr.txt
echo "smoke checks passed"

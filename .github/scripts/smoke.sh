#!/usr/bin/env bash
# Smoke checks of the installed `dcgrid-lab` console script: every subcommand
# runs, reruns of rootlocus, simulate and compare are byte-identical, the
# full-size timeseries follows the per-cell %.12g rule, and a verbose run logs
# its events.  Needs `dcgrid-lab` on PATH and `python` able to import
# dcgridlab; writes only into a fresh temporary directory.
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
for c in dense dense-ci mixed mixed-ci; do
  dcgrid-lab rootlocus --config $c.ini --out ${c}1
  dcgrid-lab rootlocus --config $c.ini --out ${c}2
  cmp ${c}1/rootlocus_power.csv ${c}2/rootlocus_power.csv
  cmp ${c}1/rootlocus_voltage.csv ${c}2/rootlocus_voltage.csv
done

# the scenario engine's reruns are bit-identical too: the time series, the
# ITAE scores and the three-case comparison
dcgrid-lab simulate --out s1
dcgrid-lab simulate --out s2
cmp s1/timeseries.csv s2/timeseries.csv
cmp s1/itae.json s2/itae.json
dcgrid-lab compare --out c1
dcgrid-lab compare --out c2
cmp c1/comparison.csv c2/comparison.csv

# and where periods fall back to tick-by-tick stepping: a 20 kW step that
# drives PIs to their clamps, and an activation off the secondary grid whose
# first bus-voltage update lands one period after it
printf '[scenario]\nload_steps = 1.0:2000.0, 20.0:20000.0\n' > clamped.ini
printf '[scenario]\nactivation_time = 5.005\n' > late.ini
for c in clamped late; do
  dcgrid-lab simulate --config $c.ini --out ${c}1
  dcgrid-lab simulate --config $c.ini --out ${c}2
  cmp ${c}1/timeseries.csv ${c}2/timeseries.csv
done

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

# a verbose run logs each applied event on stderr
DCGRIDLAB_VERBOSE=1 dcgrid-lab simulate --out v 2> stderr.txt
cat stderr.txt
grep -q "DEBUG dcgridlab.sim: tick 5000 (t = 5 s): secondary control activated" stderr.txt
echo "smoke checks passed"

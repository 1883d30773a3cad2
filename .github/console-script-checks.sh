#!/usr/bin/env bash
# Exit codes of the installed `collectivity` console script.
#
# The suite calls cli.main in-process; this is the status the script hands
# a shell: 0, and 2 for a data error (a price file given to spacing-stats,
# an output file that cannot be written because a directory holds its name,
# and an lppl-fit grid whose LDL^T scratch would exceed the array cap, each
# ending in one JSON record). With no BLAS variable set the command pins
# BLAS to one thread itself, so the lppl-fit run's grid stage runs on the
# worker pool in a fresh process; it must exit 0 with a finite lambda. For
# the same reason a spectrum run with the variables unset must write the
# bytes of an OPENBLAS_NUM_THREADS=1 run on this machine's cores.
#
# Usage: .github/console-script-checks.sh DIR   (scratch directory, default $RUNNER_TEMP)
set -eo pipefail
tmp="${1:-$RUNNER_TEMP}"

# The last stderr line of a failed run is a "data" record whose message contains $2.
last_record_is_data() {
    tail -n 1 "$1" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["error"] == "data" and sys.argv[1] in r["message"] else 1)' "$2"
}

collectivity --version
printf 'date,asset,price\n2020-01-01,A,1.0\n' > "$tmp/prices.csv"
code=0
collectivity spacing-stats --input "$tmp/prices.csv" --out-dir "$tmp/o" || code=$?
test "$code" -eq 2
printf 'date,asset,price\n2020-01-01,A,1.0\n2020-01-02,A,1.1\n2020-01-03,A,1.05\n2020-01-01,B,2.0\n2020-01-02,B,1.9\n2020-01-03,B,2.1\n' > "$tmp/two.csv"
collectivity spectrum --input "$tmp/two.csv" --window-length 2 --out-dir "$tmp/clean"
mkdir -p "$tmp/taken/spectrum_trace.tsv"
code=0
collectivity spectrum --input "$tmp/two.csv" --window-length 2 --out-dir "$tmp/taken" 2> "$tmp/err.txt" || code=$?
test "$code" -eq 2
last_record_is_data "$tmp/err.txt" spectrum_trace.tsv
python3 -c 'import datetime as dt, numpy as np; from collectivity import lppl; t = np.arange(60.0); y = lppl.evaluate_model(lppl.LogPeriodicModel(tc=66.0, alpha=0.5, lam=2.0, phi=1.0, a=2.0, b=0.3), t); print("date,price"); [print(f"{dt.date(2020, 1, 1) + dt.timedelta(days=int(d))},{float(v)!r}") for d, v in zip(t, y)]' > "$tmp/lppl.csv"
collectivity lppl-fit --input "$tmp/lppl.csv" --out-dir "$tmp/fit"
python3 -c 'import json, math, sys; sys.exit(0 if math.isfinite(json.load(open(sys.argv[1]))["lambda"]) else 1)' "$tmp/fit/lppl_fit.json"
code=0
collectivity lppl-fit --input "$tmp/lppl.csv" --variant abs-cosine --alpha-nodes 1100 --out-dir "$tmp/over" 2> "$tmp/err.txt" || code=$?
test "$code" -eq 2
last_record_is_data "$tmp/err.txt" "LDL^T scratch"
python3 -c 'import sys; from collectivity import synthetic as s; s.write_price_csv(sys.argv[1], s.prices_from_returns(s.one_factor_panel(100, 300, 0.3, seed=1)))' "$tmp/panel.csv"
env -u OPENBLAS_NUM_THREADS -u OMP_NUM_THREADS collectivity spectrum --input "$tmp/panel.csv" --window-length 120 --out-dir "$tmp/default"
OPENBLAS_NUM_THREADS=1 collectivity spectrum --input "$tmp/panel.csv" --window-length 120 --out-dir "$tmp/pinned"
cmp "$tmp/default/spectrum_trace.tsv" "$tmp/pinned/spectrum_trace.tsv"

"""Source-layout guards: each idea written once, in the one place named.

Each guard is a shell script over ``grep``, run from the repository root
under the shell flags a CI ``run:`` step gets (``-eo pipefail``); it
prints what it found and exits non-zero when the source breaks its rule.
Every tier-1 run checks them, CI's included.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

GUARDS = [
    # one implementation of each idea: the record payload split, the
    # pattern payload's tag decode and the combined-inbox fold may each be
    # written in exactly one channel module; the pattern payload (and its
    # delta form) is written in _records.py and used by _pattern.py alone
    ("Channel parts are written once", r'''
for pattern in 'divmod(len(payload)' 'INT32.decode_one(payload' 'accumulate_at('; do
  files=$(grep -rlF --include="*.py" "$pattern" src/repro/core/channels)
  if [ "$(echo "$files" | grep -c .)" -ne 1 ]; then
    echo "'$pattern' must appear in exactly one file under src/repro/core/channels, found:"
    echo "$files"
    exit 1
  fi
done
for pattern in 'encode_pattern(' 'decode_pattern('; do
  files=$(grep -rlF --include="*.py" "$pattern" src | sort | tr '\n' ' ')
  if [ "$files" != "src/repro/core/channels/_pattern.py src/repro/core/channels/_records.py " ]; then
    echo "'$pattern' must appear only in _records.py and _pattern.py under src/repro/core/channels, found:"
    echo "$files"
    exit 1
  fi
done
# the id-set codec: one bitmap writer and reader
for pattern in 'packbits(' 'unpackbits('; do
  files=$(grep -rlF --include="*.py" "$pattern" src/repro/core/channels || true)
  if [ "$files" != "src/repro/core/channels/_records.py" ]; then
    echo "'$pattern' must appear under src/repro/core/channels only in _records.py, found:"
    echo "$files"
    exit 1
  fi
done
'''),
    # the per-edge sender numbers of a local adjacency are derived in one
    # place (ScatterEdges._adjacency_blocks, a block at a time) and never
    # by a program
    ("Sender column is derived once", r'''
files=$(grep -rlF --include="*.py" "np.repeat(np.arange" src/repro/algorithms src/repro/core/channels)
if [ "$files" != "src/repro/core/channels/_edges.py" ]; then
  echo "'np.repeat(np.arange' must appear only in src/repro/core/channels/_edges.py, found:"
  echo "$files"
  exit 1
fi
'''),
    # channels read a local adjacency's rows only through its block
    # iterator (LocalCSR.blocks): a full-length destination column read
    # there would be a gathered copy of the rows on a hash partition
    ("Channels stream adjacency rows", r'''
files=$(grep -rlF --include="*.py" ".indices" src/repro/core/channels || true)
if [ -n "$files" ]; then
  echo "'.indices' must not appear under src/repro/core/channels, found:"
  echo "$files"
  exit 1
fi
'''),
    # one blocked scan: the segmented take + reduceat of Fig. 5 is written
    # once (scatter_combine._Scan), and a receiver that combines a peer's
    # edges runs that same function, so both ends fold the same bits
    ("One blocked scan", r'''
files=$(grep -rlF --include="*.py" "np.take(" src/repro/core/channels || true)
count=$(grep -rhoF --include="*.py" "np.take(" src/repro/core/channels | wc -l)
if [ "$files" != "src/repro/core/channels/scatter_combine.py" ] || [ "$count" -ne 1 ]; then
  echo "'np.take(' must appear exactly once under src/repro/core/channels, in scatter_combine.py; found $count in:"
  echo "$files"
  exit 1
fi
'''),
    # which end folds each destination is a rule on the data: the channel
    # takes a worker and a combiner, and its module names no place,
    # placement or threshold a caller could set
    ("Placement is a rule on the data", r'''
file=src/repro/core/channels/scatter_combine.py
if [ "$(grep -cF 'def __init__(self, worker: Worker, combiner: Combiner) -> None:' "$file")" -ne 1 ]; then
  echo "$file: ScatterCombine.__init__ must stay (self, worker: Worker, combiner: Combiner)"
  exit 1
fi
if grep -niE "place|threshold" "$file"; then
  echo "'place' and 'threshold' must not appear in $file"
  exit 1
fi
'''),
    # handing pages back is the store's business: readers call
    # GraphStore.release, nobody else advises the kernel
    ("madvise lives in the store", r'''
files=$(grep -rlF --include="*.py" "madvise" src)
if [ "$files" != "src/repro/graph/store.py" ]; then
  echo "'madvise' must appear only in src/repro/graph/store.py, found:"
  echo "$files"
  exit 1
fi
'''),
    # run options are declared and validated once: RunConfig checks the
    # option domains, and `run` / `stream` share one set of flags
    ("Run options are declared once", r'''
files=$(grep -rlE --include="*.py" "not in (EXECUTORS|TRANSPORTS|RECOVERY_MODES)" src)
if [ "$files" != "src/repro/core/config.py" ]; then
  echo "option-domain checks must appear only in src/repro/core/config.py, found:"
  echo "$files"
  exit 1
fi
count=$(grep -cF 'add_argument("--workers"' src/repro/__main__.py)
if [ "$count" -ne 1 ]; then
  echo "'add_argument(\"--workers\"' must appear exactly once in src/repro/__main__.py, found $count"
  exit 1
fi
'''),
    # a worker is built in one place, Worker.build: no mirror of a
    # process child and no second construction site binds a program
    ("One place binds a program to a worker", r'''
files=$(grep -rlF --include="*.py" ".program = " src/repro/core src/repro/runtime)
if [ "$files" != "src/repro/core/worker.py" ]; then
  echo "'.program = ' must appear only in src/repro/core/worker.py under src/repro/core and src/repro/runtime, found:"
  echo "$files"
  exit 1
fi
'''),
    # one set of books: a worker counts its superstep into its own record
    # (Worker.books), never into an engine's collector, and both backends
    # account the records through ExecutorBackend.account alone
    ("Workers count into their own books", r'''
files=$(grep -rlF --include="*.py" "engine.metrics" src/repro/core/worker.py src/repro/core/channels || true)
if [ -n "$files" ]; then
  echo "'engine.metrics' must not appear in src/repro/core/worker.py or src/repro/core/channels, found:"
  echo "$files"
  exit 1
fi
for pattern in 'current_messages' '_ChildCounters' '_live_step'; do
  files=$(grep -rlF --include="*.py" "$pattern" src || true)
  if [ -n "$files" ]; then
    echo "'$pattern' must not appear under src, found:"
    echo "$files"
    exit 1
  fi
done
'''),
    # one static scatter: MirroredScatter is ScatterCombine with another
    # rule for the senders that cross (_crossing) — one cover, one
    # derivation, one wire — with no build, per-edge API, round protocol
    # or checkpoint of its own; and the wire has no announcement of
    # channel-specific words
    ("One static scatter", r'''
file=src/repro/core/channels/mirrored_scatter.py
if grep -nE "def (serialize|snapshot|restore|set_message|set_messages)\(" "$file"; then
  echo "$file must not define these: ScatterCombine's serve both channels"
  exit 1
fi
if grep -nE "def " "$file" | grep -vE "def (__init__|_crossing)\("; then
  echo "$file must define __init__ and the rule (_crossing) alone"
  exit 1
fi
if grep -nF -e "_announce_words" -e "words=" src/repro/core/channels/_records.py; then
  echo "src/repro/core/channels/_records.py must not announce words ('_announce_words' / 'words=')"
  exit 1
fi
if grep -nF -e "argsort(" -e "isin(" "$file"; then
  echo "$file must not sort or match edges per peer ('argsort(' / 'isin(')"
  exit 1
fi
'''),
    # ablations live with their one caller, benchmarks/bench_ablations.py:
    # the channel library keeps no switch that rebuilds a configuration
    # the paper argues against (D1's id echo, D4b's hop budget)
    ("No ablation switch in the channel library", r'''
files=$(grep -rlE --include="*.py" "max_local_hops|echo_ids|_deferred|ablation" src/repro/core || true)
if [ -n "$files" ]; then
  echo "'max_local_hops', 'echo_ids', '_deferred' and 'ablation' must not appear under src/repro/core, found:"
  grep -rnE --include="*.py" "max_local_hops|echo_ids|_deferred|ablation" src/repro/core
  exit 1
fi
'''),
    # a host keeps one int32 position table (OwnerTable) that every
    # worker's local_index reads, the Pregel+ and Blogel baselines' too:
    # no array sized by the graph's vertex count is made under these
    # directories.  The one exception, by name: RequestRespond._positions
    # keeps an int32 table over the span of the ids it answered, which can
    # reach V, because searchsorted over the answered ids took 9.7 ms
    # against the table's 0.97 ms (65 536 lookups over 14 000 keys at
    # V = 2**17, some 0.1 s a run of sv-rmat17-sim2)
    ("No V-sized table per worker", r'''
dirs="src/repro/core src/repro/runtime src/repro/pregel src/repro/blogel"
if grep -rnE --include="*.py" -e "_local_index" -e "np\.(full|zeros|empty)\([^,]*num_vertices" $dirs; then
  echo "'_local_index' and an np.full / np.zeros / np.empty of num_vertices must not appear under $dirs"
  exit 1
fi
'''),
    # a vertex id is as wide as graph.VERTEX_ID wherever a run holds one:
    # the id codec decodes every id column as VERTEX_ID, the send buffers
    # of RecordChannel and RequestRespond and the static edge set's
    # destinations hold it, and no channel widens ids to int64
    ("Ids are VERTEX_ID", r'''
dir=src/repro/core/channels
decode=$(awk '/^def _unpack\(/ {p = 1; next} p && /^def / {exit} p' $dir/_records.py)
if ! echo "$decode" | grep -qF "dtype=VERTEX_ID" || ! echo "$decode" | grep -qF "astype(VERTEX_ID)"; then
  echo "_unpack in $dir/_records.py must read its codes as VERTEX_ID"
  exit 1
fi
for rule in "_records.py:RecordBuffer(VERTEX_ID, " "request_respond.py:RecordBuffer(np.intp, VERTEX_ID)" \
    '_edges.py:"edge_dst": VERTEX_ID'; do
  if ! grep -qF "${rule#*:}" "$dir/${rule%%:*}"; then
    echo "$dir/${rule%%:*} must hold its ids as '${rule#*:}'"
    exit 1
  fi
done
if grep -rnF --include="*.py" "astype(np.int64)" $dir; then
  echo "'astype(np.int64)' must not appear under $dir"
  exit 1
fi
'''),
    # ids cross the wire at one width, the one the graph's V needs: under
    # the channels and both baselines, an id column is written and read,
    # and priced, by _records.py's id codec alone (the lines between its
    # "the id codec" and "end of the id codec" markers) — no tobytes() or
    # frombuffer, no VERTEX_ID.itemsize or INT32 pricing elsewhere
    ("Ids cross the wire at one width", r'''
records=src/repro/core/channels/_records.py
for marker in "^# -- the id codec" "^# -- end of the id codec"; do
  if [ "$(grep -cE "$marker" $records)" -ne 1 ]; then
    echo "$records must hold its id codec between one '# -- the id codec' and one '# -- end of the id codec' line"
    exit 1
  fi
done
wire='\.tobytes\(\)|frombuffer|VERTEX_ID\.itemsize|INT32\.(itemsize|encode_array|decode_array)'
found=$( (awk '/^# -- the id codec/ {skip = 1} /^# -- end of the id codec/ {skip = 0; next}
              !skip {print FILENAME ":" FNR ": " $0}' $records
          grep -rnE --include="*.py" "$wire" src/repro/core/channels src/repro/pregel src/repro/blogel \
            | grep -v "^$records:") | grep -E "$wire" || true)
if [ -n "$found" ]; then
  echo "an id column is written, read or priced outside $records's id codec:"
  echo "$found"
  exit 1
fi
'''),
    # one superstep body: Worker.superstep is the Fig. 4 loop, and sim,
    # a process child and confined replay only drive it; the Pregel+ and
    # Blogel baselines are programs and channels that loop drives.  One
    # set of books: a run's collector is opened by the engine, a
    # superstep by the drive loop, and a replay's by confined recovery
    ("One superstep body", r'''
for pattern in 'serialize_round(' '.run_compute(' '.begin_superstep(' '.before_superstep()' '.record_round('; do
  files=$(grep -rlF --include="*.py" "$pattern" src/repro || true)
  if [ "$files" != "src/repro/core/worker.py" ]; then
    echo "'$pattern' must appear only in src/repro/core/worker.py under src/repro, found:"
    echo "$files"
    exit 1
  fi
done
for pattern in 'MetricsCollector(' '.start_superstep('; do
  files=$(grep -rlF --include="*.py" "$pattern" src/repro \
    | grep -vxE "src/repro/(core/engine|runtime/executor|core/recovery)\.py" || true)
  if [ -n "$files" ]; then
    echo "'$pattern' must appear under src/repro only in core/engine.py, runtime/executor.py and core/recovery.py, found:"
    echo "$files"
    exit 1
  fi
done
'''),
    # the process backend's frame mover is the pool's rule on the cores
    # (pool.frame_mover), never an option: no CLI flag, no RunConfig
    # field, and WorkerPool(num_workers) is the whole signature
    ("The byte mover is a rule on the cores", r'''
if grep -nF -e "--transport" src/repro/__main__.py; then
  echo "'--transport' must not appear in src/repro/__main__.py"
  exit 1
fi
if grep -nE "^ +transport *:" src/repro/core/config.py; then
  echo "src/repro/core/config.py must not declare a 'transport' field"
  exit 1
fi
signature=$(awk '/^class WorkerPool/ {c = 1} c && /def __init__\(/ {p = 1} p {print} p && /\) *->/ {exit}' src/repro/runtime/parallel/pool.py)
if [ -z "$signature" ] || echo "$signature" | grep -qE "\b(transport|ctx|ring_capacity)\b"; then
  echo "WorkerPool.__init__ must take no transport, ctx or ring_capacity, found:"
  echo "$signature"
  exit 1
fi
'''),
    # the lanes a worker's scan folds on are a rule on the cores
    # (lanes.lane_count), never an option: no RunConfig field, no CLI
    # flag, no environment variable read in the core, and no channel
    # constructor takes a lane or thread count
    ("Scan lanes are a rule on the cores", r'''
if grep -nE "^ +[a-z_]*(lanes|threads)[a-z_]* *:" src/repro/core/config.py; then
  echo "src/repro/core/config.py must not declare a lanes or threads field"
  exit 1
fi
if grep -nE -e "--[a-z-]*(lanes|threads)" src/repro/__main__.py; then
  echo "src/repro/__main__.py must not declare a lanes or threads flag"
  exit 1
fi
if grep -rnE --include="*.py" "os\.environ|getenv" src/repro/core; then
  echo "'os.environ' and 'getenv' must not appear under src/repro/core"
  exit 1
fi
signatures=$(awk '/^class / {cls = $2} /def __init__\(/ && cls !~ /^_Scan[:(]/ {p = 1}
  p {print FILENAME ": " $0} p && /\)( *->[^:]*)? *:$/ {p = 0}' src/repro/core/channel.py src/repro/core/channels/*.py)
if echo "$signatures" | grep -E "\b(lanes|threads)\b"; then
  echo "a channel constructor must take no lanes or threads"
  exit 1
fi
'''),
    # one worker lifecycle: what is done to a worker between supersteps
    # (start a run, capture, restore, finalize) is written once,
    # in WorkerLifecycle, which sim calls and a worker process's serve
    # dispatches to; and each worker publishes its own live slot
    ("One worker lifecycle", r'''
for pattern in 'load_worker_state(' 'encode_state(capture_worker_state('; do
  files=$(grep -rlF --include="*.py" "$pattern" src/repro/core src/repro/runtime \
    | grep -vxE "src/repro/runtime/(lifecycle|checkpoint)\.py" || true)
  if [ -n "$files" ]; then
    echo "'$pattern' must appear under src/repro/core and src/repro/runtime only in runtime/lifecycle.py and runtime/checkpoint.py, found:"
    echo "$files"
    exit 1
  fi
done
if grep -rnF --include="*.py" "live_writers" src; then
  echo "'live_writers' must not appear under src"
  exit 1
fi
'''),
    # ownership is fixed for a run: the partition is the one placement,
    # so no option, flag, channel hook or shared-memory rewrite moves a
    # vertex to another worker mid-run
    ("Ownership is fixed for a run", r'''
if grep -nE "^ +rebalance[a-z_]* *:" src/repro/core/config.py; then
  echo "src/repro/core/config.py must not declare a rebalance field"
  exit 1
fi
if grep -nF -e "--rebalance" src/repro/__main__.py; then
  echo "'--rebalance' must not appear in src/repro/__main__.py"
  exit 1
fi
if grep -rnF --include="*.py" -e "migrate_states(" -e "update_owner" -e "share_writable" src; then
  echo "'migrate_states(', 'update_owner' and 'share_writable' must not appear under src"
  exit 1
fi
if [ -e src/repro/runtime/rebalance.py ]; then
  echo "src/repro/runtime/rebalance.py must not exist"
  exit 1
fi
'''),
    # a stream keeps one CSR graph, rebuilt by each batch (no overlay,
    # so nothing to compact and no knob for when), and refreshes WCC and
    # SSSP by warm-starting the library's own bulk programs; PageRank's
    # refresh program, which replays a per-iteration history, is the one
    # a stream keeps of its own.  WCC picks its plan by a rule on the
    # batch (any deleted arc runs cold), so it needs no split probe and no
    # knob for one; the refresh policy is the engine's, not per call
    ("Streaming keeps one graph and the library's programs", r'''
if grep -rnE --include="*.py" "compact_threshold|_deleted|_extra_" src/repro/streaming; then
  echo "'compact_threshold', '_deleted' and '_extra_' must not appear under src/repro/streaming"
  exit 1
fi
if grep -nF -e "--compact-threshold" src/repro/__main__.py; then
  echo "'--compact-threshold' must not appear in src/repro/__main__.py"
  exit 1
fi
if grep -rnE --include="*.py" "^class +[A-Za-z0-9_]*IncrementalBulk\b" src/repro/streaming \
    | grep -vE ":class +PageRankIncrementalBulk\b"; then
  echo "src/repro/streaming may define no *IncrementalBulk class but PageRankIncrementalBulk"
  exit 1
fi
if grep -rnE --include="*.py" "still_connected|probe_cap" src/repro/streaming; then
  echo "'still_connected' and 'probe_cap' must not appear under src/repro/streaming"
  exit 1
fi
if grep -Pzo "def (run_epoch|run)\([^)]*\brefresh\b" src/repro/streaming/epoch.py | tr '\0' '\n'; then
  echo "run_epoch and run in src/repro/streaming/epoch.py take no refresh parameter"
  exit 1
fi
'''),
    # a parametrized program is bound one way, as data that pickles (a
    # compiled Palgol spec included), and the Pregel+ baseline is a
    # factory run by the one engine, not an engine class of its own
    ("A program factory is a class or a ProgramSpec", r'''
if grep -rnE --include="*.py" "\btype\([^()]+," src/repro | grep -v "^src/repro/core/program.py:"; then
  echo "a three-argument type( may appear under src/repro only in core/program.py"
  exit 1
fi
if grep -rnE --include="*.py" "PregelPlusEngine|make_sv_program|make_sssp_program" src; then
  echo "'PregelPlusEngine', 'make_sv_program' and 'make_sssp_program' must not appear under src"
  exit 1
fi
if grep -rnE --include="*.py" "^\s+class \w+\(\w*VertexProgram\)" src/repro; then
  echo "a program class is defined at module level: one built inside a function does not pickle"
  exit 1
fi
'''),
    # a compiled Palgol spec runs over arrays: one bulk evaluator, no
    # per-vertex interpreter beside it
    ("Palgol evaluates over arrays", r'''
if ! grep -qE "^class PalgolProgram\(BulkVertexProgram\)" src/repro/palgol/compiler.py; then
  echo "PalgolProgram in src/repro/palgol/compiler.py must be a BulkVertexProgram"
  exit 1
fi
if grep -rnE --include="*.py" "def compute\(self, v" src/repro/palgol; then
  echo "nothing under src/repro/palgol may define compute(self, v"
  exit 1
fi
'''),
    # which (algorithm, system, variant, compute path) programs exist is
    # one fact, written once in src/repro/programs.py: no algorithm module
    # keeps a variant table, no runner picks from a dict of its own, and
    # run_cell's cells and the CLI's choices are derived from the table
    ("One program table", r'''
if grep -rnE --include="*.py" "_VARIANTS|resolve_mode" src; then
  echo "'_VARIANTS', 'SV_VARIANTS' and 'resolve_mode' must not appear under src: programs are rows of src/repro/programs.py"
  exit 1
fi
if grep -nF "lambda g, **kw" src/repro/bench/runner.py; then
  echo "src/repro/bench/runner.py must not write a cell by hand: cells are rows of src/repro/programs.py"
  exit 1
fi
if grep -nE "^VARIANTS = \{" src/repro/__main__.py; then
  echo "src/repro/__main__.py must not list variants: its choices are rows of src/repro/programs.py"
  exit 1
fi
if grep -rnE --include="*.py" "check_choice\(\"(variant|mode)\", [^,]+, \{" src/repro \
    | grep -v "^src/repro/programs.py:"; then
  echo "a variant or mode is chosen from a dict only in src/repro/programs.py"
  exit 1
fi
'''),
]


@pytest.mark.skipif(shutil.which("bash") is None, reason="the guards are bash scripts")
@pytest.mark.parametrize("script", [script for _, script in GUARDS], ids=[name for name, _ in GUARDS])
def test_guard(script):
    done = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stdout + done.stderr

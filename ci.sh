#!/bin/sh
# Repository gate: formatting, lints, build, and the full test suite.
# Run from the repo root; exits non-zero on the first failure.
set -eu

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release"
cargo build --release

echo "== repro output matches repro_output.txt byte for byte"
# The checked-in 2-hour reference is the contract every simplification
# keeps: each table and figure must come out byte-identical, at the
# default worker count and on one worker.
./target/release/repro all --hours 2 2>/dev/null | cmp - repro_output.txt
./target/release/repro all --hours 2 --jobs 1 2>/dev/null | cmp - repro_output.txt

echo "== repro prints the same with and without its archive cache"
# --archive only changes where the traces come from: a run without it,
# a cold run that writes the cache and a warm run that replays it print
# the same bytes. Each experiment gets a fresh cache directory.
CACHE=target/artifacts/repro_cache
rm -rf "$CACHE" && mkdir -p "$CACHE"
for exp in server table6; do
    ./target/release/repro "$exp" --hours 0.5 >"$CACHE/$exp.plain" 2>/dev/null
    for run in cold warm; do
        ./target/release/repro "$exp" --hours 0.5 --archive "$CACHE/$exp" \
            >"$CACHE/$exp.$run" 2>/dev/null
        cmp "$CACHE/$exp.plain" "$CACHE/$exp.$run" || {
            echo "   repro: $exp with a $run archive cache differs from a run without it"; exit 1; }
    done
done
# A run that includes compare needs a5's live file system, so it
# generates a5 afresh, but a warm cache still replays e3 and c4; its
# output matches a run without the cache either way.
./target/release/repro all --hours 0.1 >"$CACHE/all.plain" 2>/dev/null
for run in cold warm; do
    ./target/release/repro all --hours 0.1 --archive "$CACHE/all" \
        >"$CACHE/all.$run" 2>"$CACHE/all.$run.err"
    cmp "$CACHE/all.plain" "$CACHE/all.$run" || {
        echo "   repro: all with a $run archive cache differs from a run without it"; exit 1; }
done
for trace in e3 c4; do
    grep -q "$trace: replayed from" "$CACHE/all.warm.err" || {
        echo "   repro: a warm 'all' regenerated $trace instead of replaying it"; exit 1; }
done
if grep -q "a5: replayed from" "$CACHE/all.warm.err"; then
    echo "   repro: a warm 'all' replayed a5, whose file system compare reads"; exit 1
fi
# An unknown experiment is refused before any trace is generated.
STATUS=0
./target/release/repro nosuch 2>"$CACHE/nosuch.err" >/dev/null || STATUS=$?
if [ "$STATUS" != 1 ] || grep -q generating "$CACHE/nosuch.err"; then
    echo "   repro: an unknown experiment exited $STATUS or generated traces first"; exit 1
fi

echo "== numeric flags refuse values no run can use"
# Simulated hours and the user scale must be finite and positive: a bad
# value exits 1, naming the flag, before anything is generated or
# written. An infinite run would never end and an infinite scale asks
# for 2^32 - 1 users a machine, so each check runs under a timeout and
# an address-space cap and fails rather than hangs if that comes back.
(
    ulimit -v 1048576
    for hours in -1 0 nan inf; do
        STATUS=0
        timeout 60 ./target/release/repro table3 --hours "$hours" \
            2>"$CACHE/hours.err" >/dev/null || STATUS=$?
        if [ "$STATUS" != 1 ] || grep -q generating "$CACHE/hours.err" \
            || ! grep -q -- --hours "$CACHE/hours.err"; then
            echo "   repro: --hours $hours exited $STATUS or generated traces first"; exit 1
        fi
    done
    for flag in --hours --user-scale; do
        rm -f "$CACHE/inf.fstr"
        STATUS=0
        timeout 60 ./target/release/mktrace a5 "$flag" inf -o "$CACHE/inf.fstr" \
            2>"$CACHE/flag.err" || STATUS=$?
        if [ "$STATUS" != 1 ] || [ -e "$CACHE/inf.fstr" ] \
            || ! grep -q -- "$flag" "$CACHE/flag.err"; then
            echo "   mktrace: $flag inf exited $STATUS or wrote its output"; exit 1
        fi
    done
    STATUS=0
    timeout 60 ./target/release/bench stream --hours inf >/dev/null 2>"$CACHE/flag.err" \
        || STATUS=$?
    if [ "$STATUS" != 1 ] || ! grep -q -- --hours "$CACHE/flag.err"; then
        echo "   bench: stream --hours inf exited $STATUS"; exit 1
    fi
)

echo "== cargo test"
cargo test -q

echo "== benchmark package builds and passes its tests"
# e2ebench sits outside the workspace (its own lock file) and calls
# fsanalysis, tracestore, tracestored and workload through their public
# APIs; building and testing it here catches a signature change before
# the benchmark itself has to run.
cargo test --release --offline -q --manifest-path e2ebench/Cargo.toml

echo "== metrics invariants and goldens"
cargo test -q -p bsdtrace --test metrics --test goldens
cargo test -q -p cachesim --test sharing

echo "== archive corruption drill at the CLI surface"
# Same drill at the CLI surface: tracefmt verify must exit 0 on a
# fresh archive and 1 on a vandalized one, naming exactly one chunk.
SMOKE=target/artifacts/archive_smoke
rm -rf "$SMOKE" && mkdir -p "$SMOKE"
./target/release/mktrace a5 --hours 0.2 -o "$SMOKE/a5.fstr" 2>/dev/null
./target/release/tracefmt pack "$SMOKE/a5.fstr" "$SMOKE/a5.tsa" --chunk-kib 8 2>/dev/null
./target/release/tracefmt verify "$SMOKE/a5.tsa" >/dev/null
./target/release/tracefmt unpack "$SMOKE/a5.tsa" "$SMOKE/back.fstr" 2>/dev/null
cmp "$SMOKE/a5.fstr" "$SMOKE/back.fstr"
# The text codec at the CLI: the trace dumped to text, packed from the
# text and unpacked comes back byte for byte; a user id past 32 bits is
# rejected, not wrapped.
./target/release/tracefmt dump "$SMOKE/a5.fstr" > "$SMOKE/a5.txt"
./target/release/tracefmt pack "$SMOKE/a5.txt" "$SMOKE/text.tsa" --chunk-kib 8 2>/dev/null
./target/release/tracefmt unpack "$SMOKE/text.tsa" "$SMOKE/text.fstr" 2>/dev/null
cmp "$SMOKE/a5.fstr" "$SMOKE/text.fstr"
# summary reads every format through the same reader as dump: the
# flat, text and (intact) archive copies of the trace summarize alike.
./target/release/tracefmt summary "$SMOKE/a5.fstr" > "$SMOKE/summary.fstr"
for copy in a5.txt text.tsa; do
    ./target/release/tracefmt summary "$SMOKE/$copy" | cmp - "$SMOKE/summary.fstr" || {
        echo "   archive: tracefmt summary of $copy differs from the flat trace's"; exit 1; }
done
echo "0 unlink 1 4294967296" > "$SMOKE/big_user.txt"
if ./target/release/tracefmt pack "$SMOKE/big_user.txt" "$SMOKE/big_user.tsa" 2>/dev/null; then
    echo "   archive: pack accepted user id 2^32"; exit 1
fi
# Flip one byte mid-file (safely inside some chunk's frame): xor with
# 0x80 so the write is never a no-op.
SIZE=$(wc -c < "$SMOKE/a5.tsa")
AT=$((SIZE / 2))
BYTE=$(od -An -tu1 -j "$AT" -N1 "$SMOKE/a5.tsa" | tr -d ' ')
printf "\\$(printf '%03o' $(( (BYTE + 128) % 256 )))" \
    | dd bs=1 count=1 seek="$AT" conv=notrunc of="$SMOKE/a5.tsa" 2>/dev/null
if ./target/release/tracefmt verify "$SMOKE/a5.tsa" > "$SMOKE/verify.out"; then
    echo "   archive: verify accepted a corrupt archive"; exit 1
fi
BAD=$(grep -c CORRUPT "$SMOKE/verify.out")
if [ "$BAD" != 1 ]; then
    echo "   archive: verify reported $BAD bad chunks, want 1"; exit 1
fi
echo "   tracefmt: binary and text pack/unpack round-trip, summary agrees across formats, verify isolates the bad chunk"

echo "== cross-fidelity experiment smoke"
# The fidelity experiment replays the Table VI grid at block, syscall,
# and open fidelity in one sweep and renders the divergence table; the
# smoke requires it to run end-to-end and produce that table.
./target/release/repro fidelity --hours 0.1 > target/artifacts/fidelity_smoke.txt
grep -q "Cross-fidelity" target/artifacts/fidelity_smoke.txt || {
    echo "   fidelity: divergence table missing from output"; exit 1
}
echo "   fidelity: divergence table rendered (target/artifacts/fidelity_smoke.txt)"

echo "== trace-serving daemon CLI smoke"
# The same drill at the CLI surface: start a daemon, stream a fleet
# into it with mktrace --serve, query it, inspect its shard directory,
# and shut it down cleanly. The fleet it serves must equal the same
# fleet generated locally, record for record: the daemon's merge and
# the fleet runner's merge agree.
SERVE=target/artifacts/serve_smoke
rm -rf "$SERVE" && mkdir -p "$SERVE"
# Starts a daemon on a free port over the shard dir "$SERVE/$1"; sets
# DAEMON and ADDR. Until a clean `wait` clears it, a trap kills the
# daemon when a failed check exits, so no daemon outlives the script
# (its open stdout would hang a pipe the script's output goes into).
start_daemon() {
    ./target/release/tracestored serve --addr 127.0.0.1:0 --dir "$SERVE/$1" \
        --shard-kib 256 --port-file "$SERVE/$1.port" 2>"$SERVE/$1.log" &
    DAEMON=$!
    trap 'kill "$DAEMON" 2>/dev/null' EXIT
    for _ in $(seq 50); do [ -s "$SERVE/$1.port" ] && break; sleep 0.1; done
    [ -s "$SERVE/$1.port" ] || { echo "   serve: daemon never wrote its port"; exit 1; }
    ADDR="127.0.0.1:$(cat "$SERVE/$1.port")"
}
start_daemon shards
./target/release/mktrace a5 --hours 0.05 --machines 2 --serve "$ADDR" 2>/dev/null
./target/release/tracestored client --addr "$ADDR" range 0 18446744073709551615 \
    > "$SERVE/served.txt" 2>/dev/null
./target/release/tracestored client --addr "$ADDR" summary > "$SERVE/summary.txt"
grep -qi "trace" "$SERVE/summary.txt" || {
    echo "   serve: summary reply looks empty"; exit 1; }
./target/release/tracestored client --addr "$ADDR" analyze > "$SERVE/analyze.txt"
grep -q "== activity ==" "$SERVE/analyze.txt" || {
    echo "   serve: analyze reply looks empty"; exit 1; }
./target/release/tracestored client --addr "$ADDR" metrics | \
    grep -q "tracestored_ingest_records" || {
    echo "   serve: /metrics missing ingest counter"; exit 1; }
# Metric names are bounded: no name carries a connection or shard
# number, so 20 more connections leave /metrics as many lines long.
METRIC_LINES=$(./target/release/tracestored client --addr "$ADDR" metrics | wc -l)
for _ in $(seq 20); do
    ./target/release/tracestored client --addr "$ADDR" summary >/dev/null
done
[ "$(./target/release/tracestored client --addr "$ADDR" metrics | wc -l)" -eq "$METRIC_LINES" ] || {
    echo "   serve: /metrics grew with connections"; exit 1; }
./target/release/tracestored client --addr "$ADDR" shutdown
wait "$DAEMON" || { echo "   serve: daemon exited nonzero"; exit 1; }
trap - EXIT
./target/release/tracefmt inspect "$SERVE/shards" > "$SERVE/inspect.txt"
grep -q "shard dir:" "$SERVE/inspect.txt" || {
    echo "   serve: tracefmt inspect did not recognize the shard dir"; exit 1; }
./target/release/mktrace a5 --hours 0.05 --machines 2 -o "$SERVE/local.fstr" 2>/dev/null
./target/release/tracefmt dump "$SERVE/local.fstr" > "$SERVE/local.txt"
cmp "$SERVE/served.txt" "$SERVE/local.txt" || {
    echo "   serve: served fleet differs from the locally generated fleet"; exit 1; }
# The same records through the other ingest path: the local fleet,
# packed and sent by `client ingest` to a fresh daemon, must get the
# same served analysis as the fleet mktrace --serve streamed.
./target/release/tracefmt pack "$SERVE/local.fstr" "$SERVE/local.tsa" 2>/dev/null
start_daemon shards_ingest
./target/release/tracestored client --addr "$ADDR" ingest "$SERVE/local.tsa" 2>/dev/null
./target/release/tracestored client --addr "$ADDR" analyze > "$SERVE/analyze_ingest.txt"
./target/release/tracestored client --addr "$ADDR" shutdown
wait "$DAEMON" || { echo "   serve: daemon exited nonzero"; exit 1; }
trap - EXIT
cmp "$SERVE/analyze.txt" "$SERVE/analyze_ingest.txt" || {
    echo "   serve: analyze after client ingest differs from analyze after mktrace --serve"; exit 1; }
# Fewer workers than machines: the fleet runner sends every machine's
# epoch k before any machine's epoch k+1, so a machine that holds the
# daemon's watermark always has its next frames on the wire. A fresh
# daemon, because the first hello fixes a session's input count.
start_daemon shards3
./target/release/mktrace a5 --hours 0.05 --machines 3 --jobs 1 --serve "$ADDR" 2>/dev/null
./target/release/tracestored client --addr "$ADDR" range 0 18446744073709551615 \
    > "$SERVE/served3.txt" 2>/dev/null
./target/release/tracestored client --addr "$ADDR" shutdown
wait "$DAEMON" || { echo "   serve: daemon exited nonzero"; exit 1; }
trap - EXIT
./target/release/mktrace a5 --hours 0.05 --machines 3 --jobs 1 -o "$SERVE/local3.fstr" 2>/dev/null
./target/release/tracefmt dump "$SERVE/local3.fstr" > "$SERVE/local3.txt"
cmp "$SERVE/served3.txt" "$SERVE/local3.txt" || {
    echo "   serve: served fleet at --machines 3 --jobs 1 differs from the local fleet"; exit 1; }
# One machine of one profile: mktrace serves the single-machine trace
# that -o writes (input 0 of 1, zero id offsets), not a fleet of one.
start_daemon shards1
./target/release/mktrace a5 --hours 0.05 --machines 1 --serve "$ADDR" 2>/dev/null
./target/release/tracestored client --addr "$ADDR" range 0 18446744073709551615 \
    > "$SERVE/served1.txt" 2>/dev/null
./target/release/tracestored client --addr "$ADDR" shutdown
wait "$DAEMON" || { echo "   serve: daemon exited nonzero"; exit 1; }
trap - EXIT
./target/release/mktrace a5 --hours 0.05 --machines 1 -o "$SERVE/local1.fstr" 2>/dev/null
./target/release/tracefmt dump "$SERVE/local1.fstr" > "$SERVE/local1.txt"
cmp "$SERVE/served1.txt" "$SERVE/local1.txt" || {
    echo "   serve: served trace at --machines 1 differs from the local trace"; exit 1; }
echo "   serve: daemon round-trip, query, bounded /metrics, inspect, clean shutdown, served = local at 1, 2 and 3 machines, analyze alike through both ingest paths"

echo "== metrics artifact"
# Stamp the metrics JSON with the commit it came from and leave it in
# target/artifacts/ for CI to upload.
SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
mkdir -p target/artifacts
BSDTRACE_GIT_SHA="$SHA" ./target/release/repro table6 --hours 0.1 \
    --metrics "target/artifacts/metrics-$SHA.json" >/dev/null
echo "   wrote target/artifacts/metrics-$SHA.json"

echo "== bench gates"
# Last, after every correctness section: a timing floor missed on a
# small host must not hide a correctness failure. Each row of the gate
# table (crates/core/src/bin/bench/gates.rs) runs one bench scenario
# with that row's parameters in its own process, writes its artifact
# to target/artifacts/ROW.json, prints a one-line verdict, and exits 1
# naming the first failed check. The streaming
# smoke runs under a hard 512 MB address-space cap: the streaming
# pipeline must generate, analyze, and replay a 2-hour trace inside it
# (the simulated disk's block map alone reserves ~264 MB of address
# space, touched sparsely).
mkdir -p target/artifacts
(
    ulimit -v 524288
    ./target/release/bench check BENCH_streaming_smoke \
        > target/artifacts/BENCH_streaming_smoke.json
)
for gate in BENCH_4 BENCH_4_table7 BENCH_archive_smoke BENCH_5 BENCH_6 \
    BENCH_7 BENCH_8 BENCH_9 BENCH_10; do
    ./target/release/bench check "$gate" > "target/artifacts/$gate.json"
done

echo "ci.sh: all green"

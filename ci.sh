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

echo "== bounded-memory smoke (streaming pipeline under ulimit -v)"
# The streaming pipeline must generate, analyze, and replay a 2-hour
# trace inside a hard 512 MB address-space cap (the simulated disk's
# block map alone reserves ~264 MB of address space, touched sparsely)
# — and its reorder buffer must stay sublinear in trace length (the
# fstrace.pipeline.buffered_records_peak gauge, printed by streambench
# from the obs registry).
mkdir -p target/artifacts
(
    ulimit -v 524288
    ./target/release/streambench --mode streaming --hours 2 --json \
        > target/artifacts/BENCH_streaming_smoke.json
)
awk -F'[:,]' '
    /"records"/ { records = $2 }
    /"buffered_records_peak"/ { peak = $2 }
    END {
        if (records < 1000) { print "   smoke: too few records (" records ")"; exit 1 }
        if (peak <= 0 || peak * 20 > records) {
            print "   smoke: reorder buffer not sublinear (" peak " of " records ")"; exit 1
        }
        print "   smoke: " records " records, buffered peak " peak
    }' target/artifacts/BENCH_streaming_smoke.json

echo "== streaming vs materialized benchmark artifact"
# Both modes, same workload: digests must match (the streaming pipeline
# is the only implementation; this is the end-to-end check), and the
# artifact records the wall/RSS comparison for trend-watching.
./target/release/streambench --mode materialized --hours 1 --json \
    > target/artifacts/BENCH_materialized.json
./target/release/streambench --mode streaming --hours 1 --json \
    > target/artifacts/BENCH_streaming.json
for key in records total_bytes miss_ratio disk_reads disk_writes; do
    a=$(grep "\"$key\"" target/artifacts/BENCH_materialized.json)
    b=$(grep "\"$key\"" target/artifacts/BENCH_streaming.json)
    if [ "$a" != "$b" ]; then
        echo "   digest mismatch on $key: '$a' vs '$b'"
        exit 1
    fi
done
echo "   wrote target/artifacts/BENCH_{streaming,materialized}.json (digests identical)"

echo "== single-pass stack-distance sweep benchmark artifact"
# One profiled pass vs 24 direct replays of the Table VI grid on the
# same trace. The binary verifies the two result vectors are identical
# before printing; the gate additionally requires the profiled sweep to
# be at least 3x faster and the results flag to read true.
./target/release/sweepbench --hours 0.25 --seed 1985 --jobs 1 --json \
    > target/artifacts/BENCH_4.json
awk -F'[:,]' '
    /"speedup"/ { speedup = $2 }
    /"identical"/ { identical = $2 }
    END {
        gsub(/[ "]/, "", identical)
        if (identical != "true") { print "   sweep: results diverged"; exit 1 }
        if (speedup + 0 < 3) { print "   sweep: speedup " speedup " < 3x"; exit 1 }
        print "   sweep: identical results, " speedup "x over direct replays"
    }' target/artifacts/BENCH_4.json
echo "   wrote target/artifacts/BENCH_4.json"

echo "== Table VII profiled sweep benchmark artifact"
# The grid where a profile saves least: Table VII's 6 block sizes x 4
# cache sizes are six 4-cell profiles, timed against one expansion plus
# 24 direct replays on a 2-hour trace (shorter traces time too noisily
# to gate). The binary exits nonzero if the results differ; the gate
# re-asserts identity and requires the profiles to be at least 1.2x
# faster.
./target/release/sweepbench --hours 2 --seed 1985 --jobs 1 --json \
    > target/artifacts/BENCH_4_table7.json
awk -F'[:,]' '
    /"table7_speedup"/ { speedup = $2 }
    /"table7_identical"/ { identical = $2 }
    END {
        gsub(/[ "]/, "", identical)
        if (identical != "true") { print "   table7 sweep: results diverged"; exit 1 }
        if (speedup + 0 < 1.2) { print "   table7 sweep: speedup " speedup " < 1.2x"; exit 1 }
        print "   table7 sweep: identical results, " speedup "x over direct replays"
    }' target/artifacts/BENCH_4_table7.json
echo "   wrote target/artifacts/BENCH_4_table7.json"

echo "== archive corruption-recovery smoke"
# Pack a 2-hour trace into a tracestore archive, let archivebench flip
# one byte in the middle of a mid-file chunk, and require that exactly
# one chunk is reported corrupt while every record outside it is
# recovered — and that a Table VI sweep over the archive replay is
# bit-identical to the in-memory sweep. The binary itself exits
# nonzero if either check fails; the awk gate re-asserts from the
# artifact so a silent format change can't slip through.
./target/release/archivebench --hours 2 --seed 1985 --jobs 4 --json \
    > target/artifacts/BENCH_archive_smoke.json
awk -F'[:,]' '
    /"identical"/ { identical = $2 }
    /"recovery_ok"/ { ok = $2 }
    /"corrupt_chunks_skipped"/ { skipped = $2 }
    /"records_recovered"/ { recovered = $2 }
    /"pack_mb_s"/ { pack = $2 }
    /"compression_ratio"/ { ratio = $2 }
    END {
        gsub(/[ "]/, "", identical); gsub(/[ "]/, "", ok)
        if (identical != "true") { print "   archive: sweep diverged"; exit 1 }
        if (ok != "true") { print "   archive: recovery not isolated"; exit 1 }
        if (skipped + 0 != 1) { print "   archive: " skipped " chunks skipped, want 1"; exit 1 }
        print "   archive: 1 chunk lost, " recovered " records recovered, " \
            pack " MB/s pack, " ratio "x compression"
    }' target/artifacts/BENCH_archive_smoke.json

# Same drill at the CLI surface: tracefmt verify must exit 0 on a
# fresh archive and 1 on a vandalized one, naming exactly one chunk.
SMOKE=target/artifacts/archive_smoke
rm -rf "$SMOKE" && mkdir -p "$SMOKE"
./target/release/mktrace a5 --hours 0.2 -o "$SMOKE/a5.fstr" 2>/dev/null
./target/release/tracefmt pack "$SMOKE/a5.fstr" "$SMOKE/a5.tsa" --chunk-kib 8 2>/dev/null
./target/release/tracefmt verify "$SMOKE/a5.tsa" >/dev/null
./target/release/tracefmt unpack "$SMOKE/a5.tsa" "$SMOKE/back.fstr" 2>/dev/null
cmp "$SMOKE/a5.fstr" "$SMOKE/back.fstr"
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
echo "   tracefmt: pack/unpack round-trips, verify isolates the bad chunk"

echo "== chunk-parallel archive decode benchmark artifact"
# Archive replay of the Table VI sweep must be identical to the
# in-memory path (asserted above and again here), and chunk-parallel
# decode must be >= 2x faster than single-threaded decode at --jobs 4
# — but only where that is physically possible. On containers with
# fewer than 4 cores the threads time-slice one CPU and the speedup
# clause is vacuous, so the gate degrades to the identity + recovery
# assertions plus a sanity floor (parallel decode must not be
# pathologically slower than sequential). The `cores` field in the
# artifact records which regime applied.
./target/release/archivebench --hours 0.5 --seed 1985 --jobs 4 --json \
    > target/artifacts/BENCH_5.json
awk -F'[:,]' '
    /"cores"/ { cores = $2 }
    /"par_speedup"/ { speedup = $2 }
    /"identical"/ { identical = $2 }
    /"recovery_ok"/ { ok = $2 }
    END {
        gsub(/[ "]/, "", identical); gsub(/[ "]/, "", ok)
        if (identical != "true") { print "   archive: sweep diverged"; exit 1 }
        if (ok != "true") { print "   archive: recovery failed"; exit 1 }
        if (cores + 0 >= 4) {
            if (speedup + 0 < 2) { print "   archive: parallel decode " speedup "x < 2x on " cores " cores"; exit 1 }
            print "   archive: parallel decode " speedup "x over sequential (" cores " cores)"
        } else {
            if (speedup + 0 < 0.25) { print "   archive: parallel decode pathologically slow (" speedup "x)"; exit 1 }
            print "   archive: " cores " core(s) — speedup gate waived, identity + recovery hold (" speedup "x)"
        }
    }' target/artifacts/BENCH_5.json
echo "   wrote target/artifacts/BENCH_5.json"

echo "== columnar batched decode benchmark artifact"
# Scalar record-at-a-time decode vs the columnar RecordBlock path over
# an uncompressed archive (so varint decode is what's measured, not
# LZ77), plus end-to-end replay throughput through Simulator::run_blocks.
# The binary asserts bit-identical decode output; the gate requires the
# batched path to clear 2x the scalar baseline's records/s. Like the
# BENCH_5 gate this is core-count-adaptive: on a single shared core the
# scheduler noise swamps sub-millisecond timings, so the requirement
# degrades to a 1.5x floor there instead of going vacuous entirely.
./target/release/archivebench --hours 4 --seed 1985 --jobs 4 --json \
    > target/artifacts/BENCH_6.json
awk -F'[:,]' '
    /"cores"/ { cores = $2 }
    /"decode_scalar_records_s"/ { scalar = $2 }
    /"decode_block_records_s"/ { block = $2 }
    /"decode_speedup"/ { speedup = $2 }
    /"replay_records_s"/ { replay = $2 }
    /"identical"/ { identical = $2 }
    END {
        gsub(/[ "]/, "", identical)
        if (identical != "true") { print "   decode: sweep diverged"; exit 1 }
        if (scalar + 0 <= 0) { print "   decode: scalar throughput missing"; exit 1 }
        if (block + 0 <= 0) { print "   decode: batched throughput missing"; exit 1 }
        if (replay + 0 <= 0) { print "   decode: replay throughput missing"; exit 1 }
        floor = (cores + 0 >= 2) ? 2 : 1.5
        if (speedup + 0 < floor) {
            print "   decode: batched " speedup "x < " floor "x scalar (" cores " cores)"; exit 1
        }
        printf "   decode: batched %.0f rec/s vs scalar %.0f rec/s (%sx, floor %sx on %s core(s)), replay %.0f rec/s\n", \
            block, scalar, speedup, floor, cores, replay
    }' target/artifacts/BENCH_6.json
echo "   wrote target/artifacts/BENCH_6.json"

echo "== fleet generation benchmark artifact"
# The same 8-machine fleet generated with 1 worker and with 4 workers
# must merge to byte-identical traces (the fleet's determinism
# contract, asserted by the binary and re-asserted here), with zero
# command errors. The speedup floor is core-count-adaptive like
# BENCH_5/6: >= 2x on 4+ cores, >= 1.2x on 2-3, and on one core just a
# pathology floor — the identity check is the part that can never be
# waived.
./target/release/fleetbench --machines 8 --hours 0.25 --user-scale 0.5 \
    --jobs 4 --json > target/artifacts/BENCH_7.json
awk -F'[:,]' '
    /"cores"/ { cores = $2 }
    /"identical"/ { identical = $2 }
    /"speedup"/ { speedup = $2 }
    /"errors"/ { errors = $2 }
    /"parallel_records_s"/ { rps = $2 }
    END {
        gsub(/[ "]/, "", identical)
        if (identical != "true") { print "   fleet: jobs=1 vs jobs=4 diverged"; exit 1 }
        if (errors + 0 != 0) { print "   fleet: " errors " command errors"; exit 1 }
        if (cores + 0 >= 4) floor = 2; else if (cores + 0 >= 2) floor = 1.2; else floor = 0.4
        if (speedup + 0 < floor) {
            print "   fleet: speedup " speedup "x < " floor "x (" cores " cores)"; exit 1
        }
        printf "   fleet: byte-identical across jobs, %.0f records/s parallel (%sx, floor %sx on %s core(s))\n", \
            rps, speedup, floor, cores
    }' target/artifacts/BENCH_7.json
echo "   wrote target/artifacts/BENCH_7.json"

echo "== cross-fidelity experiment smoke"
# The fidelity experiment replays the Table VI grid at block, syscall,
# and open fidelity in one sweep and renders the divergence table; the
# smoke requires it to run end-to-end and produce that table.
./target/release/repro fidelity --hours 0.1 > target/artifacts/fidelity_smoke.txt
grep -q "Cross-fidelity" target/artifacts/fidelity_smoke.txt || {
    echo "   fidelity: divergence table missing from output"; exit 1
}
echo "   fidelity: divergence table rendered (target/artifacts/fidelity_smoke.txt)"

echo "== replay-fidelity benchmark artifact"
# Replay throughput per fidelity over the same trace. Coarser
# fidelities expand fewer events and skip per-block byte accounting,
# so syscall replay must not be slower than block replay: >= 1.0x on
# 2+ cores, with a 0.9x floor on single-core containers where timer
# noise can eat the margin.
./target/release/fidelitybench --hours 0.5 --seed 1985 --json \
    > target/artifacts/BENCH_8.json
awk -F'[:,]' '
    /"cores"/ { cores = $2 }
    /"block_records_per_s"/ { block = $2 }
    /"syscall_records_per_s"/ { syscall = $2 }
    /"open_records_per_s"/ { open = $2 }
    /"syscall_speedup"/ { speedup = $2 }
    END {
        if (block + 0 <= 0) { print "   fidelity: block throughput missing"; exit 1 }
        if (syscall + 0 <= 0) { print "   fidelity: syscall throughput missing"; exit 1 }
        if (open + 0 <= 0) { print "   fidelity: open throughput missing"; exit 1 }
        floor = (cores + 0 >= 2) ? 1.0 : 0.9
        if (speedup + 0 < floor) {
            print "   fidelity: syscall replay " speedup "x < " floor "x block (" cores " cores)"; exit 1
        }
        printf "   fidelity: block %.0f, syscall %.0f, open %.0f rec/s (syscall %sx, floor %sx on %s core(s))\n", \
            block, syscall, open, speedup, floor, cores
    }' target/artifacts/BENCH_8.json
echo "   wrote target/artifacts/BENCH_8.json"

echo "== overlapped decode->replay pipeline benchmark artifact"
# End-to-end records/s through the pipelined reader (decode overlapped
# with replay on a worker pool) vs the serial decode+replay path over
# the same archive. The binary asserts the pipelined cache metrics and
# analysis suite are bit-identical to the serial ones before printing.
# The speedup gate is core-count-adaptive like BENCH_5/6/7/8: >= 1.5x
# on 4+ cores where decode and replay genuinely overlap, >= 1.2x on
# 2-3 cores, and on one core just a 0.8x pathology floor (the threads
# time-slice one CPU, so overlap cannot pay and condvar handoffs cost
# a few percent — the identity checks and the absolute decode floor
# are the non-waivable part). Pipelined decode alone must always
# clear 5M records/s.
./target/release/pipebench --hours 2 --seed 1985 --json \
    > target/artifacts/BENCH_9.json
awk -F'[:,]' '
    /"cores"/ { cores = $2 }
    /"decode_pipelined_records_s"/ { decode = $2 }
    /"replay_serial_records_s"/ { serial = $2 }
    /"replay_pipelined_records_s"/ { piped = $2 }
    /"replay_speedup"/ { speedup = $2 }
    /"analysis_records_s"/ { analysis = $2 }
    /"identical"/ { identical = $2 }
    /"analysis_identical"/ { aidentical = $2 }
    END {
        gsub(/[ "]/, "", identical); gsub(/[ "]/, "", aidentical)
        if (identical != "true") { print "   pipeline: replay metrics diverged"; exit 1 }
        if (aidentical != "true") { print "   pipeline: analysis suite diverged"; exit 1 }
        if (decode + 0 < 5000000) {
            print "   pipeline: pipelined decode " decode " rec/s < 5M floor"; exit 1
        }
        if (cores + 0 >= 4) floor = 1.5; else if (cores + 0 >= 2) floor = 1.2; else floor = 0.8
        if (speedup + 0 < floor) {
            print "   pipeline: replay " speedup "x < " floor "x serial (" cores " cores)"; exit 1
        }
        printf "   pipeline: replay %.0f rec/s pipelined vs %.0f serial (%sx, floor %sx on %s core(s)), analysis %.0f rec/s\n", \
            piped, serial, speedup, floor, cores, analysis
    }' target/artifacts/BENCH_9.json
echo "   wrote target/artifacts/BENCH_9.json"

echo "== trace-serving daemon benchmark artifact"
# servebench streams a 6-machine fleet into an in-process tracestored
# from concurrent client connections, then asserts the two daemon
# contracts: the server's shard directory is byte-identical to an
# offline FleetMerge through an identically configured ShardSet, and
# served summary/analyze/range replies equal local computation. Both
# are gated unconditionally. The concurrent ingest floor is core-count-
# adaptive like BENCH_5..9: >= 200k records/s on 4+ cores, >= 100k on
# 2-3, >= 50k on a single shared core.
./target/release/servebench --machines 6 --hours 0.5 --seed 1985 --json \
    > target/artifacts/BENCH_10.json
awk -F'[:,]' '
    /"cores"/ { cores = $2 }
    /"identical"/ { identical = $2 }
    /"queries_match"/ { queries = $2 }
    /"ingest_records_s"/ { rps = $2 }
    /"shards"/ { shards = $2 }
    END {
        gsub(/[ "]/, "", identical); gsub(/[ "]/, "", queries)
        if (identical != "true") { print "   serve: shards differ from offline merge"; exit 1 }
        if (queries != "true") { print "   serve: query replies diverged"; exit 1 }
        if (shards + 0 < 2) { print "   serve: no shard rotation (" shards ")"; exit 1 }
        if (cores + 0 >= 4) floor = 200000; else if (cores + 0 >= 2) floor = 100000; else floor = 50000
        if (rps + 0 < floor) {
            print "   serve: ingest " rps " records/s < " floor " floor (" cores " cores)"; exit 1
        }
        printf "   serve: byte-identical shards, queries match, %.0f records/s ingest (floor %d on %s core(s))\n", \
            rps, floor, cores
    }' target/artifacts/BENCH_10.json
echo "   wrote target/artifacts/BENCH_10.json"

echo "== trace-serving daemon CLI smoke"
# The same drill at the CLI surface: start a daemon, stream a fleet
# into it with mktrace --serve, query it, inspect its shard directory,
# and shut it down cleanly.
SERVE=target/artifacts/serve_smoke
rm -rf "$SERVE" && mkdir -p "$SERVE"
./target/release/tracestored serve --addr 127.0.0.1:0 --dir "$SERVE/shards" \
    --shard-kib 256 --port-file "$SERVE/port" 2>"$SERVE/daemon.log" &
DAEMON=$!
for _ in $(seq 50); do [ -s "$SERVE/port" ] && break; sleep 0.1; done
[ -s "$SERVE/port" ] || { echo "   serve: daemon never wrote its port"; exit 1; }
ADDR="127.0.0.1:$(cat "$SERVE/port")"
./target/release/mktrace a5 --hours 0.05 --machines 2 --serve "$ADDR" 2>/dev/null
./target/release/tracestored client --addr "$ADDR" summary > "$SERVE/summary.txt"
grep -qi "trace" "$SERVE/summary.txt" || {
    echo "   serve: summary reply looks empty"; exit 1; }
./target/release/tracestored client --addr "$ADDR" metrics | \
    grep -q "tracestored_ingest_records" || {
    echo "   serve: /metrics missing ingest counter"; exit 1; }
./target/release/tracestored client --addr "$ADDR" shutdown
wait "$DAEMON" || { echo "   serve: daemon exited nonzero"; exit 1; }
./target/release/tracefmt inspect "$SERVE/shards" > "$SERVE/inspect.txt"
grep -q "shard dir:" "$SERVE/inspect.txt" || {
    echo "   serve: tracefmt inspect did not recognize the shard dir"; exit 1; }
echo "   serve: daemon round-trip, query, inspect, clean shutdown"

echo "== metrics artifact"
# Stamp the metrics JSON with the commit it came from and leave it in
# target/artifacts/ for CI to upload.
SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
mkdir -p target/artifacts
BSDTRACE_GIT_SHA="$SHA" ./target/release/repro table6 --hours 0.1 \
    --metrics "target/artifacts/metrics-$SHA.json" >/dev/null
echo "   wrote target/artifacts/metrics-$SHA.json"

echo "ci.sh: all green"

#!/usr/bin/env sh
# CI gate: the tier-1 build/test pass, the benchmark package's own tests
# (perfbench/ calls the public API), the fault-injection and crash
# sweeps, plus a fleet smoke run through the CLI (16 copies embedded and
# recognized end to end, with stage-level metrics captured), a quick
# fleet bench emitting BENCH_fleet.json, the trace/scan, fused, native
# stepping and embed equivalence gates, the serve kill -9 drill, and
# last a quick recognition bench emitting BENCH_recognize.json with its
# wall-clock gates. Both bench payloads are copied back to the repo root
# so the checked-in snapshots never go stale relative to the code.
# Offline-safe: the workspace has no external dependencies.
set -eu

cd "$(dirname "$0")/.."
ROOT=$(pwd)

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> warnings gate: clippy is clean across the workspace"
cargo clippy --all-targets -- -D warnings

echo "==> docs gate: rustdoc is clean across the workspace"
# A broken or private intra-doc link (say, to a deleted type) fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> benchmark package: its own tests, against the current public API"
CARGO_TARGET_DIR=.bench_build cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> fault-injection gate: deterministic fault/retry/resume tests"
cargo test -q --test fleet_pipeline fault_
# The durable-write crash sweeps, in release: a LineLog, a batch
# ReportWriter and the serve journal are killed at every byte they write
# and at every step of their own resume, and must resume to exactly
# what had returned Ok (and finalize the uninterrupted reports).
cargo test -q --release -p pathmark-fleet --lib crash_
cargo test -q --release -p pathmark-serve --lib crash_journal

echo "==> fleet smoke: 16-copy embed/recognize round trip with metrics"
BIN=target/release/pathmark
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

"$BIN" demo --out "$SMOKE/demo.pmvm"
i=0
while [ "$i" -lt 16 ]; do
    printf '{"job_id":"copy-%03d"}\n' "$i"
    i=$((i + 1))
done > "$SMOKE/manifest.jsonl"

"$BIN" fleet embed --program "$SMOKE/demo.pmvm" \
    --manifest "$SMOKE/manifest.jsonl" --out-dir "$SMOKE/copies" \
    --workers 4 --seed 7 --input 12 --bits 128 \
    --retries 2 --job-timeout 60000 \
    --metrics "$SMOKE/embed-metrics.jsonl" --metrics-format jsonl

count=$(ls "$SMOKE/copies"/*.pmvm | wc -l)
[ "$count" -eq 16 ] || { echo "expected 16 copies, got $count" >&2; exit 1; }
grep -q '"attempts":1' "$SMOKE/copies/report.jsonl" \
    || { echo "embed report missing attempts field" >&2; exit 1; }
[ ! -e "$SMOKE/copies/report.jsonl.partial" ] \
    || { echo "finalized report left a .partial sidecar behind" >&2; exit 1; }

echo "==> fleet resume: a second run settles instantly and changes nothing"
"$BIN" fleet embed --program "$SMOKE/demo.pmvm" \
    --manifest "$SMOKE/manifest.jsonl" --out-dir "$SMOKE/copies" \
    --workers 4 --seed 7 --input 12 --bits 128 --resume 2>&1 \
    | grep -q "16 resumed" \
    || { echo "resume run did not skip the settled jobs" >&2; exit 1; }

for stage in trace encrypt codegen queue_wait job_run; do
    grep -q "\"stage\":\"$stage\"" "$SMOKE/embed-metrics.jsonl" \
        || { echo "embed metrics missing $stage spans" >&2; exit 1; }
done
grep -q '"counter":"cache_miss"' "$SMOKE/embed-metrics.jsonl" \
    || { echo "embed metrics missing trace-cache counters" >&2; exit 1; }

"$BIN" fleet recognize --dir "$SMOKE/copies" \
    --manifest "$SMOKE/copies/report.jsonl" \
    --workers 4 --seed 7 --input 12 --bits 128 \
    --metrics "$SMOKE/rec-metrics.json" --metrics-format summary \
    > "$SMOKE/recognized.jsonl"

ok=$(grep -c '"status":"ok"' "$SMOKE/recognized.jsonl")
[ "$ok" -eq 16 ] || { echo "expected 16 recognized copies, got $ok" >&2; exit 1; }

for stage in scan_roll scan_decrypt vote; do
    grep -q "\"$stage\":{\"count\"" "$SMOKE/rec-metrics.json" \
        || { echo "recognize metrics summary missing $stage" >&2; exit 1; }
done

echo "==> fleet bench: quick mode emits well-formed BENCH_fleet.json"
( cd "$SMOKE" && "$ROOT/target/release/fleet" --quick > /dev/null )
for want in '"bench":"fleet"' '"quick":true' '"generated_unix":' \
    '"embed":[{"mode":"serial"' '"recognize":[{"mode":"serial"'; do
    grep -qF "$want" "$SMOKE/BENCH_fleet.json" \
        || { echo "BENCH_fleet.json missing $want" >&2; exit 1; }
done
cp "$SMOKE/BENCH_fleet.json" "$ROOT/BENCH_fleet.json"

echo "==> trace/scan equivalence gate: fast paths == references"
# Every fast path must stay bit-identical to its naive reference: the
# compiled interpreter to the enum-walking one over randomized programs
# under off, branches-only and full tracing (and on a program past the
# compile budget it once fell back at), the packed streaming trace sink
# to Vec<TraceEvent> + BitString::from_trace over randomized event
# streams and end-to-end embed/recognize runs, and the packed
# rolling-window scan to the bit-at-a-time reference.
cargo test -q -p stackvm --lib execution_tiers_match_reference
cargo test -q -p stackvm --lib programs_past_the_old_compile_budget_compile_and_match_reference
cargo test -q -p pathmark-core --lib packed_sink_matches_from_trace_reference
cargo test -q -p pathmark-core --lib packed_sink_traces_match_vec_collector_on_random_keys
cargo test -q -p pathmark-core --lib packed_windows_match_naive_reference
# The batched decrypt lanes against the serial cipher oracle, and the
# periodic pre-reject against the push-every-window reference scan
# (marked traces plus adversarial all-runs bitstrings).
cargo test -q -p pathmark-crypto --lib batch_decrypt_matches_serial_oracle
cargo test -q -p pathmark-core --lib periodic_prereject_matches_reference_scan

echo "==> fused-equivalence gate: streaming scan == naive reference scan"
# The fused trace->scan pipeline must produce the Survivors table of
# the naive roll-every-offset scan over the reference interpreter's
# trace, and the Recognition of the stored bits: on marked traces, and
# on adversarial hand-built bitstrings. (The 150-generated-program
# suite holding the compiled tracer plus the streaming scan to that
# reference path — crates/pathmark-core/tests/fused_scan.rs — already
# ran under tier-1 `cargo test -q` above.)
cargo test -q -p pathmark-core --lib fused_scan_matches_two_phase_on_marked_traces
cargo test -q -p pathmark-core --lib streamed_scan_matches_reference_on_adversarial_bitstrings

echo "==> native stepping gate: one stepping loop == the per-function loops it replaced"
# Machine::run, profile_image, extract (both tracers), extract_auto and
# discover_hops all single-step through Machine::run_with. Each must
# return exactly what its old hand-written step loop (kept as a
# test-only reference) returns, values and errors, on all ten native
# workloads, their marked copies and every Section 5.2.2 attack: at a
# generous budget, at the exact budget needed and at one fewer (debug
# builds check two workloads; this release run checks all ten). Then a
# copy that spins after `begin` is traced for 10M steps by both tracers
# and must peak under 32 MB.
cargo test -q --release -p pathmark --test native_stepping
cargo test -q --release -p pathmark-core --test extract_memory

echo "==> embed equivalence gate: one-pass embed == per-piece path, verifier == its reference, engines agree on mutants"
# Embedder::embed_with_trace reads the host trace once and splices each
# touched function once. Its marked program and EmbedReport must equal
# the per-piece path it replaced (kept as a test-only reference) on the
# CaffeineMark-like and Jess-like hosts and the CLI demo program, under
# all three codegen policies and at a piece count that puts pieces on
# one site (debug builds check 3 seeds per case; this release run checks
# 32); a host whose locals leave no room gets a typed error. The
# verifier must return what its predecessor returns on every workload
# host, marked and attacked copy and on seeded hostile mutations of
# them, and the compiled engine what the reference interpreter returns
# on those mutants run unverified (typed errors, never a panic).
# 50,000 settled serve jobs must cost the journal at most 238 B of
# VmRSS each.
cargo test -q --release -p pathmark-core --lib java::embed
cargo test -q --release -p pathmark --test verifier_equivalence
cargo test -q --release -p pathmark-serve --test journal_memory

echo "==> serve smoke: daemon on a unix socket survives kill -9 and resumes bit-identically"
# The daemon fingerprints the same 16 copies as the fleet smoke above,
# through `pathmark connect` over a unix socket. Halfway through we
# kill -9 it, restart with --resume and a byte-capped journal, resubmit
# over TWO CONCURRENT connections, kill -9 again (now with a rotated
# intents file on disk), resume once more, and require the finalized journal
# reports to match the batch reports byte for byte once wall_ms is
# normalized — and the marked copies to match byte for byte, full stop.
# Along the way: a control ping on its own connection must round-trip
# while the recognize batch is in flight, and the restarts reclaim the
# dead daemon's stale socket file themselves.
SOCK="$SMOKE/serve.sock"
JOURNAL="$SMOKE/serve/journal"
mkdir -p "$SMOKE/serve"

# Wait until the daemon answers a ping. Checking for the socket file is
# not enough: a kill -9 leaves the previous daemon's stale file behind,
# and the restart reclaims it only once it is actually up.
serve_wait_ready() {
    n=0
    until printf '{"op":"ping"}\n' | "$BIN" connect --socket "$SOCK" 2>/dev/null \
        | grep -q '"op":"ping"'; do
        n=$((n + 1))
        [ "$n" -lt 300 ] || { echo "serve daemon never answered on $SOCK" >&2; exit 1; }
        sleep 0.1
    done
}

serve_embed_lines() {
    # $1..$2 inclusive job indices
    j="$1"
    while [ "$j" -le "$2" ]; do
        printf '{"op":"embed","tenant":"ci","job_id":"copy-%03d","host":"%s","out_dir":"%s"}\n' \
            "$j" "$SMOKE/demo.pmvm" "$SMOKE/serve/copies"
        j=$((j + 1))
    done
}

OPEN_LINE='{"op":"open","tenant":"ci","seed":7,"input":"12","bits":128}'

"$BIN" serve --journal "$JOURNAL" --socket "$SOCK" --workers 4 --max-inflight 64 &
SERVE_PID=$!
serve_wait_ready

{ printf '%s\n' "$OPEN_LINE"; serve_embed_lines 0 7; } \
    | "$BIN" connect --socket "$SOCK" > "$SMOKE/serve-first.jsonl"
fresh=$(grep -c '"disposition":"fresh"' "$SMOKE/serve-first.jsonl")
[ "$fresh" -eq 8 ] || { echo "expected 8 fresh serve embeds, got $fresh" >&2; exit 1; }

# Feed the second half and kill -9 the daemon mid-stream.
serve_embed_lines 8 15 \
    | "$BIN" connect --socket "$SOCK" > "$SMOKE/serve-cut.jsonl" 2>/dev/null &
CUT_PID=$!
sleep 0.2
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
wait "$CUT_PID" 2>/dev/null || true
[ -e "$JOURNAL.intents.jsonl" ] \
    || { echo "crashed daemon left no intents journal to resume from" >&2; exit 1; }

# No `rm -f "$SOCK"`: the kill -9 left a stale socket file behind, and
# reclaiming it (after probing that no daemon answers) is the restart's
# own job now. A byte cap small enough that the first half's intents
# already exceed it forces journal rotation on this run.
"$BIN" serve --journal "$JOURNAL" --socket "$SOCK" --workers 4 --max-inflight 64 \
    --resume --journal-max-bytes 1024 &
SERVE_PID=$!
serve_wait_ready

# Resubmit every embed over two concurrent connections — the daemon is
# no longer one-client-at-a-time. Each connect returns once its own
# jobs have settled.
{ printf '%s\n' "$OPEN_LINE"; serve_embed_lines 0 7; } \
    | "$BIN" connect --socket "$SOCK" > "$SMOKE/serve-resume-a.jsonl" &
RESUB_A=$!
{ printf '%s\n' "$OPEN_LINE"; serve_embed_lines 8 15; } \
    | "$BIN" connect --socket "$SOCK" > "$SMOKE/serve-resume-b.jsonl" &
RESUB_B=$!
wait "$RESUB_A"
wait "$RESUB_B"
cat "$SMOKE/serve-resume-a.jsonl" "$SMOKE/serve-resume-b.jsonl" > "$SMOKE/serve-resume.jsonl"
resumed=$(grep -c '"disposition":"resumed"' "$SMOKE/serve-resume.jsonl")
[ "$resumed" -ge 8 ] || { echo "expected >= 8 resumed answers, got $resumed" >&2; exit 1; }

# Kill -9 again. The byte cap rotated the intents file, replacing it by
# one with settled jobs folded to markers — the next resume reads that
# one file.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
grep -q '"compact":"settled"' "$JOURNAL.intents.jsonl" \
    || { echo "byte-capped journal never folded settled intents into markers" >&2; exit 1; }

"$BIN" serve --journal "$JOURNAL" --socket "$SOCK" --workers 4 --max-inflight 64 \
    --resume --journal-max-bytes 1024 \
    --metrics "$SMOKE/serve-metrics.jsonl" --metrics-format jsonl &
SERVE_PID=$!
serve_wait_ready

# Every answer on this daemon comes out of the rotated journal.
{ printf '%s\n' "$OPEN_LINE"; serve_embed_lines 0 15; } \
    | "$BIN" connect --socket "$SOCK" > "$SMOKE/serve-compact.jsonl"
resumed=$(grep -c '"disposition":"resumed"' "$SMOKE/serve-compact.jsonl")
[ "$resumed" -eq 16 ] \
    || { echo "expected 16 resumed answers from the rotated journal, got $resumed" >&2; exit 1; }

# Recognize all 16 copies on the warm daemon; while that batch is in
# flight, a control ping on a second connection must round-trip within
# a deadline instead of waiting for the batch's connection to close.
{
    j=0
    while [ "$j" -lt 16 ]; do
        printf '{"op":"recognize","tenant":"ci","job_id":"copy-%03d","program":"%s/copy-%03d.pmvm"}\n' \
            "$j" "$SMOKE/serve/copies" "$j"
        j=$((j + 1))
    done
} | "$BIN" connect --socket "$SOCK" >> "$SMOKE/serve-compact.jsonl" &
REC_PID=$!
PING_T0=$(date +%s)
printf '{"op":"ping"}\n' | "$BIN" connect --socket "$SOCK" > "$SMOKE/serve-ping.jsonl"
PING_T1=$(date +%s)
[ $((PING_T1 - PING_T0)) -le 10 ] \
    || { echo "control ping took $((PING_T1 - PING_T0))s with a batch in flight" >&2; exit 1; }
grep '"op":"ping"' "$SMOKE/serve-ping.jsonl" | grep -q '"status":"ok"' \
    || { echo "control ping was not answered" >&2; exit 1; }
wait "$REC_PID"

# Drain and finalize.
printf '{"op":"stats"}\n{"op":"shutdown"}\n' \
    | "$BIN" connect --socket "$SOCK" >> "$SMOKE/serve-compact.jsonl"
wait "$SERVE_PID"

grep '"op":"stats"' "$SMOKE/serve-compact.jsonl" | grep -q '"shed":0' \
    || { echo "stats response missing or reported shed jobs" >&2; exit 1; }
grep '"op":"stats"' "$SMOKE/serve-compact.jsonl" | grep -q '"tenant_shed":0' \
    || { echo "stats response missing or reported tenant-fairness sheds" >&2; exit 1; }
grep '"op":"stats"' "$SMOKE/serve-compact.jsonl" | grep -q '"connections":' \
    || { echo "stats response missing the connections gauge" >&2; exit 1; }
grep '"op":"stats"' "$SMOKE/serve-compact.jsonl" | grep -q '"journal_rotations":' \
    || { echo "stats response missing the rotation counter" >&2; exit 1; }
grep '"op":"stats"' "$SMOKE/serve-compact.jsonl" | grep -q '"decode_cache_hits":' \
    || { echo "stats response missing decode-cache fields" >&2; exit 1; }
grep '"op":"shutdown"' "$SMOKE/serve-compact.jsonl" | grep -q '"status":"ok"' \
    || { echo "shutdown was not acknowledged cleanly" >&2; exit 1; }
[ ! -e "$JOURNAL.intents.jsonl" ] \
    || { echo "finalized journal left the intents file behind" >&2; exit 1; }
left=$(cd "$SMOKE/serve" && ls journal.* | tr '\n' ' ')
[ "$left" = "journal.embed.jsonl journal.recognize.jsonl " ] \
    || { echo "finalized journal left more than its two reports: $left" >&2; exit 1; }
grep -q '"counter":"resumed"' "$SMOKE/serve-metrics.jsonl" \
    || { echo "serve metrics missing the resumed counter" >&2; exit 1; }

norm='s/"wall_ms":[0-9]*/"wall_ms":0/'
sed "$norm" "$SMOKE/copies/report.jsonl" > "$SMOKE/batch-embed.norm"
sed "$norm" "$JOURNAL.embed.jsonl" > "$SMOKE/serve-embed.norm"
cmp -s "$SMOKE/batch-embed.norm" "$SMOKE/serve-embed.norm" \
    || { echo "serve embed report differs from batch (modulo wall_ms)" >&2; exit 1; }
sed "$norm" "$SMOKE/recognized.jsonl" > "$SMOKE/batch-rec.norm"
sed "$norm" "$JOURNAL.recognize.jsonl" > "$SMOKE/serve-rec.norm"
cmp -s "$SMOKE/batch-rec.norm" "$SMOKE/serve-rec.norm" \
    || { echo "serve recognize report differs from batch (modulo wall_ms)" >&2; exit 1; }
j=0
while [ "$j" -lt 16 ]; do
    copy=$(printf 'copy-%03d.pmvm' "$j")
    cmp -s "$SMOKE/copies/$copy" "$SMOKE/serve/copies/$copy" \
        || { echo "marked copy $copy differs between serve and batch" >&2; exit 1; }
    j=$((j + 1))
done

# The recognition bench and its wall-clock gates run last: they compare
# one timed run with a figure taken on another host, so they can fail
# with no code change, and every deterministic step above has run by
# then.
echo "==> recognition bench: quick mode emits well-formed BENCH_recognize.json"
( cd "$SMOKE" && "$ROOT/target/release/recognize" --quick > /dev/null )
for want in '"bench":"recognize"' '"quick":true' '"generated_unix":' \
    '"mode":"serial"' '"stages":{"trace":' \
    '"scan_roll":' '"scan_decrypt":' \
    '"skip_rate":' '"decrypts_per_copy":' \
    '"windows":{"scanned":'; do
    grep -qF "$want" "$SMOKE/BENCH_recognize.json" \
        || { echo "BENCH_recognize.json missing $want" >&2; exit 1; }
done

echo "==> trace-tier gate: the compiled tracer must beat the last predecoded baseline"
# The serial row, in this payload and in the checked-in one. Payloads
# from before the one-engine change carried a tier column and one
# serial row per engine; their compiled row is the one to compare.
serial_row() {
    grep -o '"mode":"serial",\("tier":"compiled",\)\{0,1\}"workers"[^}]*' "$1" | head -1
}
# The predecoded engine and form are gone (the compile step decodes
# bytecode straight into the compiled form), so the gate compares with
# the engine's last checked-in figure (serial trace stage, ms per 16
# copies), pinned here: comparing with the refreshed snapshot's own
# compiled row would ratchet on noise.
PREDECODED_TRACE_MS=11.952
run_trace=$(serial_row "$SMOKE/BENCH_recognize.json" | grep -o '"trace":[0-9.]*' | cut -d: -f2)
awk "BEGIN { exit !($run_trace < $PREDECODED_TRACE_MS) }" \
    || { echo "compiled trace ms $run_trace not below the predecoded baseline $PREDECODED_TRACE_MS" >&2; exit 1; }

echo "==> skip-rate gate: pre-reject must not regress below the checked-in baseline"
json_skip_rate() {
    # First (= serial) row's skip rate; payloads predating the
    # skip_rate field fall back to the windows counters.
    rate=$(grep -o '"skip_rate":[0-9.]*' "$1" | head -1 | cut -d: -f2)
    if [ -z "$rate" ]; then
        scanned=$(grep -o '"scanned":[0-9]*' "$1" | head -1 | cut -d: -f2)
        skipped=$(grep -o '"skipped":[0-9]*' "$1" | head -1 | cut -d: -f2)
        rate=$(awk "BEGIN { printf \"%.4f\", $skipped / $scanned }")
    fi
    printf '%s\n' "$rate"
}
base_rate=$(json_skip_rate "$ROOT/BENCH_recognize.json")
new_rate=$(json_skip_rate "$SMOKE/BENCH_recognize.json")
awk "BEGIN { exit !($new_rate >= $base_rate - 0.005) }" \
    || { echo "serial skip rate regressed: $new_rate < baseline $base_rate" >&2; exit 1; }

echo "==> trace+scan gate: serial trace+scan must not regress vs the checked-in baseline"
# The end-to-end per-copy recognition cost that matters is trace + scan
# (roll + decrypt); it must stay strictly below the checked-in
# baseline modulo the container's run-to-run jitter (a 5% allowance,
# in the same spirit as the skip-rate gate's 0.005 — the snapshot is
# refreshed on every green run, so without the allowance the gate
# would ratchet itself onto the noise floor). Older payloads report
# the scan as one '"scan"' stage, newer ones split it into
# '"scan_roll"' + '"scan_decrypt"' — sum whichever the payload has.
serial_stage_ms() {
    # Stage $2 ms of the serial row in payload $1 (empty if the payload
    # has no such stage).
    serial_row "$1" | grep -o "\"$2\":[0-9.]*" | cut -d: -f2
}
trace_scan_ms() {
    t=$(serial_stage_ms "$1" trace)
    roll=$(serial_stage_ms "$1" scan_roll)
    dec=$(serial_stage_ms "$1" scan_decrypt)
    if [ -z "$roll" ]; then
        roll=$(serial_stage_ms "$1" scan)
        dec=0
    fi
    awk "BEGIN { printf \"%.3f\", $t + $roll + $dec }"
}
base_ts=$(trace_scan_ms "$ROOT/BENCH_recognize.json")
new_ts=$(trace_scan_ms "$SMOKE/BENCH_recognize.json")
awk "BEGIN { exit !($new_ts < $base_ts * 1.05) }" \
    || { echo "serial trace+scan ms $new_ts regressed vs checked-in baseline $base_ts" >&2; exit 1; }
cp "$SMOKE/BENCH_recognize.json" "$ROOT/BENCH_recognize.json"

echo "==> ci.sh: all green"

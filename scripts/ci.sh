#!/usr/bin/env bash
# CI gate for the workspace: build, test, lint, format.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# `cargo build` and `cargo test` never compile crates/bench/benches/, so
# type-check every target: a removed API must not leave one stale.
cargo check --workspace --all-targets
# Deleted-name guard: the save entry points, snapshot ring and fault knob
# that `engine::save` and `Trainer::with_storage` replaced, the reader
# helpers and restore option that the shared file plan replaced, and the
# second writer's helpers that the merge `StateSource` replaced, and the
# two private censuses, the raw directory lister and the dead journal knob
# that the run-root catalog replaced, and the two test-only `TrainerConfig`
# fields and the six perf bins that the ledger replaced, stay deleted. (Each
# pattern ends in a bracket expression so this line matches nothing; two
# bin names are also a report field and part of a test name, so they are
# matched as a bin path or invocation only.)
if git grep -nE 'save_source_wit[h]|save_checkpoint_dedu[p]|MemoryTie[r]|crash_during_sav[e]|parse_optim_ke[y]|materialize_encode[d]|fetch_file_o[n]|require_committe[d]|commit_checkpoint_o[n]|units_fro[m]|safetensors::stream_fil[e]\(|manifest_digest[s]\(|referenced_digest[s]|session_labe[l]\b|CheckpointPaths::lis[t]|ckpt_chunk_byte[s]|sequential_ckpt_i[o]|ckpt_throughpu[t]|restore_throughpu[t]|concurrent_run[s]|delta_rati[o]|(bin[ /]|bench )(dedup_rati[o]|tier_drai[n])' -- . \
  ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!crates/ledger'; then
  echo "a deleted name is back (see the matches above)"; exit 1
fi
# One checkpoint writer: the merge driver hands its sources to
# `engine::save` and performs no checkpoint write of its own, and no
# write path computes a digest only to drop it.
if grep -nE 'create_dir_all|stream_file|commit_marker|fs\.write\(' crates/core/src/merge.rs; then
  echo "crates/core/src/merge.rs writes checkpoint files itself"; exit 1
fi
if git grep -n '_digest) =' -- crates/ckpt/src crates/core/src; then
  echo "a write path computes a digest nobody reads"; exit 1
fi
# One payload fetch: outside the save engine's delta-base read, exactly
# one line of the checkpoint crate decodes a store object.
if [ "$(git grep -n '\.materialize(' -- crates/ckpt/src ':!crates/ckpt/src/engine.rs' | wc -l)" -ne 1 ]; then
  git grep -n '\.materialize(' -- crates/ckpt/src ':!crates/ckpt/src/engine.rs' || true
  echo "expected exactly one .materialize( call outside engine.rs"; exit 1
fi
# One run-root catalog: the modules that read a run root do it through a
# `Storage` (no raw `std::fs`, no `Path::exists()` probe outside their
# tests), and one line of product code judges a commit marker.
for f in crates/ckpt/src/layout.rs crates/ckpt/src/manifest.rs crates/core/src/gc.rs \
  crates/core/src/retention.rs crates/coord/src/coordinator.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'std::fs|path\.exists\(\)'; then
    echo "$f reads the filesystem beside the Storage VFS"; exit 1
  fi
done
VERDICTS=$(for f in $(git ls-files 'crates/*/src/*.rs' ':!crates/ledger'); do
  sed '/#\[cfg(test)\]/,$d' "$f" | grep -F 'CommitStatus::evaluate(' || true
done | wc -l)
if [ "$VERDICTS" -ne 1 ]; then
  echo "expected exactly one CommitStatus::evaluate( call outside tests, found $VERDICTS"; exit 1
fi
# One place for `unsafe`: the SHA-NI compression function and its
# run-time-detected call site in the digest module. No other product
# source may use the word, in code or in a comment.
if git grep -n 'unsafe' -- 'crates/*/src' ':!crates/ledger' ':!crates/cas/src/digest.rs'; then
  echo "unsafe outside crates/cas/src/digest.rs"; exit 1
fi
# The encode step of a dedup save is pure: what runs on worker threads
# must not be able to issue a storage call, or the op schedule would
# depend on the workers.
ENCODE_FN="$(sed -n '/^fn encode_image(/,/^}/p' crates/ckpt/src/engine.rs)"
[ -n "$ENCODE_FN" ] || { echo "engine.rs has no encode_image function"; exit 1; }
if echo "$ENCODE_FN" | grep -niE 'storage|store'; then
  echo "encode_image reaches for storage (see the matches above)"; exit 1
fi
# One codec choice: product code reaches the LZSS encoder only through
# `codec::smallest_encoding` (or `Codec::encode`, for a caller that was
# told which codec), so the selection rule cannot fork again. The ledger's
# encoder-throughput probe is the one outside caller.
ENCODER_CALLS=$(for f in $(git ls-files 'crates/*/src/*.rs' ':!crates/ledger' \
  ':!crates/cas/src/codec.rs'); do
  sed '/#\[cfg(test)\]/,$d' "$f" | grep -nF 'lzss_compress(' | sed "s|^|$f:|" || true
done)
if [ -n "$ENCODER_CALLS" ]; then
  echo "$ENCODER_CALLS"
  echo "lzss_compress( called outside crates/cas/src/codec.rs"; exit 1
fi
# A delta save decodes a base from the store in one place only: the cold
# fallback of `stage_miss`, for a base the run's cache does not hold.
if [ "$(sed '/#\[cfg(test)\]/,$d' crates/ckpt/src/engine.rs | grep -cF '.materialize(')" -ne 1 ]; then
  echo "expected exactly one .materialize( call in engine.rs outside its tests"; exit 1
fi
# A resume costs what its verified read costs: the resume path never
# initialises a model or an engine only to overwrite it (it adopts the
# restored rank states through `ZeroEngine::from_rank_states`), and the
# restore engine's bind stage moves buffers the parallel decode stage
# already converted. The ledger smoke below is the bit-exact oracle.
if grep -nE 'Model::new|ParamSet::init|load_rank_state\(' crates/train/src/resume.rs; then
  echo "crates/train/src/resume.rs initialises state it then overwrites"; exit 1
fi
BIND_STAGE="$(sed -n '/^pub(crate) fn take_shard(/,/^}/p;/^pub(crate) fn bind_ranks(/,/^}/p;/\/\/ --- bind /,/^}/p' crates/ckpt/src/restore.rs)"
[ "$(echo "$BIND_STAGE" | grep -cE '^pub\(crate\) fn (take_shard|bind_ranks)\(|// --- bind ')" -eq 3 ] \
  || { echo "restore.rs lost take_shard, bind_ranks or its bind section"; exit 1; }
if echo "$BIND_STAGE" | grep -n 'to_f32s'; then
  echo "the restore bind stage converts tensors (see the matches above)"; exit 1
fi
cargo test -q
# The codec proptests (every stream decodes with the PR 17 decoder, the
# size bound, the selection rule) once more with optimizations on: the
# encoder's arithmetic and slice bounds are what they exercise.
cargo test -q --release -p llmt-cas
cargo clippy --workspace -- -D warnings
cargo fmt --check

# Drain chaos: kill the process at every drain-copy op in turn; no
# committed checkpoint may be lost (volatile-only ones are reported, any
# durable copy restores bit-exact, interrupted queues resume).
cargo test -q -p llmt-tier --test drain_chaos

# Tiered-training smoke: background drainer keeps up while the run keeps
# saving onto the memory tier; per-stage spans and per-tier residency
# must come out populated.
cargo run --release --example tiered_training

SMOKE_ROOT="$(mktemp -d)"
trap 'rm -rf "$SMOKE_ROOT"' EXIT

# Ledger smoke: every workload of the benchmark on the tiny model, with
# its oracles — each resumed trainer bit-exact against the state that was
# saved, each audited checkpoint deep-verified. Exits non-zero on any
# failed op or check; asserts no timing.
cargo run --release -p llmt-ledger -- run --all --smoke --seed 1 --out "$SMOKE_ROOT/BENCH_smoke.json"

# Telemetry smoke: a train/resume/GC run must journal every event to
# events.jsonl (the example asserts nonzero stage totals and cadence),
# and `llmtailor report --json` must parse the journal and render a
# nonzero per-stage breakdown for the saves.
cargo run --release --example telemetry_report -- "$SMOKE_ROOT"
REPORT_JSON="$(cargo run --release -q -p llmtailor --bin llmtailor -- report "$SMOKE_ROOT" --json)"
echo "$REPORT_JSON" | grep -Eq '"place": [1-9]' \
  || { echo "telemetry report missing nonzero place stage"; exit 1; }
echo "$REPORT_JSON" | grep -Eq '"commit": [1-9]' \
  || { echo "telemetry report missing nonzero commit stage"; exit 1; }
echo "$REPORT_JSON" | grep -q '"torn_tail": false' \
  || { echo "telemetry report flagged a torn journal on a clean run"; exit 1; }

# Cross-topology resume matrix: every {dp=1..4} x {tp=1,2} remap pair
# must resume bit-exactly (weights, loss trajectory, optimizer state)
# through verify-on-read and the fault-injection VFS, and a mid-restore
# crash during a tensor-parallel remap must fail clean.
cargo test -q -p llmt-train --test topology_matrix

# Reshard smoke: plan + restore every remap pair on the tiny model,
# check the plan/report invariants, and emit the per-pair timing JSON.
cargo run --release -p llmt-bench --bin reshard_matrix -- --smoke --out "$SMOKE_ROOT/BENCH_reshard_matrix.json"
grep -q '"restore_secs"' "$SMOKE_ROOT/BENCH_reshard_matrix.json" \
  || { echo "reshard matrix bench emitted no per-pair timings"; exit 1; }

# Daemon smoke: a resident llmtailord serving two concurrent client
# processes over its socket — both runs commit through daemon sessions,
# `status --json` reports the tenants, and shutdown is clean (socket
# removed, server process exits zero).
DAEMON_ROOT="$SMOKE_ROOT/daemon-store"
mkdir -p "$DAEMON_ROOT"
cargo run --release -q -p llmtailor --bin llmtailord -- serve --store "$DAEMON_ROOT" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -S "$DAEMON_ROOT/llmtailord.sock" ] && break
  sleep 0.1
done
[ -S "$DAEMON_ROOT/llmtailord.sock" ] \
  || { echo "llmtailord never bound its socket"; exit 1; }
cargo run --release -q -p llmtailor --bin llmtailor -- save --daemon "$DAEMON_ROOT/llmtailord.sock" --run smoke-a --steps 2 &
SAVE_A=$!
cargo run --release -q -p llmtailor --bin llmtailor -- save --daemon "$DAEMON_ROOT/llmtailord.sock" --run smoke-b --steps 2 &
SAVE_B=$!
wait "$SAVE_A" || { echo "daemon client save smoke-a failed"; exit 1; }
wait "$SAVE_B" || { echo "daemon client save smoke-b failed"; exit 1; }
cargo run --release -q -p llmtailor --bin llmtailor -- resume --daemon "$DAEMON_ROOT/llmtailord.sock" --run smoke-a --deep \
  || { echo "daemon-held checkpoint failed verified resume"; exit 1; }
STATUS_JSON="$(cargo run --release -q -p llmtailor --bin llmtailord -- status --socket "$DAEMON_ROOT/llmtailord.sock" --json)"
echo "$STATUS_JSON" | grep -q '"run": "smoke-a"' \
  || { echo "daemon status missing tenant smoke-a"; exit 1; }
echo "$STATUS_JSON" | grep -q '"run": "smoke-b"' \
  || { echo "daemon status missing tenant smoke-b"; exit 1; }
echo "$STATUS_JSON" | grep -Eq '"saves_committed": [1-9]' \
  || { echo "daemon status shows no committed saves"; exit 1; }
cargo run --release -q -p llmtailor --bin llmtailord -- shutdown --socket "$DAEMON_ROOT/llmtailord.sock"
wait "$DAEMON_PID" || { echo "llmtailord exited non-zero"; exit 1; }
[ ! -e "$DAEMON_ROOT/llmtailord.sock" ] \
  || { echo "llmtailord left its socket behind"; exit 1; }

#!/usr/bin/env bash
# Out-of-core scale smoke test, used by the CI scale-smoke job and
# runnable locally: generate an XMark corpus, persist it as an on-disk
# columnar store (single-part and sharded), then run a query subset
# through the mmap'd store under a paging budget a quarter of the
# mapped corpus — i.e. the corpus is 4x larger than the ledger byte
# budget — and assert the output is byte-identical to the in-memory
# engine over the same corpus. The nightly lane re-runs this with a
# bigger corpus and more shards via the environment knobs:
#
#   SCALE_FACTOR   XMark scale factor          (default 0.04)
#   SCALE_SHARDS   shard count of the sharded store   (default 3)
#   SCALE_QUERIES  space-separated XMark query numbers (default "1 8 11 13 20")
set -euo pipefail

factor=${SCALE_FACTOR:-0.04}
shards=${SCALE_SHARDS:-3}
queries=${SCALE_QUERIES:-"1 8 11 13 20"}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/exrquy" ./cmd/exrquy
go build -o "$workdir/xmarkgen" ./cmd/xmarkgen

echo "== generate corpus (factor $factor) as single-part and $shards-shard stores"
"$workdir/xmarkgen" -factor "$factor" -store "$workdir/single"
"$workdir/xmarkgen" -factor "$factor" -store "$workdir/sharded" -shards "$shards"
shard_dirs=""
for k in $(seq 0 $((shards - 1))); do
    shard_dirs="${shard_dirs:+$shard_dirs,}$workdir/sharded/shard$k"
done

# The paging budget is a quarter of the on-disk corpus, so by
# construction the corpus is 4x the ledger byte budget the store pages
# under — queries must succeed anyway, by evicting pages, never by
# failing.
mapped=$(find "$workdir/single" -name '*.xrq' -printf '%s\n' | awk '{s+=$1} END{print s}')
budget=$((mapped / 4))
[ "$budget" -gt 0 ] || { echo "FAIL: empty store (mapped=$mapped)"; exit 1; }
[ "$mapped" -ge $((4 * budget)) ] || { echo "FAIL: corpus not >= 4x budget"; exit 1; }
echo "   corpus: $mapped bytes mapped, paging budget: $budget bytes"

run_diff() { # run_diff <label> <ref-file> <exrquy args...>
    local label=$1 ref=$2
    shift 2
    "$workdir/exrquy" "$@" >"$workdir/got.out"
    if ! cmp -s "$ref" "$workdir/got.out"; then
        echo "FAIL: $label differs from the in-memory engine"
        diff "$ref" "$workdir/got.out" | head -20
        exit 1
    fi
    echo "   ok: $label byte-identical"
}

for q in $queries; do
    echo "== XMark Q$q"
    # In-memory reference: same factor, same default generator seed,
    # no disk involved.
    "$workdir/exrquy" -xmark "$factor" -xq "$q" >"$workdir/ref.out"
    [ -s "$workdir/ref.out" ] || { echo "FAIL: empty reference output for Q$q"; exit 1; }
    run_diff "Q$q ooc" "$workdir/ref.out" \
        -store "$workdir/single" -store-bytes "$budget" -xq "$q"
    run_diff "Q$q shard$shards" "$workdir/ref.out" \
        -store "$shard_dirs" -store-bytes "$budget" -xq "$q"
done

# Corruption with a standby replica must be healed, not served and not
# fatal: flip one byte in one replica of one part of a 2-replica store,
# and the query must still exit 0 with byte-identical output, recovered
# via failover to the healthy copy (store_failover_total >= 1).
echo "== replicated store recovers from a byte flip"
"$workdir/xmarkgen" -factor "$factor" -store "$workdir/replicated" -shards 2 -replicas 2
rep_dirs="$workdir/replicated/shard0,$workdir/replicated/shard1"
"$workdir/exrquy" -store "$rep_dirs" -xq 1 >"$workdir/rep-ref.out"
flipped=$(find "$workdir/replicated/shard0" -name '*.part000.xrq' | head -1)
printf '\xff' | dd of="$flipped" bs=1 count=1 seek=300 conv=notrunc status=none
"$workdir/exrquy" -store "$rep_dirs" -metrics -xq 1 \
    >"$workdir/rep-got.out" 2>"$workdir/rep-metrics.err" \
    || { echo "FAIL: replicated store did not recover (exit $?)"; cat "$workdir/rep-metrics.err"; exit 1; }
cmp -s "$workdir/rep-ref.out" "$workdir/rep-got.out" \
    || { echo "FAIL: recovered output differs"; exit 1; }
failovers=$(awk '/^store_failover_total /{print $2}' "$workdir/rep-metrics.err")
[ "${failovers:-0}" -ge 1 ] || { echo "FAIL: no failover recorded (store_failover_total=${failovers:-absent})"; exit 1; }
echo "   ok: byte flip healed by failover (store_failover_total=$failovers), output byte-identical"

# The scrubber must repair the flipped replica in place: quarantine the
# bad file, restore it from the healthy copy, and leave the directories
# mounting clean again.
echo "== scrubber quarantines and re-replicates the flipped replica"
"$workdir/exrquy" -store "$rep_dirs" -scrub 2>"$workdir/scrub.err"
grep -q '1 quarantined, 1 re-replicated' "$workdir/scrub.err" \
    || { echo "FAIL: scrub did not repair the replica"; cat "$workdir/scrub.err"; exit 1; }
[ -f "$flipped.quarantine" ] || { echo "FAIL: no quarantine file next to $flipped"; exit 1; }
[ -f "$flipped" ] || { echo "FAIL: replica not restored at $flipped"; exit 1; }
run_diff "Q1 after scrub repair" "$workdir/rep-ref.out" -store "$rep_dirs" -xq 1
echo "   ok: replica quarantined, restored, store mounts clean"

# Without a replica the same corruption must be diagnosed, not served:
# clobbering one byte in a part file's node-kind column (offset 300,
# past the 232-byte header; kind values are small, so 0xFF always
# breaks the section checksum) has to fail the mount with the
# corrupt-store exit code (6) — exit 6 on a replicated store means
# every replica of some part is bad — never produce output.
echo "== corrupt unreplicated store refuses to mount"
part=$(find "$workdir/single" -name '*.xrq' | head -1)
printf '\xff' | dd of="$part" bs=1 count=1 seek=300 conv=notrunc status=none
set +e
"$workdir/exrquy" -store "$workdir/single" -xq 1 >/dev/null 2>"$workdir/corrupt.err"
rc=$?
set -e
[ "$rc" -ne 0 ] || { echo "FAIL: corrupt store served a query"; exit 1; }
[ "$rc" -eq 6 ] || { echo "FAIL: corrupt store exit code $rc, want 6"; cat "$workdir/corrupt.err"; exit 1; }
echo "   ok: mount refused (exit 6)"

echo "scale smoke: all checks passed"

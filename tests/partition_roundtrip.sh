#!/usr/bin/env bash
# Cross-process partitioned-persistence round trip, driven entirely through
# dpjl_tool so every stage is a separate OS process (the distributed
# deployment shape, minus the network):
#
#   1. sketch-batch builds the monolithic corpus index, and index-add (one
#      process per sketch) must rebuild it byte for byte,
#   2. index export-shards splits it into partition snapshots + manifest,
#   3. index merge-shards (a separate process) reassembles them — the
#      merged snapshot must be byte-identical to the monolithic one,
#   4. query output over --partitions must diff-equal the monolithic
#      query's output.
#
# Registered in ctest (tools/CMakeLists.txt) with the partition_test label,
# so it also runs under the ASan/UBSan presets and the TSan preset's
# filtered test list.
set -euo pipefail

tool="${1:?usage: partition_roundtrip.sh /path/to/dpjl_tool}"
dir="$(mktemp -d "${TMPDIR:-/tmp}/dpjl_partition_roundtrip.XXXXXX")"
trap 'rm -rf "$dir"' EXIT

# Deterministic 12x16 CSV matrix.
rows=12 cols=16
: > "$dir/matrix.csv"
for ((i = 0; i < rows; i++)); do
  line=""
  for ((j = 0; j < cols; j++)); do
    if ((j > 0)); then line+=","; fi
    line+="$(((i * 31 + j * 7) % 10))"
  done
  echo "$line" >> "$dir/matrix.csv"
done

"$tool" sketch-batch --input "$dir/matrix.csv" --output-prefix "$dir/row" \
  --base-noise-seed 404 --epsilon 8 --seed 3 --index "$dir/mono.idx" \
  2> /dev/null

for ((i = 0; i < rows; i++)); do
  "$tool" index-add --index "$dir/added.idx" --id "row$i" \
    --sketch "$dir/row$i.sketch" > /dev/null
done
cmp "$dir/mono.idx" "$dir/added.idx" \
  || { echo "FAIL: index-add snapshot differs from sketch-batch --index"; exit 1; }

"$tool" query --index "$dir/mono.idx" --sketch "$dir/row0.sketch" --top 5 \
  > "$dir/mono.out" 2> /dev/null

"$tool" index export-shards --index "$dir/mono.idx" \
  --output-prefix "$dir/shard." --partitions 3

parts="$dir/shard.0.part,$dir/shard.1.part,$dir/shard.2.part"
"$tool" index merge-shards --manifest "$dir/shard.manifest" \
  --parts "$parts" --output "$dir/merged.idx"

cmp "$dir/mono.idx" "$dir/merged.idx" \
  || { echo "FAIL: merged snapshot differs from monolithic"; exit 1; }

"$tool" query --partitions "$parts" --sketch "$dir/row0.sketch" --top 5 \
  > "$dir/part.out" 2> /dev/null
diff "$dir/mono.out" "$dir/part.out" \
  || { echo "FAIL: partitioned query output differs"; exit 1; }

"$tool" query --index "$dir/merged.idx" --sketch "$dir/row0.sketch" --top 5 \
  > "$dir/merged.out" 2> /dev/null
diff "$dir/mono.out" "$dir/merged.out" \
  || { echo "FAIL: merged-index query output differs"; exit 1; }

# The inspectors must decode what the round trip produced.
"$tool" index inspect --index "$dir/mono.idx" | grep -q "snapshot-envelope v1" \
  || { echo "FAIL: index inspect"; exit 1; }
"$tool" index inspect --manifest "$dir/shard.manifest" \
  | grep -q "shard-manifest" || { echo "FAIL: manifest inspect"; exit 1; }

# A corrupted shard must be refused by the merge, loudly and cleanly.
cp "$dir/shard.1.part" "$dir/shard.1.bad"
printf 'X' | dd of="$dir/shard.1.bad" bs=1 seek=40 conv=notrunc 2> /dev/null
if "$tool" index merge-shards --manifest "$dir/shard.manifest" \
  --parts "$dir/shard.0.part,$dir/shard.1.bad,$dir/shard.2.part" \
  --output "$dir/never.idx" 2> "$dir/merge.err"; then
  echo "FAIL: corrupted shard merged"; exit 1
fi
grep -qi "data_loss" "$dir/merge.err" \
  || { echo "FAIL: corruption not reported as data loss"; exit 1; }

echo "partition roundtrip ok"

#!/usr/bin/env bash
# Runs the pinned tests of one profile, as listed in the REQUIRED manifest
# beside this script, and fails unless every one of them ran and passed
# exactly once. Run it from anywhere inside the workspace:
#
#     tests/required.sh debug
#     tests/required.sh release
#
# Every line of the manifest is checked first, whatever its profile: a
# malformed or duplicated line is an offender. Then each (package, target)
# of the profile gets one `cargo test [--release] -p <package>
# <--lib | --test harness> -- --exact <names...>`. A name is an offender
# unless the output holds exactly one `test <name> ... ok` line, and a run
# is one unless its summary reads `<n> passed; 0 failed; 0 ignored` with
# `<n>` the count of its names. Every offender is named before the script
# exits non-zero.
set -u

if [ $# -ne 1 ] || { [ "$1" != debug ] && [ "$1" != release ]; }; then
  echo "usage: $0 debug|release" >&2
  exit 2
fi
profile=$1
manifest="$(dirname "$0")/REQUIRED"
log=$(mktemp)
valid=$(mktemp)
trap 'rm -f "$log" "$valid"' EXIT

offenders=$(awk -v p="$profile" -v valid="$valid" '
  /^[[:space:]]*(#|$)/ { next }
  NF != 4 || $1 !~ /^(debug|release)$/ || $2 !~ /^[A-Za-z0-9_-]+$/ \
    || $3 !~ /^(lib|test:[A-Za-z0-9_-]+)$/ || $4 !~ /^[A-Za-z0-9_:]+$/ {
    printf "%s:%d: malformed line: %s\n", FILENAME, FNR, $0; next
  }
  ($0 in seen) { printf "%s:%d: duplicates line %d: %s\n", FILENAME, FNR, seen[$0], $0; next }
  { seen[$0] = FNR }
  $1 == p { print $2, $3, $4 > valid }
' "$manifest")

release=()
if [ "$profile" = release ]; then release=(--release); fi

groups=$(awk '!seen[$1 " " $2]++ { print $1, $2 }' "$valid")
while read -r package target; do
  [ -n "$package" ] || continue
  mapfile -t names < <(awk -v k="$package $target" '$1 " " $2 == k { print $3 }' "$valid")
  if [ "$target" = lib ]; then harness=(--lib); else harness=(--test "${target#test:}"); fi

  echo "== $profile $package $target: ${#names[@]} pinned"
  cargo test "${release[@]}" -p "$package" "${harness[@]}" -- --exact "${names[@]}" 2>&1 | tee "$log"
  status=${PIPESTATUS[0]}

  for name in "${names[@]}"; do
    outcome=$(awk -v n="$name" '$1 == "test" && $2 == n && $3 == "..." { sub(/,$/, "", $4); print $4 }' \
      "$log" | paste -sd ' ')
    case "$outcome" in
      ok) ;;
      "") offenders+=$'\n'"$package $target $name: matched no test" ;;
      *) offenders+=$'\n'"$package $target $name: want one ok, got: $outcome" ;;
    esac
  done
  summary=$(grep '^test result: ' "$log")
  if [ "$status" -ne 0 ] \
    || ! grep -q "^test result: ok\. ${#names[@]} passed; 0 failed; 0 ignored; " <<<"$summary"; then
    offenders+=$'\n'"$package $target: cargo test exited $status, want ${#names[@]} passed: ${summary:-no summary}"
  fi
done <<<"$groups"

offenders=$(sed '/^$/d' <<<"$offenders")
if [ -n "$offenders" ]; then
  echo
  echo "tests/REQUIRED ($profile): $(wc -l <<<"$offenders") offender(s):"
  echo "$offenders"
  exit 1
fi
echo "tests/REQUIRED ($profile): every pinned test ran once and passed"

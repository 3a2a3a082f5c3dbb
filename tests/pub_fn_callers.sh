#!/usr/bin/env bash
# Every public function has a caller in another file. Run from anywhere:
#
#     tests/pub_fn_callers.sh
#
# The scan drops `//` lines (a doc comment that names a fn is not a call)
# and `use` / `pub use` items, multi-line ones included (a re-export is
# not a call). Then it lists each `pub fn` under crates/*/src, outside
# vendor/ and tadbench/, that no file other than its own calls: a call is
# `.name(`, `name(` not after `fn `, `::name` or `name::<`. A field or a
# local of the same name is not a call. It prints the list, which must
# equal the allow-list: a new uncalled fn fails the scan, and so does an
# allowed name that gained a caller or went away.
set -eu
cd "$(dirname "$0")/.."

allowed=(
  roc_auc_ci          # ROADMAP item 1(b): the AUC drift epsilon
  calibrate_quantile  # ROADMAP item 7: per-prefix alarm thresholds
  alarms              # ROADMAP item 7: a `Threshold` (calibrate_quantile's) counts alarms
  congestion          # ROADMAP item 3: reads the confounder E from city.pref
)

code=$(mktemp -d)
trap 'rm -rf "$code"' EXIT
find crates src tests examples -name '*.rs' -not -path '*/vendor/*' | while read -r f; do
  mkdir -p "$code/$(dirname "$f")"
  grep -vE '^\s*//' "$f" \
    | awk '/^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?use[[:space:]]/ { skip = 1 }
           !skip { print }
           skip && /;/ { skip = 0 }' > "$code/$f" || true
done

cd "$code"
uncalled=$(grep -rhoP '\bpub fn \K\w+' --exclude-dir=tadbench crates/*/src | sort -u \
  | while read -r name; do
      defs=$(grep -rlP "\bpub fn $name\b" crates | sort)
      callers=$(grep -rlP "\.$name(\(|::<)|::$name\b|(?<![\w.:])(?<!fn )$name(\(|::<)" . \
        | sed 's|^\./||' | sort)
      if [ -z "$(comm -13 <(echo "$defs") <(echo "$callers"))" ]; then echo "$name"; fi
    done)

echo "$uncalled"
if [ "$uncalled" != "$(printf '%s\n' "${allowed[@]}" | sort)" ]; then
  echo "uncalled pub fns differ from the allow-list: give each a caller, narrow it, delete it, or list it with its ROADMAP item"
  exit 1
fi

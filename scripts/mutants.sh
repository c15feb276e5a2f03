#!/usr/bin/env bash
# The mutation ratchet: every row of scripts/mutants.tsv is a deliberate
# defect that a named test must catch. For each row, on a throwaway copy of
# the tree, the script replaces the row's anchor text in its file, builds
# the row's test target and runs the row's test filter. It fails when
#
#   - an anchor does not occur exactly once in its file (a refactor moved
#     the code: update the row on purpose, or delete it with the code it
#     mutates and say why),
#   - a mutant does not compile,
#   - a named test fails on the unmutated tree (it would prove nothing), or
#   - a named test passes under its mutant (the mutant survived).
#
#   scripts/mutants.sh                    # every row
#   scripts/mutants.sh wrangler           # rows whose file, package or
#                                         # filter contains the substring
#
# The copy and its `target/` go to $MUTANTS_DIR (default: a temporary
# directory, removed on exit); pointing it at a kept directory makes a
# rerun incremental. Needs only bash, cargo and coreutils.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

table=scripts/mutants.tsv
only=${1:-}

if [[ -n ${MUTANTS_DIR:-} ]]; then
    work=$MUTANTS_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
tree=$work/tree
export CARGO_TARGET_DIR=$work/target

# Tracked and new (not ignored) files, as they are in the working tree,
# stamped now (`-m`): a kept target/ may hold a mutant built after the
# files' own times, which cargo would otherwise take as up to date.
rm -rf "$tree"
mkdir -p "$tree"
git ls-files -z --cached --others --exclude-standard |
    xargs -0 tar -cf - --ignore-failed-read 2>/dev/null | tar -xmf - -C "$tree"

# Rows: file, anchor, replacement, package, filter, tab-separated. The
# anchor and the replacement are printf `%b` strings (`\n` is a newline,
# `\\` a backslash); the package field is the `cargo test` selection
# (`-p nurd-serve --lib`, `-p nurd --test golden_replay`).
rows=()
while IFS= read -r line || [[ -n $line ]]; do
    [[ -z $line || $line == \#* ]] && continue
    if [[ -n $only && $line != *"$only"* ]]; then
        continue
    fi
    rows+=("$line")
done <"$table"
((${#rows[@]} > 0)) || { echo "mutants: no row matches '$only'" >&2; exit 1; }

field() { # field <line> <index>: the index-th tab-separated field, empty kept
    local rest=$1 i
    for ((i = 0; i < $2; i++)); do rest=${rest#*$'\t'}; done
    printf '%s' "${rest%%$'\t'*}"
}

unescape() { # unescape <text>: printf %b of it, trailing newlines kept
    local text
    text=$(printf '%b' "$1" && printf x)
    printf '%s' "${text%x}"
}

run_tests() { # run_tests <package> <filter>: the filter's tests, quietly
    # shellcheck disable=SC2086 # the package field is cargo arguments
    (cd "$tree" && timeout 900 cargo test --offline -q $1 -- "$2") >"$work/test.log" 2>&1
}

status=0
fail() {
    echo "mutants: $*" >&2
    status=1
}

echo "mutants: ${#rows[@]} rows; the named tests on the unmutated tree"
for line in "${rows[@]}"; do
    package=$(field "$line" 3)
    filter=$(field "$line" 4)
    if ! run_tests "$package" "$filter"; then
        fail "'$filter' ($package) fails without a mutant"
        tail -n 20 "$work/test.log" >&2
    elif grep -q '^running 0 tests' "$work/test.log" &&
        ! grep -q '^running [1-9]' "$work/test.log"; then
        fail "'$filter' ($package) matches no test"
    fi
done

for line in "${rows[@]}"; do
    file=$(field "$line" 0)
    anchor=$(unescape "$(field "$line" 1)" && printf x)
    anchor=${anchor%x}
    replacement=$(unescape "$(field "$line" 2)" && printf x)
    replacement=${replacement%x}
    package=$(field "$line" 3)
    filter=$(field "$line" 4)
    start=$SECONDS

    # Read the file whole (a sentinel keeps its trailing newlines).
    content=$(cat "$file" && printf x)
    content=${content%x}
    rest=${content//"$anchor"/}
    count=$(((${#content} - ${#rest}) / ${#anchor}))
    if ((count != 1)); then
        fail "$file: anchor occurs $count times, not once: $(field "$line" 1)"
        continue
    fi
    printf '%s' "${content/"$anchor"/"$replacement"}" >"$tree/$file"

    # shellcheck disable=SC2086
    if ! (cd "$tree" && cargo test --offline -q --no-run $package) >"$work/build.log" 2>&1; then
        fail "$file: the mutant does not compile: $(field "$line" 1)"
        grep -m 5 -A 5 '^error' "$work/build.log" >&2 || true
    elif run_tests "$package" "$filter"; then
        fail "$file: the mutant survived '$filter': $(field "$line" 1)"
    else
        echo "killed  $file by '$filter' ($((SECONDS - start)) s)"
    fi
    cp "$file" "$tree/$file"
done

exit $status

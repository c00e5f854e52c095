#!/usr/bin/env bash
# Panic-site audit: counts unwrap()/expect()/panic!-family call sites in
# NON-TEST library code and compares them with the checked-in baseline
# (scripts/panic_baseline.txt). It is a ratchet: it fails when any file
# exceeds its baseline, and also when the baseline is stale — an entry
# above the current count, or naming a file that no longer exists — so a
# removed panic site can never be silently re-added later. New panic
# sites in production code must either be converted to typed errors or
# deliberately admitted, and removed ones locked in, by regenerating the
# baseline:
#
#   ./scripts/panic_audit.sh            # audit against the baseline
#   ./scripts/panic_audit.sh --update   # rewrite the baseline
#
# Test modules are excluded by stripping each file from its first
# `#[cfg(test)]` line to EOF (the repo convention keeps test modules last).
set -euo pipefail
# A failing find/awk inside $(...) must stop the audit, not yield an empty
# count that reads as "no panic sites".
shopt -s inherit_errexit
cd "$(dirname "$0")/.."

BASELINE="scripts/panic_baseline.txt"
PATTERN='\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\(|unimplemented!\('

count_file() {
    # Print the number of panic-pattern lines in the non-test part of $1.
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1" | grep -cE "$PATTERN" || true
}

audit() {
    while IFS= read -r f; do
        n=$(count_file "$f")
        if [ "$n" -gt 0 ]; then
            printf '%s %s\n' "$f" "$n"
        fi
    done < <(find crates src -name '*.rs' -not -path '*/tests/*' | sort)
}

if [ "${1:-}" = "--update" ]; then
    audit > "$BASELINE"
    echo "panic_audit: baseline rewritten ($(wc -l < "$BASELINE") files with panic sites)"
    exit 0
fi

if [ ! -f "$BASELINE" ]; then
    echo "panic_audit: missing $BASELINE (run with --update to create it)" >&2
    exit 1
fi

status=0
current=$(audit)
while IFS=' ' read -r f n; do
    [ -z "$f" ] && continue
    base=$(awk -v f="$f" '$1 == f {print $2}' "$BASELINE")
    base=${base:-0}
    if [ "$n" -gt "$base" ]; then
        echo "panic_audit: $f has $n non-test panic sites (baseline $base)" >&2
        status=1
    fi
done <<< "$current"

if [ "$status" -ne 0 ]; then
    echo "panic_audit: FAILED — convert new unwrap/expect/panic sites to typed errors," >&2
    echo "             or run ./scripts/panic_audit.sh --update to admit them." >&2
    exit 1
fi

while IFS=' ' read -r f base; do
    [ -z "$f" ] && continue
    n=$(awk -v f="$f" '$1 == f {print $2}' <<< "$current")
    n=${n:-0}
    if [ ! -f "$f" ]; then
        echo "panic_audit: baseline names $f, which no longer exists" >&2
        status=1
    elif [ "$n" -lt "$base" ]; then
        echo "panic_audit: $f has $n non-test panic sites, below its baseline $base" >&2
        status=1
    fi
done < "$BASELINE"

if [ "$status" -ne 0 ]; then
    echo "panic_audit: FAILED — the baseline is stale; run" >&2
    echo "             ./scripts/panic_audit.sh --update to lock in the lower counts." >&2
    exit 1
fi
echo "panic_audit: ok (every file matches its baseline)"

#!/usr/bin/env bash
# Non-test Rust lines of code, per crate, plus vendor/ and examples/, and a
# total. Run from anywhere: `scripts/loc.sh` (or `bash scripts/loc.sh`).
#
# The counting rule, so every change reports the same number:
#   - only `*.rs` files count;
#   - a line counts unless it is blank or a comment line (its first
#     non-space characters are `//`, which covers `///` and `//!`, or it
#     lies inside a `/* ... */` block that opens at the start of a line);
#   - every `tests/` directory is excluded, and so is every item annotated
#     `#[cfg(test)]` (normally the `mod tests { ... }` block), up to its
#     closing brace or, for a braceless item, its terminating `;`.
#
# Rows: one per `crates/<name>` (its whole directory, `src/bin` included),
# `copydetect` for the facade crate's `src/`, one per `vendor/<name>`, and
# `examples` for the workspace examples. The wire-level benchmark under
# `wirebench/` is its own workspace and is not counted.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Counted lines of the given files (all of them non-test by selection).
count() {
    if [ "$#" -eq 0 ]; then
        echo 0
        return
    fi
    awk '
        FNR == 1 { skip = 0; depth = 0; opened = 0; block = 0 }
        {
            line = $0
            # Drop string and char literals so braces inside them do not count.
            gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
            gsub(/'\''([^'\''\\]|\\.)'\''/, "'\'''\''", line)
            trimmed = line
            sub(/^[ \t]+/, "", trimmed)
            if (!skip && trimmed ~ /^#\[cfg\(test\)\]/) {
                skip = 1; depth = 0; opened = 0
                next
            }
            if (skip) {
                code = line
                sub(/\/\/.*/, "", code)
                opens = gsub(/\{/, "{", code)
                closes = gsub(/\}/, "}", code)
                depth += opens - closes
                if (opens > 0) opened = 1
                if ((opened && depth <= 0) || (!opened && code ~ /;[ \t]*$/)) skip = 0
                next
            }
            if (block) {
                if (trimmed ~ /\*\//) block = 0
                next
            }
            if (trimmed ~ /^\/\*/) {
                if (trimmed !~ /\*\//) block = 1
                next
            }
            if (trimmed == "" || trimmed ~ /^\/\//) next
            n++
        }
        END { print n + 0 }
    ' "$@"
}

# Non-test `*.rs` files under a directory, `tests/` directories excluded.
sources() {
    find "$1" -name target -prune -o -name tests -prune -o -name '*.rs' -type f -print | sort
}

total=0
row() {
    local name="$1" dir="$2" files lines
    mapfile -t files < <(sources "$dir")
    lines="$(count "${files[@]}")"
    printf '%-24s %7d\n' "$name" "$lines"
    total=$((total + lines))
}

for dir in crates/*/; do
    row "$(basename "$dir")" "$dir"
done
row copydetect src
for dir in vendor/*/; do
    row "vendor/$(basename "$dir")" "$dir"
done
row examples examples
printf '%-24s %7d\n' total "$total"

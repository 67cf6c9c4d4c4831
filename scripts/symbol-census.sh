#!/usr/bin/env bash
# ROADMAP item 7's rule as a gate: every module is on a shipped path, or
# gone. The measure is the symbol table, not grep: a `crates/*/src/*.rs`
# module none of whose items is linked into `repro`, `vdx-exchanged` or
# `vdx-agent` (debug builds, so nothing is inlined away) is reachable
# from tests only — and test-only is not a third state.
set -euo pipefail
cd "$(dirname "$0")/.."

# The allowlist: test support, compiled for tests by design.
allow="audit::testutil rand::prop"

cargo build
symbols=$(mktemp)
trap 'rm -f "$symbols"' EXIT
for bin in repro vdx-exchanged vdx-agent; do
  nm -C "target/debug/$bin"
done > "$symbols"

dead=0
for file in crates/*/src/*.rs; do
  crate=$(basename "$(dirname "$(dirname "$file")")")
  module=$(basename "$file" .rs)
  # vdx-lint is a tool, not a dependency of any binary; lib.rs and
  # main.rs are crate roots, not modules.
  case "$crate/$module" in lint/* | */lib | */main) continue ;; esac
  case " $allow " in *" $crate::$module "*) continue ;; esac
  if ! grep -q "vdx_${crate}::${module}::" "$symbols"; then
    echo "symbol-census: no shipped binary links vdx_${crate}::${module} ($file)"
    dead=$((dead + 1))
  fi
done
if [ "$dead" -gt 0 ]; then
  echo "symbol-census: $dead module(s) with zero symbols: put each on a measured path or delete it"
  exit 1
fi
echo "symbol-census: OK (every module outside [$allow] is linked into a shipped binary)"

#!/usr/bin/env bash
# Mutation runner. Each `*.patch` here is a one-hunk mutant of the tree:
# a header names what it breaks (`Mutant:`) and the test that must catch
# it (`Test: cargo test <args> <test name>`), then comes the diff. For
# every patch the runner checks, in one copy of the tree, that the named
# test passes, then applies the patch and demands that the test fail. A
# patch that no longer applies, a mutant that does not build and a mutant
# the test lets pass are failures.
#
#   tests/mutants/run.sh                 # every patch
#   tests/mutants/run.sh PATCH...        # the named ones
#
# The copy keeps its path for the whole run, so with a shared
# CARGO_TARGET_DIR each build after the first is incremental.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}
tree=$work/tree
mkdir "$tree"
# Extracted with fresh mtimes (`-m`): a kept target directory holds
# artifacts of earlier runs' mutants, which must not look newer than the
# sources.
tar -C "$root" --exclude=./.git --exclude=./target --exclude=./benchmark/target \
    --exclude=./benchmark/out --exclude=./.bench_build -cf - . | tar -C "$tree" -xmf -

if [ $# -eq 0 ]; then
    set -- "$here"/*.patch
fi

failed=0
for patch in "$@"; do
    patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
    name=$(basename "$patch" .patch)
    test_cmd=$(sed -n 's/^Test: cargo test //p' "$patch")
    if [ -z "$test_cmd" ]; then
        echo "FAIL $name: no 'Test: cargo test ...' header"
        failed=1
        continue
    fi
    # `--exact` holds the last argument to one test's full name.
    run_test() { (cd "$tree" && cargo test -q $test_cmd -- --exact) >"$work/$name.log" 2>&1; }
    build_test() { (cd "$tree" && cargo test -q --no-run $test_cmd) >"$work/$name.log" 2>&1; }
    if ! run_test; then
        echo "FAIL $name: the test fails on the unmutated tree"
        tail -20 "$work/$name.log"
        failed=1
        continue
    fi
    if ! (cd "$tree" && git apply "$patch"); then
        echo "FAIL $name: the patch no longer applies"
        failed=1
        continue
    fi
    if ! build_test; then
        echo "FAIL $name: the mutant does not build"
        tail -20 "$work/$name.log"
        failed=1
    elif run_test; then
        echo "FAIL $name: the mutant survived: $test_cmd"
        failed=1
    else
        echo "killed $name"
    fi
    (cd "$tree" && git apply -R "$patch")
done
exit $failed

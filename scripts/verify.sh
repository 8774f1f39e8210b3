#!/usr/bin/env bash
# Tier-1 verification for the Heron reproduction (see ROADMAP.md).
#
# Everything runs --offline: the workspace must build from a clean checkout
# with no registry access (DESIGN.md, "Zero-dependency & determinism
# policy"). A registry dependency sneaking back into any Cargo.toml is a
# build break on air-gapped machines, so we lint for it explicitly.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== registry-dependency lint =="
# Only path dependencies inside the workspace are allowed. In particular the
# previously vendored external packages (the registry RNG crate, the property
# -testing crate, the statistics bench harness) must not reappear.
banned='^[[:space:]]*(rand|rand_[a-z0-9_]+|proptest|criterion)[[:space:]]*[=.]'
if grep -rInE "$banned" --include=Cargo.toml .; then
    echo "error: registry dependency found in a Cargo.toml (listed above)" >&2
    echo "hint: use heron-rng / heron-testkit instead (DESIGN.md policy)" >&2
    exit 1
fi
# Belt and braces: no Cargo.toml may name the banned packages at all.
if grep -rIn --include=Cargo.toml -wE 'rand|proptest|criterion' .; then
    echo "error: banned package name appears in a Cargo.toml (listed above)" >&2
    exit 1
fi
echo "ok: no registry dependencies"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
# Lint everything (lib, bins, tests) with warnings promoted to
# errors so lints cannot accumulate. Skipped gracefully on toolchains
# without the clippy component.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "warning: clippy not installed; skipping lint gate" >&2
fi

echo "== offline release build (workspace) =="
cargo build --release --offline --workspace
# Twelve committed tables are goldens (≈78 s in release on two cores:
# fig06 ≈29 s, fig07 ≈12 s, fig08 ≈10 s, fig09 ≈3 s of it): their bins, run with the
# defaults they were committed with, must print them byte for byte, so a
# refactor that moves a single sample — or a single generated constraint
# (table03, the table 4/5 census) — fails here.
for fig in fig02_irregular_space fig11_space_quality fig12_cga_convergence \
    fig13_constraint_handling ablation_features fault_sweep \
    table03_dla_constraints table04_05_space_census fig07_t4_a100 \
    fig06_tensorcore_ops fig08_dlboost_ops fig09_vta_ops; do
    env -u HERON_TRIALS -u HERON_SEED -u HERON_SAMPLES \
        cargo run --release --offline --quiet -p heron-bench --bin "$fig" \
        | cmp -s - "results/$fig.tsv" || {
        echo "error: $fig no longer reproduces results/$fig.tsv byte for byte" >&2
        exit 1
    }
done
echo "ok: fig02/06/07/08/09/11/12/13, table03, table04_05, ablation_features and fault_sweep reproduce their committed tables"

echo "== offline tests (workspace) =="
# NB: a bare `cargo test` from the root only tests the root package;
# --workspace covers every crate, including heron-rng golden-stream tests
# and the heron-testkit self-tests.
cargo test -q --offline --workspace

echo "== fault-injection smoke (resilient tuning) =="
# A quick tune at a 10% transient-fault rate must still complete every
# trial and find a valid program (DESIGN.md §6); exits non-zero otherwise.
cargo run --release --offline -p heron-bench --bin fault_sweep -- --smoke >/dev/null
echo "ok: tuner finds valid programs under injected faults"

echo "== observability smoke (traced tuning) =="
# A traced smoke tune must produce (a) a JSONL trace that passes the
# structural validator (balanced spans, contiguous seq, monotone
# timestamps — DESIGN.md §7) and (b) a metrics snapshot covering at
# least 12 distinct instruments across the pipeline layers.
obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT
cargo run --release --offline -p heron-bench --bin heron_cli -- \
    tune --op gemm --shape 256x256x256 --trials 24 --fault-rate 0.2 \
    --trace-out "$obs_dir/trace.jsonl" --metrics-out "$obs_dir/metrics.tsv" \
    >/dev/null 2>&1
cargo run --release --offline -p heron-bench --bin trace_report -- \
    "$obs_dir/trace.jsonl" --check
instruments=$(($(wc -l < "$obs_dir/metrics.tsv") - 1))
if [ "$instruments" -lt 12 ]; then
    echo "error: traced tune registered only $instruments instruments (<12)" >&2
    exit 1
fi
# `csp.passes.prod` (filtering passes over PROD constraints) stands for
# the solver's per-constraint-kind split, csp.{passes,wipeouts}.<kind>.
for layer in csp. cga. model. measure. dla. csp.passes.prod; do
    if ! grep -q "^$layer" "$obs_dir/metrics.tsv"; then
        echo "error: no \`$layer*\` instrument in the metrics snapshot" >&2
        exit 1
    fi
done
echo "ok: trace validates; $instruments instruments across all layers"

echo "== insight smoke (search-health analytics) =="
# A tune with insight enabled must emit a schema-valid `insight.json`
# (`heron_cli` validates what it writes and exits 1 otherwise; DESIGN.md
# §7, "Search-health analytics").
cargo run --release --offline -p heron-bench --bin heron_cli -- \
    tune --op gemm --shape 256x256x256 --trials 24 \
    --insight-out "$obs_dir/insight.json" >/dev/null 2>&1
echo "ok: insight.json validates"

echo "== host benchmark harness (benchmark/) =="
# `benchmark/` is a package of its own that no root cargo command
# builds, and a change that claims a gain may not edit it — so a
# product-crate API change could break the frozen harness unnoticed.
# Build it, run its tests, and drive every workload end to end at smoke
# size (non-zero exit on any incorrect output). Its check "layer-by-layer
# replay equals compile()" holds the concurrent compile to a serial one.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
if ! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --smoke --traced >"$obs_dir/hostbench.out" 2>&1; then
    echo "error: heron-hostbench smoke run failed:" >&2
    tail -n 40 "$obs_dir/hostbench.out" >&2
    exit 1
fi
echo "ok: heron-hostbench builds, passes its tests, and its smoke run is correct"

echo "== robustness smoke (hardened exploration) =="
# Over-constrained and UNSAT spaces must terminate with a classified
# status (repair/fallback on satisfiable spaces, `root-infeasible` +
# diagnosis on contradictory ones; DESIGN.md §6, "Solver-side failure &
# repair").
cargo run --release --offline -p heron-bench --bin space_stress -- --smoke >/dev/null
echo "ok: over-constrained + UNSAT spaces behave (space_stress --smoke)"
# The full stress table is a golden too (≈0.1 s). The bin writes the
# table to --out; its stdout carries an extra `#` header line.
cargo run --release --offline --quiet -p heron-bench --bin space_stress -- \
    --out "$obs_dir/space_stress.tsv" >/dev/null 2>&1
cmp -s "$obs_dir/space_stress.tsv" results/space_stress.tsv || {
    echo "error: space_stress no longer reproduces results/space_stress.tsv byte for byte" >&2
    exit 1
}
echo "ok: space_stress reproduces its committed table"

# A corrupt checkpoint must be rejected up front: flip one byte mid-FILE and
# `BIN ARGS --resume FILE` must exit non-zero naming the corruption.
resume_rejects_flip() { # FILE BIN ARGS...
    local ck="$1" bin="$2" mid flip=Z; shift 2
    mid=$(($(wc -c < "$ck") / 2))
    [ "$(dd if="$ck" bs=1 skip="$mid" count=1 2>/dev/null)" = Z ] && flip=Q
    printf '%s' "$flip" | dd of="$ck" bs=1 seek="$mid" conv=notrunc 2>/dev/null
    if cargo run --release --offline -p heron-bench --bin "$bin" -- "$@" --resume "$ck" \
        >"$obs_dir/resume.out" 2>&1 || ! grep -qi corrupt "$obs_dir/resume.out"; then
        echo "error: $bin resumed a corrupted checkpoint or did not call it corrupt:" >&2
        cat "$obs_dir/resume.out" >&2; exit 1
    fi
    echo "ok: $bin rejects a bit-flipped checkpoint as corrupt (byte $mid)"
}
tune=(tune --op gemm --shape 256x256x256 --trials 24)
cargo run --release --offline -p heron-bench --bin heron_cli -- "${tune[@]}" \
    --pause-at 8 --checkpoint "$obs_dir/gemm.ckpt" >/dev/null 2>&1
# A resumed session paused again writes what the uninterrupted session
# writes at that trial, up to the host-time envelope (`timing.cga_s = `
# and every line after it): the sample log is rebuilt from the cost
# model's store, and the refitted model decides every later trial.
cargo run --release --offline -p heron-bench --bin heron_cli -- "${tune[@]}" \
    --resume "$obs_dir/gemm.ckpt" --pause-at 12 --checkpoint "$obs_dir/resumed.ckpt" >/dev/null 2>&1
cargo run --release --offline -p heron-bench --bin heron_cli -- "${tune[@]}" \
    --pause-at 12 --checkpoint "$obs_dir/straight.ckpt" >/dev/null 2>&1
for ck in resumed straight; do
    sed '/^timing\.cga_s = /,$d' "$obs_dir/$ck.ckpt" > "$obs_dir/$ck.section"
done
cmp -s "$obs_dir/resumed.section" "$obs_dir/straight.section" && test -s "$obs_dir/straight.section" || {
    echo "error: a resumed-then-paused checkpoint differs from the uninterrupted one:" >&2
    diff "$obs_dir/resumed.section" "$obs_dir/straight.section" | head -n 20 >&2
    exit 1
}
echo "ok: resume then pause writes the uninterrupted checkpoint (host envelope aside)"
resume_rejects_flip "$obs_dir/gemm.ckpt" heron_cli "${tune[@]}"

echo "== service-robustness smoke (heron-serve chaos harness) =="
# The supervised tuning service must survive injected worker crashes,
# hangs, a poisoned job, and admission overflow — and supervision must
# be invisible in the results (DESIGN.md §9): the smoke self-asserts
# that every recovered job's deterministic record is byte-identical to
# an uninterrupted run, that the poisoned job is quarantined after its
# restart budget, and that a second full service run reproduces the
# manifest byte for byte. Its trace must pass the structural validator.
cargo run --release --offline -p heron-bench --bin heron_serve -- \
    --smoke --trace-out "$obs_dir/serve_trace.jsonl" \
    --manifest "$obs_dir/manifest.txt" \
    --pulse-out "$obs_dir/pulse.json" --slo scripts/serve_smoke.slo \
    --slo-report "$obs_dir/slo_report.txt" \
    --scope-out "$obs_dir/scope.json" \
    --postmortem-dir "$obs_dir/postmortems" \
    --artifact-dir "$obs_dir/artifacts" >/dev/null
cargo run --release --offline -p heron-bench --bin trace_report -- \
    "$obs_dir/serve_trace.jsonl" --check
# The smoke's deterministic outputs are goldens: the manifest, the pulse
# plane, the scope document, every postmortem bundle, every job's last
# ring snapshot and every completed job's record and insight.json must
# match results/serve_smoke/ byte for byte, and no file may appear or go
# missing. The completed jobs' session traces (≈144 KB) are compared by
# their cksum lines.
golden=results/serve_smoke
for f in manifest.txt pulse.json slo_report.txt scope.json; do
    cmp -s "$obs_dir/$f" "$golden/$f" || {
        echo "error: heron_serve --smoke no longer reproduces $golden/$f byte for byte" >&2
        exit 1
    }
done
(cd "$obs_dir/artifacts" && cksum *.trace.jsonl) | cmp -s - "$golden/traces.cksum" || {
    echo "error: heron_serve --smoke no longer reproduces $golden/traces.cksum" >&2
    exit 1
}
mkdir -p "$obs_dir/rings" "$obs_dir/texts"
cp "$obs_dir"/artifacts/*.ring.jsonl "$obs_dir/rings/"
cp "$obs_dir"/artifacts/*.record.txt "$obs_dir"/artifacts/*.insight.json "$obs_dir/texts/"
diff -r "$obs_dir/texts" "$golden/artifacts" >/dev/null || {
    echo "error: heron_serve --smoke no longer reproduces $golden/artifacts/ file for file:" >&2
    diff -rq "$obs_dir/texts" "$golden/artifacts" >&2 || true
    exit 1
}
for sub in postmortems rings; do
    diff -r "$obs_dir/$sub" "$golden/$sub" >/dev/null || {
        echo "error: heron_serve --smoke no longer reproduces $golden/$sub/ file for file:" >&2
        diff -rq "$obs_dir/$sub" "$golden/$sub" >&2 || true
        exit 1
    }
done
echo "ok: chaos smoke passes; recovered jobs byte-identical; service trace validates; manifest, pulse, SLO report, scope, postmortems, rings, job records, insight.json and trace checksums reproduce results/serve_smoke/"

echo "== scope smoke (flight recorder, postmortems, critical path) =="
# The forensics layer (DESIGN.md §12) gates the build: the chaos
# smoke's injected crash must leave a postmortem bundle behind, and the
# policy's own schedule of the run, replayed on the simulated clock,
# must satisfy the central scope invariant — the critical path's
# segment durations sum *exactly* to the makespan (heron_scope --check
# validates it, slot bounds and disjoint runs included, and prints the
# equality).
test -f "$obs_dir/postmortems/g1.attempt0.crash.jsonl" || {
    echo "error: no postmortem bundle for the injected g1 crash" >&2
    ls "$obs_dir/postmortems" >&2 || true
    exit 1
}
test -f "$obs_dir/postmortems/g2.attempt0.hang.jsonl" || {
    echo "error: no postmortem bundle for the injected g2 hang" >&2
    exit 1
}
cargo run --release --offline -p heron-bench --bin heron_scope -- \
    "$obs_dir/scope.json" --check > "$obs_dir/scope_check.out"
grep -q 'critical-path sum == makespan' "$obs_dir/scope_check.out" || {
    echo "error: heron_scope did not confirm critical-path sum == makespan:" >&2
    cat "$obs_dir/scope_check.out" >&2
    exit 1
}
echo "ok: crash/hang bundles present; scope.json valid; critical path sums to the makespan"

echo "== pulse smoke (per-job SLIs, SLO gate, ops dashboard) =="
# The derived telemetry plane (DESIGN.md §10) gates the build: the
# committed SLO spec must hold over the chaos smoke's pulse.json, and a
# deliberately tightened spec must breach — proving the gate can fail,
# not just that it happens to pass. The dashboard itself is rendered as
# part of the check (it is a pure function of pulse.json, so any panic
# or nondeterminism surfaces here).
cargo run --release --offline -p heron-bench --bin heron_status -- \
    "$obs_dir/pulse.json" --check >/dev/null
grep -q '^verdict: PASS$' "$obs_dir/slo_report.txt" || {
    echo "error: committed SLO spec does not pass on the chaos smoke:" >&2
    cat "$obs_dir/slo_report.txt" >&2
    exit 1
}
printf 'makespan_s <= 20\n' > "$obs_dir/tight.slo"
if cargo run --release --offline -p heron-bench --bin heron_status -- \
    "$obs_dir/pulse.json" --slo "$obs_dir/tight.slo" --check \
    >/dev/null 2>&1; then
    echo "error: tightened SLO spec (makespan_s <= 20) did not breach" >&2
    exit 1
fi
echo "ok: committed SLO spec passes; tightened spec fails the gate"

echo "== audit smoke (differential constraint-space auditor) =="
# The generated spaces themselves gate the build (DESIGN.md §11): a
# clean committed spec must audit clean on every platform (no CSP-SAT
# point the simulator rejects, no sim-valid schedule the CSP rejects),
# same-seed audits must be byte-identical, and a deliberately damaged
# rule must fail the check — proving the auditor can fail, not just
# that it happens to pass.
for dla in v100 dlboost vta; do
    cargo run --release --offline -p heron-bench --bin heron_audit -- \
        --dla "$dla" --op gemm --shape 128x128x128 --samples 32 \
        --out "$obs_dir/audit_$dla.json" --check >/dev/null
done
cargo run --release --offline -p heron-bench --bin heron_audit -- \
    --dla v100 --op gemm --shape 128x128x128 --samples 32 \
    --out "$obs_dir/audit_v100_rerun.json" --check >/dev/null
cmp -s "$obs_dir/audit_v100.json" "$obs_dir/audit_v100_rerun.json" || {
    echo "error: same-seed audit.json is not byte-identical" >&2
    exit 1
}
if cargo run --release --offline -p heron-bench --bin heron_audit -- \
    --dla v100 --op gemm --shape 128x128x128 --samples 32 \
    --mutate drop-le --check >/dev/null 2>&1; then
    echo "error: audit --check passed on a space with a dropped LE rule" >&2
    exit 1
fi
echo "ok: clean specs audit clean (3 platforms, byte-stable); dropped rule fails the gate"

echo "== telemetry-name lint (serve.* / pulse.* / audit.* / scope.* documentation) =="
# Every serve.*/pulse.*/audit.*/scope.* counter, point, or span name
# the code emits must be documented in DESIGN.md §10/§11/§12's name
# tables, so the dashboard and trace reports never show an unexplained
# metric.
undocumented=""
for name in $(grep -rhoE '"(serve|pulse|audit|scope)\.[a-z_.]+"' crates --include='*.rs' \
    | tr -d '"' | sort -u); do
    grep -q -- "$name" DESIGN.md || undocumented="$undocumented $name"
done
if [ -n "$undocumented" ]; then
    echo "error: telemetry names missing from DESIGN.md §10-§12:$undocumented" >&2
    exit 1
fi
echo "ok: every serve.*/pulse.*/audit.*/scope.* telemetry name is documented"

echo "== fitness-robustness lint (explorer/solver/model layers) =="
# Two recurring NaN/error-poisoning bugs, kept out by lint:
#  - `unwrap_or(0.0)` on a measurement feeds failures into the cost
#    model as perfect-zero scores (use the penalty policy instead);
#  - `partial_cmp(..)` on fitness silently reorders NaNs (use
#    `f64::total_cmp` after sanitising at the source).
poison=$(grep -rn --include='*.rs' -E 'unwrap_or\(0\.0\)|partial_cmp' \
    crates/core/src crates/csp/src crates/cost/src \
    | grep -vE ':[0-9]+:[[:space:]]*//' \
    || true)
if [ -n "$poison" ]; then
    echo "error: fitness-poisoning pattern in a library crate:" >&2
    echo "$poison" >&2
    echo "hint: penalty-fraction scoring + f64::total_cmp (DESIGN.md §6)" >&2
    exit 1
fi
echo "ok: no unwrap_or(0.0) / partial_cmp on the fitness paths"

echo "== stray-print lint (library crates) =="
# Library crates must report through heron-trace (or return values), not
# by printing: only the bench binaries and the test harness may talk to
# stdout/stderr directly. Doc comments and test modules are exempt; the
# lint is line-based, so code-fence examples inside `//!`/`///` blocks
# and `#[cfg(test)]` sections are matched by their comment or `grep -v`
# context below.
stray=$(grep -rn --include='*.rs' -E '\b(println!|eprintln!)' crates src \
    | grep -v '^crates/bench/' \
    | grep -v '^crates/testkit/' \
    | grep -vE ':[0-9]+:[[:space:]]*//' \
    | grep -vE '(^|/)tests/' \
    || true)
if [ -n "$stray" ]; then
    echo "error: direct println!/eprintln! in a library crate:" >&2
    echo "$stray" >&2
    echo "hint: route diagnostics through heron-trace (DESIGN.md §7)" >&2
    exit 1
fi
echo "ok: no stray prints outside bench/testkit"

echo "== line-reader lint (product crates) =="
# Every line-oriented text format reads through heron-trace's kv line
# reader (DESIGN.md §6); a `split_whitespace` anywhere else in a product
# crate is a second copy of its comment, blank-line and line-number rules.
split=$(grep -rn --include='*.rs' 'split_whitespace' crates src \
    | grep -v '^crates/trace/src/kv.rs:' \
    | grep -v '^crates/testkit/' \
    | grep -vE ':[0-9]+:[[:space:]]*//' \
    | grep -vE '(^|/)tests/' \
    || true)
if [ -n "$split" ]; then
    echo "error: split_whitespace outside heron-trace's kv reader:" >&2
    echo "$split" >&2
    echo "hint: read lines with heron_trace::kv::lines and Tokens" >&2
    exit 1
fi
echo "ok: every line-oriented format reads through kv"

echo "verify.sh: all checks passed"

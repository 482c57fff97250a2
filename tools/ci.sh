#!/usr/bin/env bash
# Tier-1 verification from a pristine tree: configure, build, and run the
# full test suite (plus an explicit pass over the fault-labelled suite) in a
# scratch build directory, so a stale incremental `build/` — now untracked —
# can never hide breakage.
#
# Usage: tools/ci.sh [build-dir]     (default: build-ci, wiped every run)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-ci}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== MCR-DL CI: clean configure + build + ctest =="
echo "   repo:  ${repo_root}"
echo "   build: ${build_dir} (removed first)"

rm -rf "${build_dir}"
cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j "${jobs}"

cd "${build_dir}"
ctest --output-on-failure -j "${jobs}"
# The fault/chaos suite guards the failover invariants (DESIGN.md §7); run
# it by label too so a labelling regression is caught even if test names move.
ctest --output-on-failure -j "${jobs}" -L fault
# Same for the observability suite (DESIGN.md §8): metrics, strict JSON, and
# the golden-trace byte-identity that keeps instrumentation passive.
ctest --output-on-failure -j "${jobs}" -L obs
# And the tuning suite (DESIGN.md §9): static-table semantics plus the
# online adaptive tuner's policy, quarantine, and determinism contracts.
ctest --output-on-failure -j "${jobs}" -L tune
# And the serving suite (DESIGN.md §10): admission, placement, contention,
# and deterministic trace replay.
ctest --output-on-failure -j "${jobs}" -L sched
# And the composite-collective suite (DESIGN.md §15): algorithm-string
# parsing, hier/rsag correctness against flat allreduce, the overlap
# scheduler's interleaving, and elastic shrink/rejoin across in-flight
# composites.
ctest --output-on-failure -j "${jobs}" -L coll
# And the experiment-harness suite: every registry entry's quick run exports
# a file check_report accepts, and the report rules reject what they guard.
ctest --output-on-failure -j "${jobs}" -L bench

# Chaos-differential smoke: kill rank 3 at t=2500us mid-run and require a
# clean elastic recovery — exit 0 (planned casualty only, survivors agree)
# AND at least one op actually quiesced and replayed on the shrunk
# communicator. mv2-gdr is host-synchronous, so the replay is observable in
# `recovered ops` (stream backends surface cancels at synchronize instead).
echo "== chaos smoke: rank_loss recovery =="
chaos_out="$("${build_dir}/tools/mcrdl_chaos" --scenario=rank_loss --rank=3 --at=2500 \
    --watchdog=100000 --backends=mv2-gdr --size=64k)"
echo "${chaos_out}"
recovered="$(sed -n 's/.*recovered ops *: *//p' <<<"${chaos_out}")"
if [ -z "${recovered}" ] || [ "${recovered}" -le 0 ]; then
  echo "chaos smoke FAILED: expected recovered ops > 0, got '${recovered:-none}'" >&2
  exit 1
fi

# Rejoin smoke (DESIGN.md §13): the same casualty comes back. The scripted
# loss must still quiesce and replay (recovered ops > 0, same mv2-gdr recipe
# as above), the grow phase must fire (ranks rejoined > 0), and the post-
# recovery world must be back to full size — the tool's differential check
# exits non-zero otherwise. The scenario must also be engine-independent:
# the serial baton and four shards produce byte-identical Chrome traces.
echo "== chaos smoke: rank_rejoin grow-back =="
bench_dir="${build_dir}/bench-export"
mkdir -p "${bench_dir}"
rejoin_out="$(timeout 300 "${build_dir}/tools/mcrdl_chaos" --scenario=rejoin --rank=3 \
    --at=2500 --watchdog=100000 --backends=mv2-gdr --size=64k \
    --trace="${bench_dir}/trace_rejoin_serial.json")"
echo "${rejoin_out}"
rejoin_recovered="$(sed -n 's/.*recovered ops *: *//p' <<<"${rejoin_out}")"
rejoined="$(sed -n 's/.*ranks rejoined *: *//p' <<<"${rejoin_out}")"
if [ -z "${rejoin_recovered}" ] || [ "${rejoin_recovered}" -le 0 ]; then
  echo "rejoin smoke FAILED: expected recovered ops > 0, got '${rejoin_recovered:-none}'" >&2
  exit 1
fi
if [ -z "${rejoined}" ] || [ "${rejoined}" -le 0 ]; then
  echo "rejoin smoke FAILED: expected ranks rejoined > 0, got '${rejoined:-none}'" >&2
  exit 1
fi
timeout 300 "${build_dir}/tools/mcrdl_chaos" --scenario=rejoin --rank=3 \
    --at=2500 --watchdog=100000 --backends=mv2-gdr --size=64k --threads=4 \
    --trace="${bench_dir}/trace_rejoin_shards.json" >/dev/null
if ! cmp -s "${bench_dir}/trace_rejoin_serial.json" "${bench_dir}/trace_rejoin_shards.json"; then
  echo "rejoin smoke FAILED: serial and 4-shard rejoin traces differ" >&2
  diff "${bench_dir}/trace_rejoin_serial.json" "${bench_dir}/trace_rejoin_shards.json" >&2 || true
  exit 1
fi

# Checkpoint round-trip smoke (DESIGN.md §13): save the runtime state after
# the rejoin run, restore it into a fresh no-op run, and save again — the two
# files must be byte-identical (save -> restore -> save is the format's
# determinism contract; restore counters are deliberately not serialized).
echo "== checkpoint smoke: save/restore/save byte-identity =="
timeout 300 "${build_dir}/tools/mcrdl_chaos" --scenario=rejoin --rank=3 --at=2500 \
    --watchdog=100000 --backends=mv2-gdr --size=64k \
    --checkpoint-out="${bench_dir}/ckpt_a.txt" >/dev/null
timeout 300 "${build_dir}/tools/mcrdl_chaos" --scenario=none --iterations=0 \
    --checkpoint-in="${bench_dir}/ckpt_a.txt" \
    --checkpoint-out="${bench_dir}/ckpt_b.txt" >/dev/null
if ! cmp -s "${bench_dir}/ckpt_a.txt" "${bench_dir}/ckpt_b.txt"; then
  echo "checkpoint smoke FAILED: save -> restore -> save is not byte-identical" >&2
  diff "${bench_dir}/ckpt_a.txt" "${bench_dir}/ckpt_b.txt" >&2 || true
  exit 1
fi

# Adaptation smoke: degrade the statically-best backend mid-run and require
# the online tuner to re-route (switches > 0) and the post-adaptation step
# time to land within 10% of the best undegraded alternative — the tool's
# --assert-adapt exit code enforces both (DESIGN.md §9).
echo "== adaptation smoke: mcrdl_tune --online =="
adapt_out="$("${build_dir}/tools/mcrdl_tune" --online=true --quick=true --assert-adapt=true)"
echo "${adapt_out}"
switches="$(sed -n 's/^switches *: *//p' <<<"${adapt_out}")"
if [ -z "${switches}" ] || [ "${switches}" -le 0 ]; then
  echo "adaptation smoke FAILED: expected switches > 0, got '${switches:-none}'" >&2
  exit 1
fi

# Serving smoke: replay a seeded multi-tenant trace twice and require a
# byte-identical report (deterministic replay), a sane latency distribution
# (p99 >= p50 > 0), and a deadlock-free admission queue (DESIGN.md §10).
echo "== serve smoke: mcrdl_serve deterministic replay =="
serve_out="$("${build_dir}/tools/mcrdl_serve" --jobs 300 --seed 7 --nodes 8)"
serve_out2="$("${build_dir}/tools/mcrdl_serve" --jobs 300 --seed 7 --nodes 8)"
echo "${serve_out}" | tail -n 10
if [ "${serve_out}" != "${serve_out2}" ]; then
  echo "serve smoke FAILED: two replays of the same seed differ" >&2
  diff <(echo "${serve_out}") <(echo "${serve_out2}") >&2 || true
  exit 1
fi
p50="$(sed -n 's/^p50 *: *\([0-9.]*\).*/\1/p' <<<"${serve_out}")"
p99="$(sed -n 's/^p99 *: *\([0-9.]*\).*/\1/p' <<<"${serve_out}")"
deadlocks="$(sed -n 's/^deadlocks *: *//p' <<<"${serve_out}")"
if [ -z "${p50}" ] || [ -z "${p99}" ] || \
   ! awk -v p50="${p50}" -v p99="${p99}" 'BEGIN { exit !(p50 > 0 && p99 >= p50) }'; then
  echo "serve smoke FAILED: expected p99 >= p50 > 0, got p50='${p50}' p99='${p99}'" >&2
  exit 1
fi
if [ -z "${deadlocks}" ] || [ "${deadlocks}" -ne 0 ]; then
  echo "serve smoke FAILED: expected 0 deadlocks, got '${deadlocks:-none}'" >&2
  exit 1
fi

# Parallel-engine scale smoke (DESIGN.md §11): the sharded engine must be a
# pure wall-clock optimisation — same virtual-time results, byte for byte.
#   1. The same fault-free workload under the serial baton and under four
#      shards must produce byte-identical Chrome traces.
#   2. A small fig8 DS-MoE sweep exported serial and with --threads 4 must
#      produce byte-identical BENCH files (every number in fig8 derives from
#      virtual time, so any divergence means the engines disagreed).
# Both runs sit under `timeout` so a barrier deadlock fails the smoke rather
# than hanging CI.
echo "== scale smoke: serial vs --threads 4 byte-identity =="
timeout 300 "${build_dir}/tools/mcrdl_chaos" --scenario=none --gpus=8 --iterations=6 \
    --size=256k --trace="${bench_dir}/trace_serial.json" >/dev/null
timeout 300 "${build_dir}/tools/mcrdl_chaos" --scenario=none --gpus=8 --iterations=6 \
    --size=256k --threads=4 --trace="${bench_dir}/trace_shards.json" >/dev/null
if ! cmp -s "${bench_dir}/trace_serial.json" "${bench_dir}/trace_shards.json"; then
  echo "scale smoke FAILED: serial and 4-shard traces differ" >&2
  diff "${bench_dir}/trace_serial.json" "${bench_dir}/trace_shards.json" >&2 || true
  exit 1
fi
timeout 600 "${build_dir}/tools/bench_export" --experiment fig8 --quick --out "${bench_dir}"
mv "${bench_dir}/BENCH_fig8.json" "${bench_dir}/BENCH_fig8_serial.json"
timeout 600 "${build_dir}/tools/bench_export" --experiment fig8 --quick --threads 4 \
    --out "${bench_dir}"
if ! cmp -s "${bench_dir}/BENCH_fig8_serial.json" "${bench_dir}/BENCH_fig8.json"; then
  echo "scale smoke FAILED: fig8 sweep diverges between serial and --threads 4" >&2
  diff "${bench_dir}/BENCH_fig8_serial.json" "${bench_dir}/BENCH_fig8.json" >&2 || true
  exit 1
fi

# Experiment harness (bench/experiments.h): every registered experiment —
# each paper figure, table and ablation plus the subsystem studies — runs on
# its quick grid, and its export must pass `--check`: the strict schema plus
# the experiment's named rules (fig2's increasing message-size sweep,
# hotpath's bucketed/unbucketed speedup >= 1.5x, hier's flat-vs-hier and
# overlap orderings, resilience's "loss step > clean step"). Every committed
# BENCH_*.json baseline must pass the same check.
echo "== bench_export: every experiment on the quick grid, then --check =="
for name in $("${build_dir}/tools/bench_export" --list | awk '{print $1}'); do
  timeout 600 "${build_dir}/tools/bench_export" --experiment "${name}" --quick \
      --out "${bench_dir}" >/dev/null
  "${build_dir}/tools/bench_export" --check "${bench_dir}/BENCH_${name}.json"
done
for baseline in "${repo_root}"/BENCH_*.json; do
  "${build_dir}/tools/bench_export" --check "${baseline}"
done

# Memory-check the dispatch hot path and the payload kernels: rebuild the
# core, fault, coll, tensor and backends suites with -fsanitize=address and
# run them by label. Each stage's continuation carries a pointer into its
# caller's stack frame (the exclusive-time accumulator), exercised hardest by
# retries (fault) and by composite sub-ops re-entering the pipeline (coll);
# the bucketing layer slices fused buffers back through completion closures.
# Those are exactly the lifetime games ASan catches (a dangling frame
# pointer, a leaked flush timer's closure, a completion callback outliving
# its Work). The tensor/backends suites drive the typed bulk kernels, which
# index raw malloc'd storage by block, view offset and reduce-scatter range.
# Leak detection stays on.
echo "== asan smoke: core/fault/coll/tensor/backends suites under -fsanitize=address =="
asan_dir="${build_dir}-asan"
rm -rf "${asan_dir}"
cmake -B "${asan_dir}" -S "${repo_root}" -DMCRDL_SANITIZE=address
cmake --build "${asan_dir}" -j "${jobs}" --target \
    core_api_test core_fusion_test core_bucketing_test core_pipeline_test \
    core_golden_trace_test core_logger_test core_compression_hook_test \
    core_emulation_test core_trace_test core_persistent_test \
    core_process_groups_test core_composite_work_test \
    fault_injector_test fault_policy_test fault_failover_test fault_watchdog_test \
    fault_recovery_test fault_checkpoint_test fault_rejoin_test \
    coll_spec_test coll_composite_test coll_overlap_test coll_elastic_test \
    tensor_dtype_test tensor_tensor_test tensor_kernel_test tensor_collective_dtype_test \
    backends_engine_test backends_one_pass_test backends_collectives_test \
    backends_semantics_test backends_p2p_test backends_differential_test \
    backends_failure_injection_test
( cd "${asan_dir}" && ctest --output-on-failure -j "${jobs}" -L 'core|fault|coll|tensor|backends' )

# Undefined-behaviour check of the payload data path: the typed kernels cast
# raw storage to element pointers and narrow doubles into every dtype, and
# the composites slice scratch by computed offsets. halt_on_error turns the
# first report into a failing test instead of a log line.
echo "== ubsan smoke: tensor/backends/coll suites under -fsanitize=undefined =="
ubsan_dir="${build_dir}-ubsan"
rm -rf "${ubsan_dir}"
cmake -B "${ubsan_dir}" -S "${repo_root}" -DMCRDL_SANITIZE=undefined
cmake --build "${ubsan_dir}" -j "${jobs}" --target \
    tensor_dtype_test tensor_tensor_test tensor_kernel_test tensor_collective_dtype_test \
    backends_engine_test backends_one_pass_test backends_collectives_test \
    backends_semantics_test backends_p2p_test backends_differential_test \
    backends_failure_injection_test \
    coll_spec_test coll_composite_test coll_overlap_test coll_elastic_test
( cd "${ubsan_dir}" && UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --output-on-failure -j "${jobs}" -L 'tensor|backends|coll' )

# Race-check the parallel engine for real: rebuild the sim/sched suites with
# -fsanitize=thread and run them (the execution-model tests drive both
# engines, the serve suite drives the harness on top). A data race fails the
# test binary's exit code, which fails ctest. Deadlock (lock-order) detection
# is off: nested rendezvous completion chains legitimately take two
# rendezvous mutexes in either order, but only ever from the serialized
# event-dispatch context (the baton holder, or the shard controller's event
# phase), so the cycles tsan's static lock graph reports cannot interleave.
# Race detection — the thing the shard engine could actually break — stays on.
echo "== tsan smoke: sim/sched suites under -fsanitize=thread =="
tsan_dir="${build_dir}-tsan"
rm -rf "${tsan_dir}"
cmake -B "${tsan_dir}" -S "${repo_root}" -DMCRDL_SANITIZE=thread
cmake --build "${tsan_dir}" -j "${jobs}" --target \
    sim_scheduler_test sim_execution_model_test sim_device_test sim_stress_test \
    sched_trace_test sched_admission_test sched_tenant_groups_test sched_serve_test \
    coll_spec_test coll_composite_test coll_overlap_test coll_elastic_test
( cd "${tsan_dir}" && TSAN_OPTIONS=detect_deadlocks=0 \
    ctest --output-on-failure -j "${jobs}" -L 'sim|sched|coll' )

echo "== CI passed =="

#!/usr/bin/env bash
# Builds the Release tree and runs the benchmark suite, recording performance
# numbers into BENCH_sim.json at the repo root. Every bench and afa_bench
# reports through BENCH_RECORD lines (bench/bench_util.h); the records land
# in the JSON by kind:
#
#   - sim_perf (google-benchmark): event-queue throughput, old vs new
#     implementation, median of --repetitions runs.
#   - "metric" records -> .bench_metrics: one per figure/table bench
#     (wall-clock seconds, simulated events, events/sec, peak RSS) via
#     BenchMetricScope, plus afa_bench --full-geometry as afa_fullgeo.
#   - "nvme_frontend" / "hostbuf_endurance" records -> .frontend_series:
#     the deterministic NVMe queue sweep and host-buffer endurance curve,
#     tagged with series_kind NVME_FRONTEND / HOSTBUF_ENDURANCE.
#   - the "histograms" record of a reference afa_bench --stats run ->
#     .histograms: latency histogram summaries per layer
#     (p50/p99/p99.9/max), so latency-shape regressions show up next to the
#     throughput numbers.
#
# Usage:
#   tools/run_benches.sh             # everything above (minutes)
#   tools/run_benches.sh --quick     # sim_perf, the deterministic benches
#                                    # and the histogram run; keeps the last
#                                    # full run's wall-clock bench_metrics
#
# Honors BIZA_THREADS for the parallel experiment runner inside the benches.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-release"
out_json="${repo_root}/BENCH_sim.json"
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" >/dev/null

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

echo "== sim_perf (event-queue microbenchmark) =="
"${build_dir}/bench/sim_perf" \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="${tmp_dir}/sim_perf.json" \
  --benchmark_out_format=json

# Runs one command, keeps its output as ${tmp_dir}/NAME.out and appends its
# records (each BENCH_RECORD line minus the prefix) to ${records}.
records="${tmp_dir}/records.jsonl"
: > "${records}"
run() {
  local name="$1"
  shift
  echo "== ${name} =="
  "$@" > "${tmp_dir}/${name}.out" || echo "warning: ${name} exited $?" >&2
  sed -n 's/^BENCH_RECORD //p' "${tmp_dir}/${name}.out" >> "${records}"
}

if [[ "${quick}" -eq 1 ]]; then
  run hostbuf_endurance "${build_dir}/bench/hostbuf_endurance"
  run nvme_frontend "${build_dir}/bench/nvme_frontend"
else
  for bench in "${build_dir}"/bench/*; do
    name="$(basename "${bench}")"
    [[ -f "${bench}" && -x "${bench}" ]] || continue
    case "${name}" in
      sim_perf|micro_components) continue ;;  # google-benchmark binaries
    esac
    run "${name}" "${bench}"
  done
fi
run afa_bench_stats "${build_dir}/tools/afa_bench" --platform=BIZA \
  --workload=casa --requests=20000 --seconds=1 --stats
if [[ "${quick}" -eq 0 ]]; then
  run afa_fullgeo "${build_dir}/tools/afa_bench" --platform=BIZA \
    --workload=casa --full-geometry --requests=600000 --seconds=10 \
    --bench-metric=afa_fullgeo
fi

# Quick mode skips the wall-clock figure benches; keep the last full run's
# metrics for them.
kept_metrics="${tmp_dir}/kept_metrics.json"
echo 'null' > "${kept_metrics}"
if [[ "${quick}" -eq 1 && -f "${out_json}" ]]; then
  jq '.bench_metrics // []' "${out_json}" > "${kept_metrics}"
fi

jq -n \
  --slurpfile perf "${tmp_dir}/sim_perf.json" \
  --slurpfile rec "${records}" \
  --slurpfile kept "${kept_metrics}" \
  '{
     generated_by: "tools/run_benches.sh",
     sim_perf: ($perf[0].benchmarks
                | map(select(.run_type == "aggregate" and
                             .aggregate_name == "median")
                      | {name, items_per_second})),
     bench_metrics: ($kept[0]
                     // [$rec[] | select(.kind == "metric") | del(.kind)]),
     frontend_series: [$rec[]
                       | select(.kind == "hostbuf_endurance" or
                                .kind == "nvme_frontend")
                       | del(.kind) + {series_kind: (.kind | ascii_upcase)}],
     histograms: ([$rec[] | select(.kind == "histograms") | .histograms][0]
                  // {})
   }' > "${out_json}"

echo "wrote ${out_json}"
jq '.sim_perf' "${out_json}"

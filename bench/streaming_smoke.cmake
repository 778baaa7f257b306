# streaming-smoke: run bench_runtime with a short stream session and
# validate the stream_relay entries in the emitted ff-bench-runtime-v5 JSON:
# the kernels array must carry stream_relay, stream_relay_throughput and
# stream_relay_f32 rows, the top-level "stream", "stream_throughput" and
# "stream_f32" objects must report throughput and per-block latency, the
# throughput row must carry either a speedup_vs_reference ratio or an
# explicit skipped_reason (single visible CPU), the f32 row must carry a
# speedup_f32_vs_f64 ratio (SIMD width needs no spare cores) and its own
# checksum distinct from the f64 one, and the determinism flags (output
# checksum identical across block sizes, thread counts, scheduler modes and
# batch sizes — per precision family) must be true. bench_runtime exits
# non-zero on a violation, which is also caught.
#
# When STREAMING_RELAY and RELAY_GRAPH are given, the script also runs the
# streaming_relay example with the checked-in declarative graph description
# (examples/relay.ff) and requires the decode to report crc=OK — the
# text-built session must reproduce the hand-wired physics end to end. The
# same example is then re-run with --precision f32: the float32 fast path
# must also decode crc=OK.
#
# Invoked by CTest as:
#   cmake -DBENCH_RUNTIME=<path> -DWORK_DIR=<dir>
#         [-DSTREAMING_RELAY=<path> -DRELAY_GRAPH=<file.ff>]
#         -P streaming_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
if(NOT BENCH_RUNTIME)
  message(FATAL_ERROR "pass -DBENCH_RUNTIME=<path to bench_runtime>")
endif()
if(NOT WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(bench_json ${WORK_DIR}/BENCH_runtime_streaming_smoke.json)
execute_process(
  COMMAND ${BENCH_RUNTIME} --clients 2 --reps 1
          --duration 5e-4 --block-size 64 --backpressure 4
          --city-grid 2 --city-clients 2
          --out ${bench_json}
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_runtime failed (rc=${rc}); a nonzero exit also "
                      "means a determinism violation.\n${out}\n${err}")
endif()

file(READ ${bench_json} doc)

string(JSON schema ERROR_VARIABLE jerr GET "${doc}" schema)
if(jerr)
  message(FATAL_ERROR "bench JSON does not parse: ${jerr}")
endif()
if(NOT schema STREQUAL "ff-bench-runtime-v5")
  message(FATAL_ERROR "unexpected schema tag '${schema}' (want ff-bench-runtime-v5)")
endif()

# v3: the visible-CPU count that perf rows condition their speedup claims on.
string(JSON hwc ERROR_VARIABLE jerr GET "${doc}" hardware_concurrency)
if(jerr)
  message(FATAL_ERROR "bench JSON missing v3 'hardware_concurrency' field: ${jerr}")
endif()
if(NOT hwc GREATER 0)
  message(FATAL_ERROR "hardware_concurrency = ${hwc}, expected >= 1")
endif()

# v2 build/runtime provenance fields: the dispatched kernel ISA must be one
# of the known names and must be consistent with whether the SIMD path was
# compiled at all (scalar is always legal — an FF_SIMD=ON build runs it on
# a CPU without AVX2).
string(JSON isa ERROR_VARIABLE jerr GET "${doc}" isa)
if(jerr)
  message(FATAL_ERROR "bench JSON missing v2 'isa' field: ${jerr}")
endif()
if(NOT isa MATCHES "^(scalar|avx2)$")
  message(FATAL_ERROR "unexpected isa '${isa}' (want scalar|avx2)")
endif()
string(JSON simd ERROR_VARIABLE jerr GET "${doc}" ff_simd)
if(jerr)
  message(FATAL_ERROR "bench JSON missing v2 'ff_simd' field: ${jerr}")
endif()
if(NOT simd STREQUAL "ON" AND NOT isa STREQUAL "scalar")
  message(FATAL_ERROR "ff_simd=${simd} but isa=${isa}: a SIMD ISA cannot "
                      "dispatch in a build without compiled SIMD paths")
endif()
string(JSON native ERROR_VARIABLE jerr GET "${doc}" ff_native)
if(jerr)
  message(FATAL_ERROR "bench JSON missing v2 'ff_native' field: ${jerr}")
endif()

# The kernels array must contain a stream_relay row with a positive timing.
string(JSON n ERROR_VARIABLE jerr LENGTH "${doc}" kernels)
if(jerr)
  message(FATAL_ERROR "bench JSON missing 'kernels' array: ${jerr}")
endif()
set(found_row FALSE)
set(found_tp_row FALSE)
set(found_f32_row FALSE)
set(found_fft_f32_row FALSE)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last})
  string(JSON name GET "${doc}" kernels ${i} name)
  if(name MATCHES "^(stream_relay|stream_relay_throughput|stream_relay_f32|fft64_forward_f32)$")
    if(name STREQUAL "stream_relay")
      set(found_row TRUE)
    elseif(name STREQUAL "stream_relay_throughput")
      set(found_tp_row TRUE)
    elseif(name STREQUAL "stream_relay_f32")
      set(found_f32_row TRUE)
    else()
      set(found_fft_f32_row TRUE)
    endif()
    string(JSON ms GET "${doc}" kernels ${i} best_of_ms)
    if(NOT ms GREATER 0)
      message(FATAL_ERROR "${name} best_of_ms = ${ms}, expected > 0")
    endif()
  endif()
endforeach()
if(NOT found_row)
  message(FATAL_ERROR "no stream_relay row in the kernels array of ${bench_json}")
endif()
if(NOT found_tp_row)
  message(FATAL_ERROR "no stream_relay_throughput row in the kernels array of ${bench_json}")
endif()
if(NOT found_f32_row)
  message(FATAL_ERROR "no stream_relay_f32 row in the kernels array of ${bench_json}")
endif()
if(NOT found_fft_f32_row)
  message(FATAL_ERROR "no fft64_forward_f32 row in the kernels array of ${bench_json}")
endif()

# The top-level stream object: config echoed back, throughput + per-block
# latency present and positive, determinism flag true.
foreach(field samples blocks samples_per_sec us_per_block)
  string(JSON v ERROR_VARIABLE jerr GET "${doc}" stream ${field})
  if(jerr)
    message(FATAL_ERROR "stream object missing '${field}': ${jerr}")
  endif()
  if(NOT v GREATER 0)
    message(FATAL_ERROR "stream.${field} = ${v}, expected > 0")
  endif()
endforeach()
string(JSON bs GET "${doc}" stream block_size)
if(NOT bs EQUAL 64)
  message(FATAL_ERROR "stream.block_size = ${bs}, expected the requested 64")
endif()
string(JSON det GET "${doc}" stream deterministic)
if(NOT det STREQUAL "ON")
  message(FATAL_ERROR "stream.deterministic = ${det}: the session output was "
                      "not bit-identical across block sizes / thread counts")
endif()

# v3: the stream_throughput object — pipeline-scheduler config echoed back,
# positive rate, matching checksum, and an honest speedup field: a ratio on
# multi-core hosts, an explicit skipped_reason on single-CPU ones.
string(JSON tp_mode ERROR_VARIABLE jerr GET "${doc}" stream_throughput mode)
if(jerr)
  message(FATAL_ERROR "bench JSON missing v3 'stream_throughput' object: ${jerr}")
endif()
if(NOT tp_mode STREQUAL "throughput")
  message(FATAL_ERROR "stream_throughput.mode = '${tp_mode}', want 'throughput'")
endif()
foreach(field batch_size samples blocks samples_per_sec us_per_block)
  string(JSON v ERROR_VARIABLE jerr GET "${doc}" stream_throughput ${field})
  if(jerr)
    message(FATAL_ERROR "stream_throughput object missing '${field}': ${jerr}")
  endif()
  if(NOT v GREATER 0)
    message(FATAL_ERROR "stream_throughput.${field} = ${v}, expected > 0")
  endif()
endforeach()
string(JSON tp_pinned ERROR_VARIABLE jerr GET "${doc}" stream_throughput pinned)
if(jerr)
  message(FATAL_ERROR "stream_throughput object missing 'pinned': ${jerr}")
endif()
string(JSON ref_cs GET "${doc}" stream checksum)
string(JSON tp_cs GET "${doc}" stream_throughput checksum)
if(NOT tp_cs STREQUAL "${ref_cs}")
  message(FATAL_ERROR "stream_throughput.checksum ${tp_cs} != stream.checksum "
                      "${ref_cs}: the pipeline scheduler changed the output")
endif()
string(JSON speedup ERROR_VARIABLE sp_err GET "${doc}" stream_throughput speedup_vs_reference)
string(JSON skipped ERROR_VARIABLE sk_err GET "${doc}" stream_throughput skipped_reason)
if(sp_err AND sk_err)
  message(FATAL_ERROR "stream_throughput carries neither speedup_vs_reference "
                      "nor skipped_reason; one of the two must explain the perf claim")
endif()
if(NOT sp_err AND NOT sk_err)
  message(FATAL_ERROR "stream_throughput carries both speedup_vs_reference and "
                      "skipped_reason; they are mutually exclusive")
endif()

# v5: the stream_f32 object — the same session on the float32 kernel family.
# Its checksum is a separate pinned family (must differ from the f64 one),
# its determinism flag covers the f32 block/thread/mode grid, and the
# speedup_f32_vs_f64 ratio is present unconditionally: SIMD width, unlike
# thread count, does not need spare cores to mean something.
string(JSON f32_prec ERROR_VARIABLE jerr GET "${doc}" stream_f32 precision)
if(jerr)
  message(FATAL_ERROR "bench JSON missing v5 'stream_f32' object: ${jerr}")
endif()
if(NOT f32_prec STREQUAL "f32")
  message(FATAL_ERROR "stream_f32.precision = '${f32_prec}', want 'f32'")
endif()
foreach(field samples blocks samples_per_sec us_per_block speedup_f32_vs_f64)
  string(JSON v ERROR_VARIABLE jerr GET "${doc}" stream_f32 ${field})
  if(jerr)
    message(FATAL_ERROR "stream_f32 object missing '${field}': ${jerr}")
  endif()
  if(NOT v GREATER 0)
    message(FATAL_ERROR "stream_f32.${field} = ${v}, expected > 0")
  endif()
endforeach()
string(JSON f32_det GET "${doc}" stream_f32 deterministic)
if(NOT f32_det STREQUAL "ON")
  message(FATAL_ERROR "stream_f32.deterministic = ${f32_det}: the f32 session "
                      "output was not bit-identical across its block/thread/mode grid")
endif()
string(JSON f32_cs GET "${doc}" stream_f32 checksum)
if(f32_cs STREQUAL "${ref_cs}")
  message(FATAL_ERROR "stream_f32.checksum equals the f64 stream checksum "
                      "${ref_cs}: the precision switch did not take effect")
endif()

message(STATUS "streaming smoke OK: stream_relay rows and stream/stream_throughput/stream_f32 objects valid in ${bench_json}")

# The declarative-graph path: build the session from the checked-in
# examples/relay.ff description and require a clean end-to-end decode.
if(STREAMING_RELAY)
  if(NOT RELAY_GRAPH)
    message(FATAL_ERROR "pass -DRELAY_GRAPH=<file.ff> along with -DSTREAMING_RELAY")
  endif()
  execute_process(
    COMMAND ${STREAMING_RELAY} --graph ${RELAY_GRAPH}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "streaming_relay --graph ${RELAY_GRAPH} failed "
                        "(rc=${rc}).\n${out}\n${err}")
  endif()
  if(NOT out MATCHES "crc=OK")
    message(FATAL_ERROR "streaming_relay --graph ${RELAY_GRAPH} did not decode "
                        "cleanly (no 'crc=OK' in output).\n${out}")
  endif()
  message(STATUS "streaming smoke OK: text-built session from ${RELAY_GRAPH} decoded crc=OK")

  # The float32 fast path must decode the same session cleanly too (the
  # hand-wired topology; --precision f32 switches every sample path).
  execute_process(
    COMMAND ${STREAMING_RELAY} --precision f32
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "streaming_relay --precision f32 failed (rc=${rc}).\n${out}\n${err}")
  endif()
  if(NOT out MATCHES "crc=OK")
    message(FATAL_ERROR "streaming_relay --precision f32 did not decode cleanly "
                        "(no 'crc=OK' in output).\n${out}")
  endif()
  message(STATUS "streaming smoke OK: float32 session decoded crc=OK")
endif()

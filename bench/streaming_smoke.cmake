# streaming-smoke: the streaming_relay example end to end.
#
# 1. examples/relay.ff is the built-in session's graph description: what
#    `streaming_relay --dump-graph` prints must equal the checked-in file
#    byte for byte (its first line says it was generated that way, and the
#    daemon soak and the benchmark both build on that topology).
# 2. The session built from examples/relay.ff (--graph) decodes crc=OK:
#    the text-built session reproduces the hand-wired physics.
# 3. The hand-wired session on the float32 path (--precision f32) decodes
#    crc=OK too.
# 4. The hand-wired session on the throughput scheduler (--mode throughput
#    --threads 3 --batch-size 8) decodes crc=OK.
# 5. --threads 2 without --mode throughput is refused: the reference mode
#    runs one chain, so the run must exit non-zero and name the fix.
#
# The session checksums, at every block size, chain count and scheduler
# mode, are pinned by stream_test (StreamThroughput.* and StreamF32.*).
#
# Invoked by CTest as:
#   cmake -DSTREAMING_RELAY=<path> -DRELAY_GRAPH=<file.ff> -DWORK_DIR=<dir>
#         -P streaming_smoke.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT STREAMING_RELAY OR NOT RELAY_GRAPH)
  message(FATAL_ERROR "pass -DSTREAMING_RELAY=<path> and -DRELAY_GRAPH=<file.ff>")
endif()
if(NOT WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

# Run streaming_relay with the given arguments; fail unless it exits 0.
# The captured stdout lands in `run_out`.
function(run_streaming_relay)
  list(JOIN ARGN " " shown)
  execute_process(
    COMMAND ${STREAMING_RELAY} ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "streaming_relay ${shown} failed (rc=${rc}).\n${out}\n${err}")
  endif()
  set(run_out "${out}" PARENT_SCOPE)
endfunction()

# Run streaming_relay with the given arguments and require a crc=OK decode.
function(expect_clean_decode)
  list(JOIN ARGN " " shown)
  run_streaming_relay(${ARGN})
  if(NOT run_out MATCHES "crc=OK")
    message(FATAL_ERROR "streaming_relay ${shown} did not decode cleanly "
                        "(no 'crc=OK' in output).\n${run_out}")
  endif()
  message(STATUS "streaming smoke OK: streaming_relay ${shown} decoded crc=OK")
endfunction()

set(dumped ${WORK_DIR}/streaming_smoke_dump.ff)
run_streaming_relay(--dump-graph ${dumped})
file(READ ${dumped} dumped_text)
file(READ ${RELAY_GRAPH} checked_in_text)
if(NOT dumped_text STREQUAL checked_in_text)
  message(FATAL_ERROR "${RELAY_GRAPH} differs from what streaming_relay "
                      "--dump-graph prints (${dumped}); regenerate it with "
                      "--dump-graph or fix the drift")
endif()
message(STATUS "streaming smoke OK: ${RELAY_GRAPH} equals the --dump-graph output")

expect_clean_decode(--graph ${RELAY_GRAPH})
expect_clean_decode(--precision f32)
expect_clean_decode(--mode throughput --threads 3 --batch-size 8)

execute_process(
  COMMAND ${STREAMING_RELAY} --threads 2
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "--mode throughput")
  message(FATAL_ERROR "streaming_relay --threads 2 must exit non-zero naming "
                      "'--mode throughput' (rc=${rc}).\n${out}\n${err}")
endif()
message(STATUS "streaming smoke OK: streaming_relay --threads 2 is refused without --mode throughput")

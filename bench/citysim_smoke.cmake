# citysim-smoke: the citysim example's streamed JSONL output.
#
# Run the example with --jsonl and require the gain summary line on stdout
# and one well-formed ff-city-session-v1 JSON object per line:
# sessions = sites x clients x 2 lines, in global session order. The city
# checksum and the JSONL bytes across shard x thread counts are pinned by
# city_test.
#
# Invoked by CTest as:
#   cmake -DCITYSIM=<path> -DWORK_DIR=<dir> -P citysim_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
if(NOT CITYSIM)
  message(FATAL_ERROR "pass -DCITYSIM=<path to the citysim example>")
endif()
if(NOT WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(jsonl ${WORK_DIR}/citysim_smoke.jsonl)
execute_process(
  COMMAND ${CITYSIM} 2 2 --clients 2 --seed 7 --shards 4 --jsonl ${jsonl}
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "citysim failed (rc=${rc}).\n${out}\n${err}")
endif()
if(NOT out MATCHES "FF gain vs HD mesh:")
  message(FATAL_ERROR "citysim did not print the gain summary line.\n${out}")
endif()

file(STRINGS ${jsonl} lines)
list(LENGTH lines nlines)
if(NOT nlines EQUAL 16)
  message(FATAL_ERROR "expected 16 JSONL lines (2x2 sites x 2 clients x 2 "
                      "directions), got ${nlines} in ${jsonl}")
endif()
set(i 0)
foreach(line IN LISTS lines)
  string(JSON sess ERROR_VARIABLE jerr GET "${line}" session)
  if(jerr)
    message(FATAL_ERROR "JSONL line ${i} does not parse: ${jerr}\n${line}")
  endif()
  if(NOT sess EQUAL ${i})
    message(FATAL_ERROR "JSONL line ${i} carries session=${sess}: the stream "
                        "is not in global session order")
  endif()
  foreach(field site client dir x y ff_mbps hd_mesh_mbps direct_mbps interference_dbm)
    string(JSON v ERROR_VARIABLE jerr GET "${line}" ${field})
    if(jerr)
      message(FATAL_ERROR "JSONL line ${i} missing '${field}': ${jerr}\n${line}")
    endif()
  endforeach()
  math(EXPR i "${i} + 1")
endforeach()

message(STATUS "citysim smoke OK: ${jsonl} is ${nlines} well-formed "
               "ff-city-session-v1 lines in session order")

# ctest script: the figure, ablation and extension benches print the same
# series as the revision their digests were taken from. Each bench listed in
# DIGESTS runs with --quick --threads=1 --json=-; the "wall_ms" fields (the
# only wall-clock values in that output) are dropped and the SHA-256 of the
# rest of stdout must equal the listed digest.
#
#   cmake -DBENCH_DIR=<dir with the bench binaries> -DDIGESTS=<bench/figure_digests.sha256>
#         -P check_bench_digests.cmake
#
# The digest file holds one "<sha256>  <bench name>" line per bench, the
# format `sha256sum` prints, so a line can be regenerated with
#   <bench> --quick --threads=1 --json=- | sed -E 's/"wall_ms":[0-9.eE+-]+//g' | sha256sum
if(NOT DEFINED BENCH_DIR OR NOT DEFINED DIGESTS)
  message(FATAL_ERROR "pass -DBENCH_DIR=<dir> -DDIGESTS=<file>")
endif()

file(STRINGS "${DIGESTS}" lines REGEX "^[0-9a-f]+  [A-Za-z0-9_]+$")
if(NOT lines)
  message(FATAL_ERROR "${DIGESTS} lists no bench")
endif()
set(failed "")
foreach(line IN LISTS lines)
  string(REGEX MATCH "^([0-9a-f]+)  ([A-Za-z0-9_]+)$" _ "${line}")
  set(want "${CMAKE_MATCH_1}")
  set(name "${CMAKE_MATCH_2}")
  execute_process(COMMAND "${BENCH_DIR}/${name}" --quick --threads=1 --json=-
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited ${rc}\n${err}")
  endif()
  string(REGEX REPLACE "\"wall_ms\":[0-9.eE+-]+" "" out "${out}")
  string(SHA256 got "${out}")
  if(NOT got STREQUAL want)
    message("${name}: digest ${got}, want ${want}")
    list(APPEND failed ${name})
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "bench output changed: ${failed}")
endif()

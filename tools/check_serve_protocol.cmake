# ctest script: end-to-end smoke of `meshroutectl serve` — the line protocol
# over both --script and stdin. Asserts each command class produces its OK
# reply (with the epoch swap after INJECT), malformed input produces ERR
# without killing the session, and the STATS payload is a JSON object
# carrying the expected fields (full parse round-trip lives in
# tests/test_serve.cpp via json::parse, common/json.hpp — the module the
# STATS/HEALTH replies and the METRICS gauges are written through).
#
#   cmake -DCTL=<path-to-meshroutectl> -DWORK_DIR=<dir>
#         -P check_serve_protocol.cmake
if(NOT DEFINED CTL OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DCTL=<path-to-meshroutectl> -DWORK_DIR=<dir>")
endif()

set(script "${WORK_DIR}/serve_script.txt")
file(WRITE "${script}"
"# smoke script: every command class, plus a parse error mid-session.
# METRICS appears twice with queries in between so the two scrapes must
# show a moved serve.queries counter (checked below).
EPOCH
DECIDE 2 2 20 21
ROUTE 2 2 20 21
METRICS
INJECT 10 10
EPOCH
DECIDE 2 2 20 21
STATS
HEALTH
METRICS
BOGUS 1 2
QUIT
")

foreach(mode script stdin)
  if(mode STREQUAL "script")
    execute_process(COMMAND ${CTL} serve --n 24 --faults 20 --seed 3 --script ${script}
                    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  else()
    execute_process(COMMAND ${CTL} serve --n 24 --faults 20 --seed 3
                    INPUT_FILE ${script}
                    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  endif()
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve (${mode}) exited with ${rc}:\n${out}${err}")
  endif()
  foreach(needle
      "OK EPOCH 0"
      "OK DECIDE"
      "OK ROUTE"
      "OK INJECT epoch=1"
      "OK EPOCH 1"
      "OK STATS {"
      "\"epoch\":1"
      "\"readers\":"
      "\"window_queries\":"
      "\"window_query_p99_us\":"
      "OK HEALTH {"
      "\"epoch_lag\":0"
      "OK METRICS"
      "# TYPE meshroute_serve_queries_total counter"
      "# TYPE meshroute_serve_query_us histogram"
      "_bucket{le="
      "meshroute_serve_window_queries_per_s"
      "meshroute_serve_queue_depth_now"
      "meshroute_serve_epoch_lag"
      "# EOF"
      "ERR unknown command"
      "OK BYE")
    string(FIND "${out}" "${needle}" idx)
    if(idx EQUAL -1)
      message(FATAL_ERROR "serve (${mode}) output missing '${needle}':\n${out}")
    endif()
  endforeach()
  # The live-observability acceptance check: the lifetime serve.queries
  # counter must have moved between the two scrapes (queries ran in between).
  string(REGEX MATCHALL "meshroute_serve_queries_total [0-9]+" scrapes "${out}")
  list(LENGTH scrapes n_scrapes)
  if(NOT n_scrapes EQUAL 2)
    message(FATAL_ERROR "serve (${mode}) expected 2 METRICS scrapes, saw ${n_scrapes}:\n${out}")
  endif()
  list(GET scrapes 0 scrape0)
  list(GET scrapes 1 scrape1)
  if(scrape0 STREQUAL scrape1)
    message(FATAL_ERROR "serve (${mode}) METRICS did not move between scrapes: '${scrape0}'")
  endif()
endforeach()

# Resilience phase: serve-chaos sheds the first read (BUSY + scripted-client
# retry), two dropped publications push the epoch lag past --max-staleness
# (DEGRADED reply + HEALTH lag), and SHUTDOWN ends the session.
set(rscript "${WORK_DIR}/serve_resilience_script.txt")
file(WRITE "${rscript}"
"ROUTE 2 2 20 21
INJECT 10 10
INJECT 11 10
HEALTH
ROUTE 2 2 20 21
SHUTDOWN
")

execute_process(COMMAND ${CTL} serve --n 24 --faults 20 --seed 3
                --chaos "shed=1;pubdrop=1;pubdrop=2" --max-staleness 1
                --script ${rscript}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve (resilience) exited with ${rc}:\n${out}${err}")
endif()
foreach(needle
    "BUSY "
    "OK ROUTE"
    "\"epoch_lag\":2"
    "\"shed_total\":1"
    "DEGRADED ROUTE"
    " attr="
    " lag=2"
    "OK SHUTDOWN")
  string(FIND "${out}" "${needle}" idx)
  if(idx EQUAL -1)
    message(FATAL_ERROR "serve (resilience) output missing '${needle}':\n${out}")
  endif()
endforeach()

message(STATUS "serve protocol replies match over --script and stdin")

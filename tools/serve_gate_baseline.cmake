# serve_gate_baseline(<out> <source dir> <build type> <trace>) sets <out> to
# the checked-in BENCH_serve baseline that serve_bench_tracked_gate compares a
# fresh serve_sweep run with, or to "" when the configuration has none. The
# candidate is BENCH_serve.json for Release and BENCH_serve_<build type>.json
# for another build type. It counts only when its meta records the same
# build type and the same tracing (<trace> is MESHROUTE_TRACE): bench_compare
# refuses to compare across either, so a gate on any other baseline would
# fail on every run.
function(serve_gate_baseline out source_dir build_type trace)
  set(${out} "" PARENT_SCOPE)
  if(build_type STREQUAL "Release")
    set(path ${source_dir}/BENCH_serve.json)
  else()
    set(path ${source_dir}/BENCH_serve_${build_type}.json)
  endif()
  if(NOT EXISTS ${path})
    return()
  endif()
  file(READ ${path} doc)
  string(JSON recorded_type GET "${doc}" meta build_type)
  string(JSON recorded_trace GET "${doc}" meta trace_enabled)
  if(NOT recorded_type STREQUAL build_type)
    message(STATUS "${path} records build type ${recorded_type}: no serve_bench_tracked_gate")
    return()
  endif()
  if((trace AND NOT recorded_trace) OR (recorded_trace AND NOT trace))
    message(STATUS "${path} records trace_enabled ${recorded_trace}: no serve_bench_tracked_gate")
    return()
  endif()
  set(${out} ${path} PARENT_SCOPE)
endfunction()

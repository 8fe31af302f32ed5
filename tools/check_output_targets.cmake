# ctest script: every front end fails a --<flag>=FILE target that cannot be
# opened (json::write_output) with a non-zero exit and exactly one
# `error: cannot open --<flag> file '<path>'` line on stderr.
#
#   cmake -DFIG09=<path> -DMICROBENCH=<path> -DCTL=<path-to-meshroutectl>
#         -DWORK_DIR=<dir> -P check_output_targets.cmake

# A file inside a directory that does not exist cannot be opened.
set(target "${WORK_DIR}/output_target_missing_dir/out.json")
file(REMOVE_RECURSE "${WORK_DIR}/output_target_missing_dir")

function(expect_one_open_error flag rc err)
  set(expected "error: cannot open --${flag} file '${target}'")
  string(REPLACE "\n" ";" lines "${err}")
  list(FILTER lines INCLUDE REGEX "^error: cannot open --${flag} file ")
  list(LENGTH lines hits)
  if(rc EQUAL 0 OR NOT hits EQUAL 1 OR NOT lines STREQUAL expected)
    message(FATAL_ERROR "--${flag}: want a non-zero exit and one '${expected}' "
                        "line, got exit ${rc} and stderr:\n${err}")
  endif()
endfunction()

execute_process(COMMAND ${FIG09} --quick --threads=1 --metrics=${target}
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
expect_one_open_error(metrics "${rc}" "${err}")
execute_process(COMMAND ${FIG09} --quick --threads=1 --json=${target}
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
expect_one_open_error(json "${rc}" "${err}")
execute_process(COMMAND ${MICROBENCH} --quick --json=${target}
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
expect_one_open_error(json "${rc}" "${err}")
# The meshroutectl_trace_export arguments, with the trace aimed at ${target}.
execute_process(COMMAND ${CTL} route --n 24 --faults 50 --seed 3 --src 1,1 --dst 22,21
                        --chaos "rand=10@30;lag=12;hoplag=2" --ttl 300 --trace ${target}
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
expect_one_open_error(trace "${rc}" "${err}")

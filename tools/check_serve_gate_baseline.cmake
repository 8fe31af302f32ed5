# ctest script: serve_gate_baseline (serve_gate_baseline.cmake) must pick a
# baseline only when its meta matches the build type and the tracing, so no
# configuration registers a serve_bench_tracked_gate that bench_compare is
# bound to refuse; and the checked-in baselines must still be picked for the
# traced Release and RelWithDebInfo builds.
#
#   cmake -DSOURCE_DIR=<repo root> -DWORK_DIR=<dir> -P check_serve_gate_baseline.cmake
if(NOT DEFINED SOURCE_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repo root> -DWORK_DIR=<dir>")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/serve_gate_baseline.cmake)

function(expect build_type trace dir want)
  serve_gate_baseline(got ${dir} ${build_type} ${trace})
  if(NOT got STREQUAL want)
    message(FATAL_ERROR
            "serve_gate_baseline(${build_type}, trace ${trace}) in ${dir}: got '${got}', want '${want}'")
  endif()
endfunction()

# Synthetic baselines: a traced Release one, and a file named for
# RelWithDebInfo whose meta says Release.
set(fake ${WORK_DIR}/serve_gate_baselines)
file(MAKE_DIRECTORY ${fake})
file(WRITE ${fake}/BENCH_serve.json
  "{\"bench\":\"serve\",\"meta\":{\"build_type\":\"Release\",\"trace_enabled\":true}}\n")
file(WRITE ${fake}/BENCH_serve_RelWithDebInfo.json
  "{\"bench\":\"serve\",\"meta\":{\"build_type\":\"Release\",\"trace_enabled\":true}}\n")
expect(Release ON ${fake} ${fake}/BENCH_serve.json)
expect(Release OFF ${fake} "")
expect(RelWithDebInfo ON ${fake} "")
expect(Debug ON ${fake} "")

# The checked-in baselines are traced: the default (traced) Release and
# RelWithDebInfo builds gate on them, the untraced ones register no gate.
expect(Release ON ${SOURCE_DIR} ${SOURCE_DIR}/BENCH_serve.json)
expect(RelWithDebInfo ON ${SOURCE_DIR} ${SOURCE_DIR}/BENCH_serve_RelWithDebInfo.json)
expect(Release OFF ${SOURCE_DIR} "")
expect(RelWithDebInfo OFF ${SOURCE_DIR} "")
expect(MinSizeRel ON ${SOURCE_DIR} "")

# Golden-output regression runner (invoked via `cmake -P` from ctest).
#
# Runs one command and compares what it writes byte-for-byte against the
# file pinned in tests/golden/.  The fig goldens were captured from the
# pre-ScenarioSpec hand-wired benches, so a passing test is a proof that
# the declarative layer reproduces the old construction exactly (same
# seeds, same sample counts, same math); the `forktail run` goldens pin
# whole scenario reports, predictions and certified brackets included.
#
# Variables (passed with -D):
#   BINARY   -- the executable to run (required)
#   ARGS     -- its arguments, a ;-list (required)
#   GOLDEN   -- the pinned file to compare against (required)
#   OUTPUT   -- scratch path for the fresh output (required)
#   OUT_FLAG -- when set, the command writes OUTPUT itself, given
#               `OUT_FLAG OUTPUT` after ARGS, and its stdout is dropped;
#               otherwise its stdout is the output
foreach(var BINARY ARGS GOLDEN OUTPUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

if(OUT_FLAG)
  file(REMOVE ${OUTPUT})
  execute_process(
    COMMAND ${BINARY} ${ARGS} ${OUT_FLAG} ${OUTPUT}
    OUTPUT_QUIET
    RESULT_VARIABLE run_rc)
else()
  execute_process(
    COMMAND ${BINARY} ${ARGS}
    OUTPUT_FILE ${OUTPUT}
    RESULT_VARIABLE run_rc)
endif()
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with status ${run_rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT} ${GOLDEN}
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "golden mismatch: ${OUTPUT} differs from ${GOLDEN}.\n"
    "The change moved pinned output -- diff the two files; if the "
    "change is intended, re-pin the golden deliberately.")
endif()

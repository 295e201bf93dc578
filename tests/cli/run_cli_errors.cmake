# CLI failure-path regression runner (invoked via `cmake -P` from ctest).
#
# Every failure mode of the forktail CLI must produce a one-line stderr
# diagnostic and a *distinct* exit code so shell pipelines and CI jobs can
# tell user error from bad configuration from runtime failure:
#   1 -- usage error      (missing/unknown command, bad flag combination)
#   2 -- config error     (malformed JSON, invalid scenario field)
#   3 -- runtime error    (valid request that fails while executing)
#
# Variables (all required, passed with -D):
#   CLI     -- the forktail executable
#   DATA    -- directory holding the malformed/invalid spec fixtures
#   SCRATCH -- writable scratch directory for output files
foreach(var CLI DATA SCRATCH)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_cli_errors.cmake: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY ${SCRATCH})

# expect(<label> <want_rc> <args...>): run the CLI, require the exact exit
# code and a non-empty single-line stderr diagnostic.
function(expect label want_rc)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${want_rc})
    message(FATAL_ERROR
      "${label}: expected exit ${want_rc}, got '${rc}'\nstderr: ${err}")
  endif()
  if(err STREQUAL "")
    message(FATAL_ERROR "${label}: no stderr diagnostic emitted")
  endif()
endfunction()

# --- exit 1: usage errors ------------------------------------------------
expect("no-command" 1)
expect("unknown-command" 1 frobnicate)
expect("run-without-file" 1 run)
expect("bad-percentile" 1 run ${DATA}/tiny_scenario.json --p 99x)
expect("empty-predictor-list" 1 run ${DATA}/tiny_scenario.json --predict ,)
expect("bad-stage-number" 1 pipeline --stage a:4.1x:80:64)
expect("nonpositive-node-count" 1 sweep --node-counts 0 --scale smoke)

# --- exit 2: configuration errors ---------------------------------------
expect("malformed-json" 2 run ${DATA}/malformed_scenario.json)
expect("invalid-field" 2 run ${DATA}/invalid_scenario.json)
expect("missing-file" 2 run ${DATA}/no_such_scenario.json)

# --- exit 3: runtime errors ---------------------------------------------
expect("unwritable-out" 3 run ${DATA}/tiny_scenario.json
  --out ${SCRATCH}/no-such-dir/report.json)

# Sanity: the happy path still exits 0 and writes its artifacts.
execute_process(
  COMMAND ${CLI} run ${DATA}/tiny_scenario.json
    --out ${SCRATCH}/tiny_report.json
    --metrics-out ${SCRATCH}/tiny_metrics.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "happy-path: expected exit 0, got '${rc}'\n${err}")
endif()
foreach(artifact tiny_report.json tiny_metrics.json)
  if(NOT EXISTS ${SCRATCH}/${artifact})
    message(FATAL_ERROR "happy-path: ${artifact} was not written")
  endif()
endforeach()

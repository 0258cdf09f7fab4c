# Drives the operator CLI through a full workflow and fails on any non-zero
# exit. Invoked by ctest with -DCLI=<binary> -DWORKDIR=<dir>.
set(demand ${WORKDIR}/cli_demand.csv)
set(schedule ${WORKDIR}/cli_schedule.csv)

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "ipool_cli ${ARGN} failed (${code}): ${out} ${err}")
  endif()
endfunction()

run_cli(generate --profile east-medium --days 1 --seed 5 --out ${demand})
run_cli(recommend --demand ${demand} --model ssa --alpha 0.3 --bins 2880
        --out ${schedule})
# The emitted schedule covers the *next* day; evaluate it against the same
# demand shape by regenerating day 2 of the same seed.
run_cli(generate --profile east-medium --days 1 --seed 6 --out ${demand})
run_cli(evaluate --demand ${demand} --schedule ${schedule})
run_cli(simulate --demand ${demand} --schedule ${schedule} --latency 90)
run_cli(sweep --demand ${demand})

# Control-loop command with observability exports: the Prometheus dump must
# carry the live plane's tick counters and a quantile-derivable solve
# histogram, and the trace must contain the nested tick-stage spans.
set(metrics ${WORKDIR}/cli_metrics.prom)
set(spans ${WORKDIR}/cli_spans.jsonl)
run_cli(loop --demand ${demand} --model ssa --run-interval 1800
        --history-bins 480 --metrics-out ${metrics} --trace-out ${spans})
file(READ ${metrics} metrics_text)
foreach(needle
    "# TYPE ipool_live_ticks_total counter"
    "ipool_live_ticks_total{status=\"ok\"} "
    "# TYPE ipool_live_tick_seconds histogram"
    "# TYPE ipool_solve_seconds histogram"
    "ipool_solve_seconds_bucket"
    "le=\"+Inf\"")
  string(FIND "${metrics_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "metrics export missing '${needle}'")
  endif()
endforeach()
file(READ ${spans} spans_text)
foreach(needle
    "\"name\":\"control_loop\"" "\"name\":\"live.tick\""
    "\"name\":\"live.snapshot\"" "\"name\":\"forecast\""
    "\"name\":\"solve\"" "\"name\":\"live.refit_solve\""
    "\"name\":\"live.publish\"" "\"name\":\"simulate\"")
  string(FIND "${spans_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "trace export missing span ${needle}")
  endif()
endforeach()

# Unknown commands and missing flags must fail loudly.
execute_process(COMMAND ${CLI} frobnicate RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "unknown command should have failed")
endif()
execute_process(COMMAND ${CLI} generate RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "generate without --out should have failed")
endif()

# One ramp_bench smoke run (2 apps, 1 s phases, no golden check), then
# its run JSON checked against every metric BENCHMARK.json names.
#   cmake -DBENCH=... -DCOMPARE=... -DSPEC=... -DWORKLOAD=... -DTRACE=...
#         -DOUT=<run JSON> -P smoke.cmake
execute_process(
    COMMAND ${BENCH} --workload ${WORKLOAD} --seed 1 --seconds 2
            --trace ${TRACE} --smoke --json ${OUT} --scratch ${OUT}.scratch
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ramp_bench --smoke exited ${rc}")
endif()
execute_process(COMMAND ${COMPARE} --spec ${SPEC} --check ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "the run JSON does not carry BENCHMARK.json's metrics")
endif()

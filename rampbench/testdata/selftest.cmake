# bench_compare on fixture runs: a clean change, a regression, a change
# too noisy to judge, a digest mismatch, and runs from another host.
#   cmake -DCOMPARE=<bench_compare> -DDATA=<testdata dir> -P selftest.cmake
function(expect name want_rc want_text)
    execute_process(
        COMMAND ${COMPARE} --spec ${DATA}/spec.json ${ARGN}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    string(FIND "${out}${err}" "${want_text}" at)
    if(NOT rc EQUAL want_rc OR at EQUAL -1)
        message(FATAL_ERROR "${name}: exit ${rc} (want ${want_rc}), "
                            "want '${want_text}' in:\n${out}${err}")
    endif()
    message(STATUS "${name}: ok")
endfunction()

expect(clean 0 "unchanged"
       --parent ${DATA}/parent --change ${DATA}/clean)
expect(regression 1 "regressed"
       --parent ${DATA}/parent --change ${DATA}/regressed)
expect(unresolved 0 "unresolved"
       --parent ${DATA}/noisy_parent --change ${DATA}/noisy_change)
expect(digest 1 "digest answers differs at seed 3"
       --parent ${DATA}/parent --change ${DATA}/digest)
expect(host 2 "refusing to compare"
       --parent ${DATA}/parent --change ${DATA}/otherhost)
expect(schema 0 "check: ok" --check ${DATA}/parent)

# Compile-fail check for Result discipline (ctest lint.result_discipline).
# Compiles fixtures/nodiscard/discard.cc once per DISCARD case: cases
# 1..5 must each be rejected with an unused-result diagnostic, and the
# control case 0 must compile cleanly.
#
#   cmake -DCXX=<compiler> -DSRC=<repo>/src -DFIXTURE=<discard.cc>
#         -P nodiscard_check.cmake
foreach(n RANGE 0 5)
    execute_process(
        COMMAND ${CXX} -std=c++20 -fsyntax-only -Werror=unused-result
                -I${SRC} -DDISCARD=${n} ${FIXTURE}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
    if(n EQUAL 0 AND NOT rc EQUAL 0)
        message(FATAL_ERROR "control case must compile cleanly:\n${out}")
    endif()
    if(n GREATER 0 AND (rc EQUAL 0 OR NOT out MATCHES "unused-result"))
        message(FATAL_ERROR
            "DISCARD=${n}: compiler did not reject the discarded "
            "result with unused-result:\n${out}")
    endif()
endforeach()
message(STATUS "all 5 discarded results rejected; control clean")

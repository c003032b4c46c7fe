# Golden-trace comparison, run as a ctest via `cmake -P`.
#
# Inputs: ENGINE (binary path), ARGS (one shell-style argument string),
# OUT (scratch path for actual stdout).
# Optional: GOLDEN (committed expected stdout; without it only the exit
# status is checked, as the usage-error tests do); EXPECT_RC (expected
# exit status, default 0 — repro replays exit 1 by contract when the
# violation re-fires); INPUT (file piped to the tool's stdin — how the
# tufp_serve session goldens drive a daemon the same way a shell pipe
# would).
# The tool's stdout is its deterministic channel (wall-clock goes to
# stderr), so the comparison is byte-for-byte.
foreach(var ENGINE ARGS OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_test.cmake requires -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
if(DEFINED INPUT)
  set(stdin_arg INPUT_FILE ${INPUT})
  set(stdin_hint "< ${INPUT} ")
else()
  set(stdin_arg)
  set(stdin_hint "")
endif()
execute_process(
  COMMAND ${ENGINE} ${arg_list}
  ${stdin_arg}
  OUTPUT_FILE ${OUT}
  ERROR_VARIABLE stderr_text
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "${ENGINE} ${ARGS} exited ${run_rc}"
          " (expected ${EXPECT_RC})\n${stderr_text}")
endif()
if(NOT DEFINED GOLDEN)
  return()
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  file(READ ${OUT} actual)
  file(READ ${GOLDEN} expected)
  message(FATAL_ERROR
          "deterministic stdout drifted from the committed golden trace\n"
          "--- expected (${GOLDEN})\n${expected}\n"
          "--- actual (${OUT})\n${actual}\n"
          "If the change is intentional, regenerate the golden file:\n"
          "  ${ENGINE} ${ARGS} ${stdin_hint}> ${GOLDEN} 2>/dev/null")
endif()

# svd_run's bad input files are usage errors: a missing .asm file, an
# .asm file that fails to assemble and a schedule file that fails to
# load (malformed, or declaring more steps than a replay may run) must
# each exit 2 (support::ExitUsage) with a diagnostic, keeping
# exit 1 for a replay that diverges. So is a suite without a workload
# set given to svd-chaos or svd-serve: a paper study is named as one,
# and a name that is no suite as unknown; nothing goes to stdout.
# Invoke with:
#
#   cmake -DSVD_RUN=<exe> -DASM=<program.asm> -DOUTDIR=<dir> \
#         -DCHAOS=<svd-chaos> -DSERVE=<svd-serve> -P BadInputExitCheck.cmake

file(MAKE_DIRECTORY "${OUTDIR}")
file(WRITE "${OUTDIR}/malformed.asm" ".thread t\n  frobnicate r1\n  halt\n")
file(WRITE "${OUTDIR}/malformed.sched" "not a schedule\n")
# Declares one step more than the replay budget; rejected before the
# (absent) run-length tokens are read.
file(WRITE "${OUTDIR}/oversized.sched"
     "svd-schedule v1\nrndseed 2\nsteps 50000001\n")

set(missing_file_ARGS "${OUTDIR}/no_such_file.asm")
set(missing_file_DIAG "error: cannot open")
set(malformed_asm_ARGS "${OUTDIR}/malformed.asm")
set(malformed_asm_DIAG "malformed.asm:2: error: unknown mnemonic")
set(malformed_schedule_ARGS "${ASM}" --replay "${OUTDIR}/malformed.sched")
set(malformed_schedule_DIAG "error: ")
set(oversized_schedule_ARGS "${ASM}" --replay "${OUTDIR}/oversized.sched")
set(oversized_schedule_DIAG "exceeds limit 50000000")

foreach(CASE missing_file malformed_asm malformed_schedule oversized_schedule)
  execute_process(COMMAND "${SVD_RUN}" ${${CASE}_ARGS}
                  OUTPUT_QUIET
                  ERROR_VARIABLE ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 2)
    message(FATAL_ERROR "${CASE}: svd_run exited '${RC}', expected 2:\n${ERR}")
  endif()
  if(NOT ERR MATCHES "${${CASE}_DIAG}")
    message(FATAL_ERROR "${CASE}: missing diagnostic '${${CASE}_DIAG}':\n${ERR}")
  endif()
endforeach()

set(study_DIAG "suite 'fig2' is a paper study and has no workload set")
set(unknown_DIAG "unknown suite 'no-such-suite'")
foreach(TOOL CHAOS SERVE)
  foreach(CASE study unknown)
    if(CASE STREQUAL "study")
      set(NAME fig2)
    else()
      set(NAME no-such-suite)
    endif()
    execute_process(COMMAND "${${TOOL}}" --suite ${NAME}
                    OUTPUT_VARIABLE OUT
                    ERROR_VARIABLE ERR
                    RESULT_VARIABLE RC)
    if(NOT RC EQUAL 2)
      message(FATAL_ERROR "${TOOL} ${CASE}: exited '${RC}', expected 2:\n${ERR}")
    endif()
    if(NOT OUT STREQUAL "")
      message(FATAL_ERROR "${TOOL} ${CASE}: wrote to stdout:\n${OUT}")
    endif()
    string(FIND "${ERR}" "${${CASE}_DIAG}\n" AT)
    if(NOT AT EQUAL 0)
      message(FATAL_ERROR "${TOOL} ${CASE}: stderr does not open with "
                          "'${${CASE}_DIAG}':\n${ERR}")
    endif()
  endforeach()
endforeach()
